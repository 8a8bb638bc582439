package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite could migrate to the upstream
// framework without rewriting the checkers; it is implemented on the
// standard library alone so the module stays dependency-free and the vet
// tool builds offline.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics, suppression
	// comments, and the -only flag of cmd/fidelitylint.
	Name string
	// Doc is the one-paragraph description printed by `fidelitylint help`.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, CtxFlow, WallClock, IORetry}
}

// ByName resolves a comma-separated analyzer list; an unknown name is an
// error so a typo in CI configuration cannot silently disable a checker.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Package bundles everything the runner needs for one package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Run executes the given analyzers over one package and returns the
// surviving diagnostics: test files are skipped (tests exercise
// nondeterminism deliberately), `//lint:allow` suppressions are applied, and
// malformed or unused suppressions are reported as findings of their own.
// Diagnostics come back sorted by position.
func Run(p *Package, analyzers []*Analyzer) []Diagnostic {
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     p.Fset,
			Files:    files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			analyzer: a,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = applySuppressions(p.Fset, files, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// pathMatches reports whether pkgPath contains pattern as a slash-bounded
// sub-path. pattern itself may span segments ("internal/campaign",
// "cmd/fidelity"). Matching is positional, not prefix-based, so the module
// root "fidelity" never matches "fidelity/internal/..." by accident.
func pathMatches(pkgPath, pattern string) bool {
	if pkgPath == pattern {
		return true
	}
	if strings.HasSuffix(pkgPath, "/"+pattern) {
		return true
	}
	return strings.Contains(pkgPath, "/"+pattern+"/") || strings.HasPrefix(pkgPath, pattern+"/")
}

// pathMatchesAny reports whether pkgPath matches any of patterns.
func pathMatchesAny(pkgPath string, patterns []string) bool {
	for _, p := range patterns {
		if pathMatches(pkgPath, p) {
			return true
		}
	}
	return false
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("", "" when the call is anything else: a method, a
// conversion, a local function value).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// calleeSignature returns the type signature of a call's callee, nil when
// unresolvable (conversions, invalid code).
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasContextParam reports whether any parameter of sig is a context.Context.
func hasContextParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// exprString renders a simple expression (identifier / selector / index
// chains) to a canonical string for structural matching, e.g. "m.Sources".
// Unsupported forms render with a position marker so they never collide.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	default:
		return fmt.Sprintf("«%T@%d»", e, e.Pos())
	}
}

// baseFile returns the basename of the file containing pos.
func baseFile(fset *token.FileSet, pos token.Pos) string {
	return path.Base(fset.Position(pos).Filename)
}
