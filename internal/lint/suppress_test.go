package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// analyzeSource runs analyzers over one in-memory file placed at an
// in-scope engine import path and returns the surviving diagnostics.
func analyzeSource(t *testing.T, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	l := loader()
	fset := l.fset
	f, err := parser.ParseFile(fset, "suppress_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check("fidelity/internal/suppressfix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Run(&Package{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}, analyzers)
}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func TestSuppressionConsumesFinding(t *testing.T) {
	const src = `package suppressfix

import "time"

func standalone() time.Time {
	//lint:allow wallclock reviewed: liveness read
	return time.Now()
}

func trailing() time.Time {
	return time.Now() //lint:allow wallclock reviewed: liveness read
}
`
	diags := analyzeSource(t, src, WallClock)
	if len(diags) != 0 {
		t.Fatalf("suppressed findings survived: %v", messages(diags))
	}
}

func TestSuppressionOnlyCoversItsLine(t *testing.T) {
	const src = `package suppressfix

import "time"

func covered() time.Time {
	//lint:allow wallclock reviewed
	return time.Now()
}

func uncovered() time.Time {
	return time.Now()
}
`
	diags := analyzeSource(t, src, WallClock)
	if len(diags) != 1 || diags[0].Analyzer != "wallclock" || diags[0].Position.Line != 11 {
		t.Fatalf("want exactly the line-11 wallclock finding, got %v", messages(diags))
	}
}

func TestUnusedSuppressionReported(t *testing.T) {
	const src = `package suppressfix

//lint:allow wallclock nothing here reads the clock
var x = 1
`
	diags := analyzeSource(t, src, WallClock)
	if len(diags) != 1 || diags[0].Analyzer != "suppression" ||
		!strings.Contains(diags[0].Message, "unused suppression for wallclock") {
		t.Fatalf("want one unused-suppression finding, got %v", messages(diags))
	}
}

func TestUnusedSuppressionIgnoredWhenAnalyzerDidNotRun(t *testing.T) {
	const src = `package suppressfix

//lint:allow detrand justified elsewhere
var x = 1
`
	// Only wallclock runs, so the detrand allow cannot be judged unused.
	diags := analyzeSource(t, src, WallClock)
	if len(diags) != 0 {
		t.Fatalf("allow for a non-running analyzer was reported: %v", messages(diags))
	}
}

func TestMalformedSuppressions(t *testing.T) {
	const src = `package suppressfix

//lint:allow
var a = 1

//lint:allow nosuchanalyzer some reason
var b = 1

//lint:allow wallclock
var c = 1
`
	diags := analyzeSource(t, src, WallClock)
	if len(diags) != 3 {
		t.Fatalf("want 3 suppression findings, got %v", messages(diags))
	}
	wants := []string{
		"malformed suppression",
		"unknown analyzer nosuchanalyzer",
		"lacks a reason",
	}
	for i, w := range wants {
		if diags[i].Analyzer != "suppression" || !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, diags[i].Message, w)
		}
	}
}

func TestSuppressionSkippedInTestFiles(t *testing.T) {
	// Run filters _test.go files entirely, so a finding there never
	// surfaces and its absence of suppression never matters.
	l := loader()
	f, err := parser.ParseFile(l.fset, "clocky_test.go", `package suppressfix

import "time"

func helper() time.Time { return time.Now() }
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check("fidelity/internal/suppressfix", l.fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(&Package{Fset: l.fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}, []*Analyzer{WallClock})
	if len(diags) != 0 {
		t.Fatalf("test file was analyzed: %v", messages(diags))
	}
}

// FuzzAllowDirective: whatever follows //lint:allow on a comment line, the
// parser must classify it — malformed, unknown analyzer, missing reason, or a
// well-formed allow (here unused: the line below it has no finding) — as
// exactly one suppression finding, and never panic.
func FuzzAllowDirective(f *testing.F) {
	for _, tail := range []string{
		"", " ", " wallclock", " wallclock liveness, not identity", "\twallclock\treason",
		" nosuchanalyzer some reason", "wallclock glued to the prefix", " detrand x", " wallclock  ",
		" ctxflow // nested", " maporder  ", ":", " \x00",
	} {
		f.Add(tail)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	f.Fuzz(func(t *testing.T, tail string) {
		if strings.ContainsAny(tail, "\n\r") {
			t.Skip("the directive is one comment line")
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "allow_fixture.go", "package allowfix\n\n//lint:allow"+tail+"\nvar a = 1\n", parser.ParseComments)
		if err != nil {
			t.Skip("not a Go comment: ", err)
		}
		want := "unused suppression for "
		switch fields := strings.Fields(tail); {
		case len(fields) == 0:
			want = "malformed suppression"
		case !known[fields[0]]:
			want = "unknown analyzer " + fields[0]
		case len(fields) == 1:
			want = "lacks a reason"
		default:
			want += fields[0]
		}
		diags := applySuppressions(fset, []*ast.File{file}, Analyzers(), nil)
		if len(diags) != 1 || diags[0].Analyzer != "suppression" || !strings.Contains(diags[0].Message, want) {
			t.Fatalf("//lint:allow%q: findings %v, want one suppression finding containing %q", tail, messages(diags), want)
		}
	})
}
