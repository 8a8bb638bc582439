package lint

import (
	"go/ast"
)

// ctxFlowScope lists the engine packages whose exported API does
// long-running work — iterating experiments, coordinating shards, touching
// the filesystem or network. Cancellation must be able to reach that work:
// the distributed coordinator (PR 5) re-leases shards from workers that
// stop responding, which only functions if a worker's long loops actually
// observe ctx.Done.
var ctxFlowScope = []string{
	"internal/campaign",
	"internal/distrib",
	"internal/inject",
}

// CtxFlow requires engine API to accept and forward context.Context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: `ctxflow: engine API must accept and forward context.Context

Two rules in campaign/distrib/inject:

  - Library code never conjures its own root context:
    context.Background() / context.TODO() sever the caller's cancellation
    chain, so a cancelled campaign keeps burning CPU (or holding leases)
    in whatever subtree re-rooted itself.
  - An exported function that calls into context-aware machinery (any
    callee whose first parameter is a context.Context) must itself take a
    ctx parameter and forward it. Otherwise the API forces its callers to
    the first problem.

Functions that do purely synchronous in-memory work are untouched: the
analyzer keys on what the body calls, not on the function's name.`,
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	if !pathMatchesAny(pass.Pkg.Path(), ctxFlowScope) {
		return
	}
	for _, f := range pass.Files {
		// Rule 1: no context.Background()/TODO() anywhere in library code.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := pkgFunc(pass.Info, call)
			if pkg == "context" && (name == "Background" || name == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s roots a fresh context in library code, cutting the caller's cancellation chain; accept a ctx parameter and pass it down", name)
			}
			return true
		})

		// Rule 2: exported functions reaching context-aware callees must
		// take a ctx themselves.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if declHasContext(pass, fd) {
				continue
			}
			// Find the first call to a context-aware callee in the body.
			var firstPos ast.Node
			var calleeName string
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if firstPos != nil {
					return false
				}
				// Do not descend into function literals: a closure that
				// takes its own ctx (e.g. handed to an errgroup-style
				// runner) is a separate scope.
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				csig := calleeSignature(pass.Info, call)
				if csig == nil || csig.Params().Len() == 0 {
					return true
				}
				if isContextType(csig.Params().At(0).Type()) {
					firstPos = call
					calleeName = exprString(call.Fun)
				}
				return true
			})
			if firstPos != nil {
				pass.Reportf(fd.Name.Pos(),
					"exported %s calls context-aware %s but takes no context.Context; accept ctx and forward it so cancellation reaches the work", fd.Name.Name, calleeName)
			}
		}
	}
}

// declHasContext reports whether the function declaration has a
// context.Context parameter (receiver excluded).
func declHasContext(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}
