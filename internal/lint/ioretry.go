package lint

import (
	"go/ast"
)

// ioRetryScope lists the packages that persist campaign artifacts —
// checkpoints, manifests, results, telemetry exports. Raw os.WriteFile
// there loses both guarantees PR 2/5 established: atomicity (temp file +
// fsync + rename, so a crash never leaves a torn checkpoint) and retry
// (transient EBUSY/ENOSPC on network filesystems). Bench tooling
// (benchmark/) writes throwaway measurement files and is deliberately out
// of scope.
var ioRetryScope = []string{
	"internal/campaign",
	"internal/distrib",
	"internal/telemetry",
	"cmd/fidelity",
}

// ioWriteFuncs are the os entry points that create or truncate files.
var ioWriteFuncs = map[string]bool{
	"WriteFile": true,
	"Create":    true,
	"OpenFile":  true,
}

// ioSanctionedFuncs are the campaign-package functions allowed to touch os
// write primitives directly: they ARE the safe wrappers.
var ioSanctionedFuncs = map[string]bool{
	"AtomicWriteJSON": true,
	"RetryIO":         true,
}

// IORetry flags artifact writes that bypass the atomic/retry wrappers.
var IORetry = &Analyzer{
	Name: "ioretry",
	Doc: `ioretry: artifact writes go through campaign.AtomicWriteJSON / RetryIO

Checkpoints, manifests, and results are the engine's durable state; PR 2
made their writes atomic (temp + fsync + rename, so resume never reads a
torn file) and PR 5 made them retried (lease churn on network filesystems
surfaces as transient write errors). A raw os.WriteFile / os.Create /
os.OpenFile in a persistence package silently sheds both guarantees.

The wrappers themselves (campaign.AtomicWriteJSON, campaign.RetryIO) are
the sanctioned home for raw os calls. Writes that are genuinely not
campaign artifacts (a debug dump, a pprof profile) carry a
//lint:allow ioretry <reason>.`,
	Run: runIORetry,
}

func runIORetry(pass *Pass) {
	if !pathMatchesAny(pass.Pkg.Path(), ioRetryScope) {
		return
	}
	inCampaign := pathMatches(pass.Pkg.Path(), "internal/campaign")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inCampaign && ioSanctionedFuncs[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name := pkgFunc(pass.Info, call)
				if pkg != "os" || !ioWriteFuncs[name] {
					return true
				}
				pass.Reportf(call.Pos(),
					"os.%s bypasses the atomic+retry write path; persist campaign artifacts via campaign.AtomicWriteJSON (inside campaign.RetryIO for transient-error tolerance)", name)
				return true
			})
		}
	}
}
