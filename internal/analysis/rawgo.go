package analysis

import (
	"go/ast"
	"strconv"
)

// RawGo flags real concurrency — go statements, the sync packages, and
// channel construction — everywhere, the sim engine included: the
// engine runs each simulated process as a coroutine, exactly one at a
// time, and sequences everything else through the virtual calendar, so
// it needs none of them. Concurrency introduced anywhere races against
// that schedule and destroys reproducibility.
var RawGo = &Analyzer{
	Name:  "rawgo",
	Scope: ScopeIntra,
	Doc:   "forbid goroutines, sync primitives, and channels anywhere: the sim engine sequences all concurrency",
	Run:   runRawGo,
}

func runRawGo(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "sync" || path == "sync/atomic" {
				p.Reportf(imp.Pos(), "import of %s outside internal/sim's scheduler: real locking orders run under the host scheduler, not the virtual calendar", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(), "raw goroutine outside internal/sim's scheduler: spawn simulated processes with Engine.Spawn so dispatch order stays deterministic")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, isChan := n.Args[0].(*ast.ChanType); isChan {
						p.Reportf(n.Pos(), "channel construction outside internal/sim's scheduler: use sim.Queue/sim.Event for deterministic rendezvous")
					}
				}
			}
			return true
		})
	}
}
