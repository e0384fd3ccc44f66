package lint

import (
	"go/ast"
)

// leakScope covers the packages that spawn goroutines at scale: the
// dataset runner's worker pool, the fleet orchestrator, and the emulation
// client/server.
var leakScope = fileScope{
	"runner": nil,
	"fleet":  nil,
	"emu":    nil,
	"abrsvc": nil,
}

// CtxLeak flags `go func` literals that use neither a context.Context nor
// a channel operation (naming a channel, as len(ch) does, is not one).
// Such a goroutine has no cancellation path: in a 10k-session fleet run
// it outlives its session on drain, pins memory, and trips the race/leak
// tests only when timing cooperates. Thread a ctx through it, or give it a
// channel to select on.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "flag goroutine literals with no context or channel cancellation path",
	Run:  runCtxLeak,
}

func runCtxLeak(p *Pass) {
	info := p.Pkg.Info
	for _, f := range leakScope.files(p.Pkg) {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			fl, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true // named function: its own body is its own audit
			}
			for _, arg := range gs.Call.Args {
				if isContext(info.TypeOf(arg)) {
					return true
				}
			}
			if hasCancelPath(p, fl) {
				return true
			}
			p.Reportf(gs.Pos(), "goroutine literal has no cancellation path; capture a context.Context or select on a channel")
			return true
		})
	}
}

// hasCancelPath reports whether the goroutine body touches anything that
// can end it from outside: a context.Context value, a channel operation
// (send, receive, close, range over a channel), or a select statement. An
// identifier of channel type alone is not one: len(ch) never blocks.
func hasCancelPath(p *Pass, fl *ast.FuncLit) bool {
	info := p.Pkg.Info
	found := false
	ast.Inspect(fl, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(n.X)) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
			}
		case *ast.Ident:
			if isContext(info.TypeOf(n)) {
				found = true
			}
		}
		return !found
	})
	return found
}
