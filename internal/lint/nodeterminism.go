package lint

import (
	"go/ast"
)

// detScope lists the packages whose outputs must be bit-identical across
// runs: the MPC/FastMPC decision paths, QoE model, offline optimum,
// simulator, statistics, synthetic trace generation, and the fleet
// aggregation files (the fleet orchestrator itself paces real goroutines
// and legitimately reads the wall clock).
var detScope = fileScope{
	"core":    nil,
	"fastmpc": nil,
	"model":   nil,
	"optimal": nil,
	"sim":     nil,
	"stats":   nil,
	"trace":   nil,
	"fleet":   {"accum.go", "report.go"},
	// The decision service's decision path must be a pure function of the
	// session's request history; the server loop (http.go), admission
	// valve and client legitimately read the wall clock.
	"abrsvc": {"api.go", "decide.go", "fairness.go", "store.go"},
}

// wallClockFuncs are time functions that read or depend on the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandFuncs are the package-level math/rand (and v2) functions backed
// by the shared, unseeded-by-default global source. Constructing a seeded
// *rand.Rand via rand.New(rand.NewSource(seed)) is the sanctioned pattern
// and is not flagged.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"Uint": true,
}

// NoDeterminism forbids wall-clock reads and global math/rand draws inside
// the deterministic packages. Same seed must mean same bytes: a time.Now
// or rand.Float64 in a decision or aggregation path silently breaks the
// byte-identical report guarantee the fleet tests pin.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock time and unseeded global math/rand in deterministic packages",
	Run:  runNoDeterminism,
}

func runNoDeterminism(p *Pass) {
	if p.Pkg.Name == "main" {
		// The commands print elapsed wall time legitimately; the
		// invariant protects the library decision/aggregation paths.
		return
	}
	for _, f := range detScope.files(p.Pkg) {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, ok := importedPackage(p.Pkg.Info, sel.X)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch path {
			case "time":
				if wallClockFuncs[name] {
					p.Reportf(sel.Pos(), "time.%s reads the wall clock inside deterministic package %s; inject a clock or move timing to obs", name, p.Pkg.baseName())
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[name] {
					p.Reportf(sel.Pos(), "global rand.%s uses the shared source inside deterministic package %s; draw from a seeded rand.New(rand.NewSource(seed))", name, p.Pkg.baseName())
				}
			}
			return true
		})
	}
}
