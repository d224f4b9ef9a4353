// Package nodeterminism forbids wall-clock time, ambient randomness and
// process-identity entropy inside the simulator packages. The paper's
// adaptive AFW/AAW switching decisions depend on exact Tlb timestamps, so
// a single time.Now or global math/rand call silently breaks bit-for-bit
// reproducibility of every figure. Simulated time must come from
// sim.Kernel (sim.Time) and randomness from internal/rng; cmd/ remains
// free to read the wall clock for progress reporting.
package nodeterminism

import (
	"go/ast"
	"go/types"

	"mobicache/internal/analyzers/framework"
)

// Restricted lists the package-path suffixes the determinism contract
// covers. internal/rng is deliberately absent (it is the sanctioned
// randomness source) and cmd/ packages never match these suffixes.
var Restricted = []string{
	"internal/sim",
	"internal/core",
	"internal/engine",
	"internal/server",
	"internal/workload",
	"internal/netsim",
	"internal/faults",
	"internal/delivery",
	"internal/metrics",
	"internal/overload",
	"internal/parallel",
	"internal/span",
	"internal/churn",
	"internal/population",
	"internal/cache",
}

// forbidden maps import path -> banned top-level names -> suggestion.
// An empty name set bans every selector from the package.
var forbidden = map[string]struct {
	names   map[string]bool // nil means "every selector"
	suggest string
}{
	"time": {
		names: map[string]bool{
			"Now": true, "Sleep": true, "Since": true, "Until": true,
			"After": true, "AfterFunc": true, "Tick": true,
			"NewTicker": true, "NewTimer": true,
		},
		suggest: "use sim.Time and Kernel.Now/Schedule for simulated time",
	},
	"math/rand":    {suggest: "use internal/rng (seeded, splittable) for all randomness"},
	"math/rand/v2": {suggest: "use internal/rng (seeded, splittable) for all randomness"},
	"os": {
		names: map[string]bool{
			"Getpid": true, "Getppid": true, "Getenv": true,
			"LookupEnv": true, "Environ": true, "Hostname": true,
		},
		suggest: "simulator behavior must not depend on process identity or environment",
	},
}

// Analyzer is the nodeterminism check.
var Analyzer = &framework.Analyzer{
	Name: "nodeterminism",
	Doc: "forbid time.Now/time.Sleep, global math/rand and os entropy in " +
		"simulator packages; sim.Time and internal/rng are the only legal sources",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !restricted(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			rule, ok := forbidden[pkgName.Imported().Path()]
			if !ok {
				return true
			}
			if rule.names != nil && !rule.names[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(), "nondeterministic %s.%s in simulator package %s: %s",
				pkgName.Imported().Path(), sel.Sel.Name, pass.Pkg.Path(), rule.suggest)
			return true
		})
	}
	return nil
}

func restricted(path string) bool {
	for _, s := range Restricted {
		if framework.PathHasSuffix(path, s) {
			return true
		}
	}
	return false
}
