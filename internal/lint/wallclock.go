package lint

import (
	"go/ast"
)

// Wallclock flags reads of the host's real clock — time.Now, time.Since,
// time.Until — outside the allowlisted timing wrappers. gpClust's reported
// costs (the Table I component breakdown, the ablation numbers) come from
// the simulated device's virtual clock and the host operations charged to
// each run's sched.Ledger; sampling the wall clock anywhere else invites
// mixing host-dependent timings into results that must reproduce on any
// machine. The allowlist names the stopwatch helpers that measure the
// separate, explicitly host-dependent Result.Wall fields.
var Wallclock = &Analyzer{
	Name: ruleWallclock,
	Doc:  "time.Now/Since/Until outside an allowlisted timing wrapper",
	Run:  runWallclock,
}

var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallclock(cfg *Config, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	forEachFunc(pkg, func(fd *ast.FuncDecl, name string) {
		if cfg.wallclockAllowed(pkg.Path, name) {
			return
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pkgFuncObj(pkg, sel, "time")
			if obj == nil || !wallclockFuncs[obj.Name()] {
				return true
			}
			diags = append(diags, diag(pkg, ruleWallclock, sel,
				"time.%s outside an allowlisted timing wrapper: report costs through the virtual clock, or extend the stopwatch helper",
				obj.Name()))
			return true
		})
	})
	return diags
}
