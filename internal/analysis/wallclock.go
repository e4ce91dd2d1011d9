package analysis

import (
	"go/ast"
	"go/types"
)

// determinismDomain names the engine packages whose outputs feed result
// digests. Inside them, elapsed time comes from the simclock virtual clock
// and randomness from node-key-seeded RNGs; the wall clock and the global
// math/rand state are how "byte-identical at any worker/batch/shard count"
// silently dies.
var determinismDomain = map[string]bool{
	"operator":   true,
	"atc":        true,
	"qsm":        true,
	"mqo":        true,
	"cq":         true,
	"state":      true,
	"costmodel":  true,
	"tuple":      true,
	"scoring":    true,
	"candidates": true,
	"catalog":    true,
	"simclock":   true,
}

// wallclockBanned maps an import path to the functions that read ambient
// time or ambient randomness. Constructors of explicitly-seeded sources
// (rand.New, rand.NewSource, ...) stay legal: seeding from a node key is
// exactly the sanctioned idiom.
var wallclockBanned = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true,
		"NewTimer": true, "NewTicker": true,
	},
	"math/rand":    nil, // nil = every function except the seeded constructors
	"math/rand/v2": nil,
}

// wallclockConstructors are the math/rand functions that build a seeded
// source rather than draw from the global one.
var wallclockConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Wallclock flags wall-clock time and global-RNG draws in determinism-domain
// packages.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "engine packages must draw time from simclock and randomness from " +
		"node-key-seeded RNGs; time.Now/Since/timers and global math/rand " +
		"calls make digests depend on the machine and the schedule",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !determinismDomain[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			banned, watched := wallclockBanned[path]
			if !watched {
				return true
			}
			// Only function references matter: time.Duration, rand.Rand and
			// friends are types, and package-level constants are values.
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			name := sel.Sel.Name
			if banned == nil { // math/rand: global draws are banned wholesale
				if !wallclockConstructors[name] {
					pass.Reportf(sel.Pos(),
						"global %s.%s in determinism-domain package %s; draw from a node-key-seeded *rand.Rand instead",
						pn.Imported().Name(), name, pass.Pkg.Name())
				}
				return true
			}
			if banned[name] {
				pass.Reportf(sel.Pos(),
					"wall-clock %s.%s in determinism-domain package %s; elapsed time must come from the simclock virtual clock",
					pn.Imported().Name(), name, pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}
