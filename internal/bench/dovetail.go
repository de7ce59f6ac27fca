package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/rec"
)

// RunDovetail sweeps the duplication spectrum — distinct-key fraction
// 2^0 down to 2^-20 of n — and races the default planner (ScatterAuto:
// the dovetail radix route or the counting scatter) against the two
// scatter pins, probing and counting. The acceptance shape: the planner
// tracks the better parent across the whole sweep, pulls ahead of the
// scatters on the near-unique end (where the radix recursion skips
// bucket bookkeeping entirely) and re-routes to the counting scatter on
// the duplicate-heavy end rather than paying radix passes over massive
// duplication.
func RunDovetail(o Options) []*Table {
	o = o.withDefaults()
	P := o.MaxProcs()

	tab := &Table{
		Title: fmt.Sprintf("Dovetail planner — duplication-spectrum sweep, n=%d, p=%d", o.N, P),
		Headers: []string{"distinct/n", "probing(s)", "counting(s)", "auto(s)",
			"resolved", "scatter_nodes", "radix_nodes", "dovetail_nodes", "vs best parent"},
	}

	var ws core.Workspace
	for exp := 0; exp <= 20; exp += 4 {
		pool := o.N >> exp
		if pool < 1 {
			pool = 1
		}
		a := distgen.Generate(P, o.N, distgen.Spec{Kind: distgen.Uniform, Param: float64(pool)}, o.Seed+uint64(exp))

		run := func(strat core.ScatterStrategy) (time.Duration, core.Stats) {
			var stats core.Stats
			t := timeIt(o.Reps, func() {
				out, st, err := core.SemisortWS(&ws, a, &core.Config{Procs: P, Seed: o.Seed + 7,
					ScatterStrategy: strat})
				if err != nil {
					panic(fmt.Sprintf("dovetail sweep exp=%d/%v: %v", exp, strat, err))
				}
				if !rec.IsSemisorted(out) {
					panic(fmt.Sprintf("dovetail sweep exp=%d/%v: output not semisorted", exp, strat))
				}
				stats = st
			})
			return t, stats
		}

		probT, _ := run(core.ScatterProbing)
		countT, _ := run(core.ScatterCounting)
		dovT, dovStats := run(core.ScatterAuto)

		best := probT
		if countT < best {
			best = countT
		}
		r := dovStats.PlannerRoutes
		tab.AddRow(fmt.Sprintf("2^-%d", exp), secs(probT), secs(countT), secs(dovT),
			dovStats.ScatterStrategy, r.ScatterNodes, r.RadixNodes, r.DovetailNodes,
			ratio(best, dovT))
	}
	tab.Notes = append(tab.Notes,
		"'vs best parent' > 1 means the planner beat the faster of probing/counting at that point",
		"expect the planner to flip from the radix route (scatter_nodes=0) to the counting scatter (scatter_nodes=1) as duplication rises")
	render(o, tab)
	return []*Table{tab}
}
