package main

import (
	semisort "repro"
	"repro/internal/distgen"
)

// baseConfig is the configuration every workload sorts with: the
// defaults at two workers.
func baseConfig() semisort.Config { return semisort.Config{Procs: 2} }

// sumReducer is the per-key wrapping sum the reduce ops compute.
var sumReducer = semisort.Reducer{
	Fold:  func(acc, v uint64) uint64 { return acc + v },
	Merge: func(a, b uint64) uint64 { return a + b },
}

// heavyThreshold is the multiplicity at which the default configuration
// expects a key to be classified heavy: Delta / (1/SampleRate) = 16·16.
const heavyThreshold = 256

// libWorkload is one caller on a warm Sorter: lib-unique sorts near-unique
// keys, lib-skew alternates a sort and a per-key sum over a
// duplicate-heavy input.
type libWorkload struct {
	name   string
	n      int
	spec   distgen.Spec
	reduce bool // alternate SortShared and ReduceShared

	in     []semisort.Record
	sref   sortRef
	rref   reduceRef
	sorter *semisort.Sorter
	out    []semisort.Record // output of the last op, owned by sorter
	strat  map[string]string
}

func newLibUnique(n int) *libWorkload {
	return &libWorkload{name: "lib-unique", n: n, spec: distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}}
}

func newLibSkew(n int) *libWorkload {
	return &libWorkload{name: "lib-skew", n: n, spec: distgen.Spec{Kind: distgen.Exponential, Param: float64(n) / 1e3}, reduce: true}
}

func (w *libWorkload) isReduce(i int) bool { return w.reduce && i%2 == 1 }

func (w *libWorkload) setup(seed uint64, r *runner) error {
	w.in = distgen.Generate(2, w.n, w.spec, seed)
	w.sref, w.rref = references(w.in)
	cfg := baseConfig()
	w.sorter = semisort.NewSorter(&cfg)
	w.strat = map[string]string{}
	// Warm the workspace on every op kind the loop runs.
	for i := 0; i < 4; i++ {
		var st semisort.Stats
		var err error
		if w.isReduce(i) {
			w.out, st, err = w.sorter.ReduceShared(w.in, sumReducer)
		} else {
			w.out, st, err = w.sorter.SortConfigShared(w.in, &cfg)
		}
		if err != nil {
			return err
		}
		if err := w.check(i); err != nil {
			return err
		}
		w.strat[w.opName(i)] = st.ScatterStrategy
	}
	return nil
}

func (w *libWorkload) opName(i int) string {
	if w.isReduce(i) {
		return "lib.reduce"
	}
	return "lib.sort"
}

func (w *libWorkload) run(r *runner) error {
	return r.serial(func(i int, traced bool) (int, error) {
		sp := r.startOp(traced, w.opName(i))
		if sp == nil {
			var err error
			if w.isReduce(i) {
				w.out, _, err = w.sorter.ReduceShared(w.in, sumReducer)
			} else {
				w.out, err = w.sorter.SortShared(w.in)
			}
			return w.n, err
		}
		cfg := baseConfig()
		cfg.Observer = r.obs
		r.obs.setParent(sp.op, sp.id)
		var st semisort.Stats
		var err error
		if w.isReduce(i) {
			w.out, st, err = w.sorter.ReduceConfigShared(w.in, sumReducer, &cfg)
		} else {
			w.out, st, err = w.sorter.SortConfigShared(w.in, &cfg)
		}
		sp.finish()
		r.obs.takeGroups()
		if err == nil {
			coreVals(sp, st)
		}
		return w.n, err
	}, w.check)
}

// coreVals records the per-layer counters of one semisort call.
func coreVals(sp *opSpan, st semisort.Stats) {
	n := float64(max(st.N, 1))
	sp.set("core.sample_rounds", float64(st.SampleRounds))
	sp.set("core.heavy_keys", float64(st.HeavyKeys))
	sp.set("core.flushes_per_rec", float64(st.ScatterFlushes)/n)
	sp.set("core.max_probe_cluster", float64(st.MaxProbeCluster))
	sp.set("core.slots_per_rec", float64(st.SlotsAllocated)/n)
	sp.set("core.retries", float64(st.Retries))
	sp.set("core.fallbacks", b2f(st.FallbackUsed))
	sp.set("parallel.chunks", float64(st.Sched.ChunksClaimed))
	sp.set("parallel.steals", float64(st.Sched.Steals))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (w *libWorkload) check(i int) error {
	var err error
	if w.isReduce(i) {
		err = checkReduce(w.out, w.rref)
	} else {
		err = checkSort(w.out, w.sref)
	}
	if err != nil {
		return wrong("%s op %d: %v", w.name, i, err)
	}
	return nil
}

func (w *libWorkload) meta() map[string]any {
	return map[string]any{
		"input":            inputMeta(w.in, w.sref.distinct),
		"ops":              map[bool]string{false: "SortShared", true: "SortShared/ReduceShared(sum) alternating"}[w.reduce],
		"scatter_strategy": w.strat,
	}
}

func (w *libWorkload) close() error {
	if w.sorter != nil {
		w.sorter.Release()
	}
	return nil
}

// inputMeta describes one generated input.
func inputMeta(a []semisort.Record, distinct int) map[string]any {
	return map[string]any{
		"records":        len(a),
		"bytes":          16 * len(a),
		"distinct_keys":  distinct,
		"heavy_fraction": distgen.HeavyFraction(a, heavyThreshold),
	}
}
