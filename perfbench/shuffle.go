package main

import (
	"os"
	"time"

	semisort "repro"
	"repro/external"
	"repro/internal/distgen"
)

// shuffleInputs is the number of inputs a shuffle run cycles through.
// Where the heaviest Zipfian keys land decides how unequal the partitions
// are, so one input per run would make the figures depend on the seed.
const shuffleInputs = 16

// shuffleWorkload runs whole out-of-core shuffles: each op creates a
// Shuffler, adds an input with AddBatch and consumes every group with
// ForEachGroup. The consumer copies each group into a preallocated
// buffer, checked after the op.
type shuffleWorkload struct {
	n, parts int

	in     [shuffleInputs][]semisort.Record
	ref    [shuffleInputs]sortRef
	cur    int // input of the last op
	out    []semisort.Record
	starts []int
	keys   []uint64
	strat  map[string]int
	spill  string
}

func newShuffle(n, parts int) *shuffleWorkload { return &shuffleWorkload{n: n, parts: parts} }

func (w *shuffleWorkload) config(obs semisort.Observer) *external.Config {
	cfg := &external.Config{Partitions: w.parts, Semisort: baseConfig()}
	cfg.Semisort.Observer = obs
	return cfg
}

func (w *shuffleWorkload) setup(seed uint64, r *runner) error {
	distinct := 0
	for k := range w.in {
		w.in[k] = distgen.Generate(2, w.n, distgen.Spec{Kind: distgen.Zipfian, Param: float64(w.n)}, seed*1000+uint64(k))
		w.ref[k], _ = references(w.in[k])
		distinct = max(distinct, w.ref[k].distinct)
	}
	w.out = make([]semisort.Record, 0, w.n)
	w.starts = make([]int, 0, distinct)
	w.keys = make([]uint64, 0, distinct)
	w.spill = os.TempDir()
	// Two warm-up ops; the first also records the strategies.
	so := &strategyObserver{seen: map[string]int{}}
	for k := range 2 {
		var obs semisort.Observer
		if k == 0 {
			obs = so
		}
		if _, _, err := w.shuffle(k, w.config(obs)); err != nil {
			return err
		}
		if err := w.check(-1); err != nil {
			return err
		}
	}
	w.strat = so.seen
	return nil
}

// shuffle runs one shuffle of the given input and returns its statistics and the instants
// at which it started, created the Shuffler, ingested and emitted.
func (w *shuffleWorkload) shuffle(input int, cfg *external.Config) ([4]time.Time, external.ShuffleStats, error) {
	var at [4]time.Time
	at[0] = time.Now()
	w.cur = input
	w.out, w.starts, w.keys = w.out[:0], w.starts[:0], w.keys[:0]
	sh, err := external.NewShuffler(cfg)
	if err != nil {
		return at, external.ShuffleStats{}, err
	}
	at[1] = time.Now()
	if err := sh.AddBatch(w.in[input]); err != nil {
		sh.Close()
		return at, external.ShuffleStats{}, err
	}
	at[2] = time.Now()
	err = sh.ForEachGroup(w.consume)
	at[3] = time.Now()
	return at, sh.Stats(), err
}

func (w *shuffleWorkload) consume(key uint64, g []semisort.Record) error {
	if len(w.out)+len(g) > cap(w.out) || len(w.starts) == cap(w.starts) {
		return wrong("shuffle emitted more records or groups than were added")
	}
	w.starts = append(w.starts, len(w.out))
	w.keys = append(w.keys, key)
	w.out = append(w.out, g...)
	return nil
}

func (w *shuffleWorkload) run(r *runner) error {
	return r.serial(func(i int, traced bool) (int, error) {
		sp := r.startOp(traced, "external.shuffle")
		if sp == nil {
			_, _, err := w.shuffle(i%shuffleInputs, w.config(nil))
			return w.n, err
		}
		// The emit span must exist while ForEachGroup runs, so that the
		// seal, prefetch and partition-sort spans nest under it; its
		// interval is filled in once the stages are timed.
		now := time.Now()
		emit := sp.child("external.emit", now, now)
		r.obs.setParent(sp.op, emit)
		at, st, err := w.shuffle(i%shuffleInputs, w.config(r.obs))
		sp.finish()
		r.obs.takeGroups()
		if err != nil {
			return w.n, err
		}
		sp.child("external.open", at[0], at[1])
		sp.child("external.ingest", at[1], at[2])
		r.tr.update(emit, func(x *span) { x.Start, x.End = at[2].Sub(r.tr.epoch), at[3].Sub(r.tr.epoch) })
		sp.set("core.retries", float64(st.Retries))
		sp.set("core.fallbacks", float64(st.Fallbacks))
		sp.set("parallel.chunks", float64(st.Sched.ChunksClaimed))
		sp.set("parallel.steals", float64(st.Sched.Steals))
		sp.set("external.spill_stalls", float64(st.SpillStalls))
		sp.set("external.prefetch_stalls", float64(st.PrefetchStalls))
		sp.set("external.spill_bytes_per_rec", float64(st.SpillBytes)/float64(w.n))
		if st.SpillBytes > 0 {
			sp.set("external.reread_ratio", float64(st.BytesRead)/float64(st.SpillBytes))
		}
		return w.n, nil
	}, w.check)
}

func (w *shuffleWorkload) check(i int) error {
	if err := checkGroups(w.out, w.starts, w.keys, w.ref[w.cur]); err != nil {
		return wrong("shuffle op %d: %v", i, err)
	}
	return nil
}

func (w *shuffleWorkload) meta() map[string]any {
	return map[string]any{
		"input":            inputMeta(w.in[0], w.ref[0].distinct),
		"inputs":           shuffleInputs,
		"partitions":       w.parts,
		"spill_dir":        w.spill,
		"spill_fs":         fsType(w.spill),
		"scatter_strategy": w.strat,
		"ops":              "NewShuffler + AddBatch + ForEachGroup",
	}
}

func (w *shuffleWorkload) close() error { return nil }

// strategyObserver records which scatter strategies the semisort resolved
// to, counting scatter spans per strategy.
type strategyObserver struct {
	seen map[string]int
}

func (s *strategyObserver) AttemptStart(semisort.Attempt)  {}
func (s *strategyObserver) PhaseStart(int, semisort.Phase) {}
func (s *strategyObserver) AttemptEnd(semisort.AttemptEnd) {}
func (s *strategyObserver) PhaseEnd(sp semisort.Span) {
	if sp.Phase == semisort.PhaseScatter {
		s.seen[sp.Strategy]++
	}
}
