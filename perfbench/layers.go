package main

import "time"

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit string
	calc       func(a *layerAgg) float64
}

// layerAgg holds what the traced ops recorded: their spans, grouped by
// op, and their per-op values.
type layerAgg struct {
	r     *runner
	ops   map[int][]span
	self  map[int]time.Duration
	nOps  int // traced ops
	tputs [2]float64
}

// spanMs is the median over traced ops of the summed duration of the
// op's spans named in names; ops without such a span do not count.
func (a *layerAgg) spanMs(names ...string) float64 {
	var xs []float64
	for _, spans := range a.ops {
		var d time.Duration
		found := false
		for _, s := range spans {
			for _, n := range names {
				if s.Name == n {
					d += s.dur()
					found = true
				}
			}
		}
		if found {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

// unattributedMs is the median over library ops of the time the call
// spent outside any semisort phase: the self time of the op span and of
// its attempt spans.
func (a *layerAgg) unattributedMs() float64 {
	var xs []float64
	for _, spans := range a.ops {
		var d time.Duration
		lib := false
		for _, s := range spans {
			switch {
			case s.Parent == 0 && (s.Name == "lib.sort" || s.Name == "lib.reduce"):
				lib = true
				d += a.self[s.ID]
			case s.Name == "core.attempt":
				d += a.self[s.ID]
			}
		}
		if lib {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

// valMedian is the median over traced ops of a per-op value; ops that did
// not record it do not count.
func (a *layerAgg) valMedian(key string) float64 {
	var xs []float64
	for _, m := range a.r.vals {
		if v, ok := m[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// valPerOp is a per-op value summed over the traced ops that recorded it,
// divided by the number of those ops.
func (a *layerAgg) valPerOp(key string) float64 {
	var sum float64
	n := 0
	for _, m := range a.r.vals {
		if v, ok := m[key]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (a *layerAgg) gcPerOp(pause bool) float64 {
	if a.nOps == 0 {
		return 0
	}
	if pause {
		return ms(a.r.gcPause[1]) / float64(a.nOps)
	}
	return float64(a.r.gcCycles[1]) / float64(a.nOps)
}

// layerDefs is the per-layer metric catalogue, in the order of README.md.
var layerDefs = []layerDef{
	{"core.sample_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.sample") }},
	{"core.sample_rounds", "count", func(a *layerAgg) float64 { return a.valMedian("core.sample_rounds") }},
	{"core.buckets_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.classify", "core.allocate") }},
	{"core.scatter_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.scatter") }},
	{"core.localsort_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.localsort") }},
	{"core.reduce_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.reduce") }},
	{"core.pack_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("core.pack") }},
	{"core.unattributed_ms", "ms", func(a *layerAgg) float64 { return a.unattributedMs() }},
	{"core.heavy_keys", "count", func(a *layerAgg) float64 { return a.valMedian("core.heavy_keys") }},
	{"core.flushes_per_rec", "1/rec", func(a *layerAgg) float64 { return a.valMedian("core.flushes_per_rec") }},
	{"core.max_probe_cluster", "count", func(a *layerAgg) float64 { return a.valMedian("core.max_probe_cluster") }},
	{"core.slots_per_rec", "1/rec", func(a *layerAgg) float64 { return a.valMedian("core.slots_per_rec") }},
	{"core.retries_per_op", "1/op", func(a *layerAgg) float64 { return a.valPerOp("core.retries") }},
	{"core.fallbacks_per_op", "1/op", func(a *layerAgg) float64 { return a.valPerOp("core.fallbacks") }},
	{"parallel.chunks_per_op", "1/op", func(a *layerAgg) float64 { return a.valPerOp("parallel.chunks") }},
	{"parallel.steals_per_op", "1/op", func(a *layerAgg) float64 { return a.valPerOp("parallel.steals") }},
	{"server.total_ms", "ms", func(a *layerAgg) float64 { return a.valMedian("server.total_ms") }},
	{"server.queue_wait_ms", "ms", func(a *layerAgg) float64 { return a.valMedian("server.queue_wait_ms") }},
	{"server.sort_ms", "ms", func(a *layerAgg) float64 { return a.valMedian("server.sort_ms") }},
	{"server.nonsort_ms", "ms", func(a *layerAgg) float64 { return a.valMedian("server.nonsort_ms") }},
	{"server.nonsort_share", "frac", func(a *layerAgg) float64 { return a.valMedian("server.nonsort_share") }},
	{"http.transport_ms", "ms", func(a *layerAgg) float64 { return a.valMedian("http.transport_ms") }},
	{"external.ingest_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("external.ingest") }},
	{"external.emit_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("external.emit") }},
	{"external.seal_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("external.seal") }},
	{"external.prefetch_wait_ms", "ms", func(a *layerAgg) float64 { return a.spanMs("external.prefetch_wait") }},
	{"external.partition_sort_ms", "ms", func(a *layerAgg) float64 { return a.shuffleSortMs() }},
	{"external.spill_stalls", "1/op", func(a *layerAgg) float64 { return a.valPerOp("external.spill_stalls") }},
	{"external.prefetch_stalls", "1/op", func(a *layerAgg) float64 { return a.valPerOp("external.prefetch_stalls") }},
	{"external.spill_bytes_per_rec", "B/rec", func(a *layerAgg) float64 { return a.valMedian("external.spill_bytes_per_rec") }},
	{"external.reread_ratio", "ratio", func(a *layerAgg) float64 { return a.valMedian("external.reread_ratio") }},
	{"runtime.gc_cycles_per_op", "1/op", func(a *layerAgg) float64 { return a.gcPerOp(false) }},
	{"runtime.gc_pause_ms_per_op", "ms", func(a *layerAgg) float64 { return a.gcPerOp(true) }},
	{"trace.op_p50_ms", "ms", func(a *layerAgg) float64 { return median(latencies(a.r, 1)) }},
	{"trace.overhead_frac", "frac", func(a *layerAgg) float64 {
		if a.tputs[0] == 0 {
			return 0
		}
		return 1 - a.tputs[1]/a.tputs[0]
	}},
}

// shuffleSortMs is the median over shuffle ops of the time spent in
// partition semisorts (the attempt spans under the emit span).
func (a *layerAgg) shuffleSortMs() float64 {
	var xs []float64
	for _, spans := range a.ops {
		if len(spans) == 0 || !hasRoot(spans, "external.shuffle") {
			continue
		}
		var d time.Duration
		for _, s := range spans {
			if s.Name == "core.attempt" {
				d += s.dur()
			}
		}
		xs = append(xs, ms(d))
	}
	return median(xs)
}

func hasRoot(spans []span, name string) bool {
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			return true
		}
	}
	return false
}

// layerMetrics computes every per-layer metric of a traced run, and the
// traced op count each rests on; a layer the workload does not exercise
// reads 0.
func layerMetrics(r *runner, m map[string]metric, n map[string]int) {
	a := &layerAgg{r: r, ops: r.tr.byOp()}
	delete(a.ops, 0)
	var all []span
	for _, s := range a.ops {
		all = append(all, s...)
	}
	a.self = selfTimes(all)
	for _, s := range r.ops {
		if s.mode == 1 {
			a.nOps++
		}
	}
	for mode := range a.tputs {
		if r.busy[mode] > 0 {
			a.tputs[mode] = float64(r.records[mode]) / r.busy[mode].Seconds() / 1e6
		}
	}
	for _, d := range layerDefs {
		m[d.name] = metric{d.calc(a), d.unit}
		n[d.name] = a.nOps
	}
}
