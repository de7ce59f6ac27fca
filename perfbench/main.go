// Command perfbench is the repository's benchmark: four seeded, closed-loop
// workloads that drive the public entry points of the library (semisort),
// the resident service (server) and the out-of-core shuffle (external),
// check every output, and print end-to-end metrics or, in a traced run,
// per-layer metrics. See README.md in this directory.
//
//	bash perfbench/run.sh --workload lib-unique --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 93, "failed": 0, "metrics": {...}}
//
// A wrong output ends the run with exit status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"
)

// procStart is the process's start, from which the first set-up is timed.
var procStart = time.Now()

// errWrong marks a verification failure: the program produced a wrong
// output. It ends the run; it is never counted as a failed op.
var errWrong = errors.New("wrong output")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// A workload drives one entry point of the program in a closed loop.
type workload interface {
	// setup generates the inputs from seed and brings the program under
	// test to its warm state; every output it produces is checked.
	setup(seed uint64, r *runner) error
	// run drives the loop for r.seconds.
	run(r *runner) error
	// meta describes the inputs and the program's resolved choices.
	meta() map[string]any
	// close stops everything setup started and waits for it.
	close() error
}

// sizes are the workload input sizes; tests shrink them.
type sizes struct {
	lib        int // records per library call
	service    int // records per request body
	bodies     int // distinct request bodies
	shuffle    int // records per shuffle
	partitions int // shuffle partitions
}

var fullSizes = sizes{lib: 1 << 20, service: 100_000, bodies: 8, shuffle: 1 << 19, partitions: 8}

func (s sizes) scaled(shift uint) sizes {
	return sizes{lib: s.lib >> shift, service: s.service >> shift, bodies: s.bodies,
		shuffle: s.shuffle >> shift, partitions: s.partitions}
}

// workloadNames lists the workloads in the order the README gives them.
var workloadNames = []string{"lib-unique", "lib-skew", "service", "shuffle"}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "lib-unique":
		return newLibUnique(sz.lib), nil
	case "lib-skew":
		return newLibSkew(sz.lib), nil
	case "service":
		return newService(sz.service, sz.bodies), nil
	case "shuffle":
		return newShuffle(sz.shuffle, sz.partitions), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// endToEndNames are the metrics an untraced run reports on its last line,
// as BENCHMARK.json lists them: the ones that stay steady from run to run
// on a shared host. The rest of endToEnd's figures are printed above it.
var endToEndNames = []string{"setup_s", "cpu_ns_per_rec", "adj_op_p50_ms", "alloc_bytes_per_rec", "peak_heap_mb", "ok_frac"}

// opSample is one op of the measured loop.
type opSample struct {
	mode    int // 0 untraced, 1 traced
	dur     time.Duration
	cpu     time.Duration // process CPU time during the op (single caller only)
	records int
	failed  bool
	win     int // index of the window an untraced op belongs to
}

// windowLen is the length of the windows the untraced loop is cut into:
// throughput and CPU cost are medians over windows, so that a burst of
// host contention moves one window rather than the whole figure.
const windowLen = time.Second

// window is what one window of the untraced loop completed.
type window struct {
	records int64
	busy    time.Duration // timed time in the window
	cpu     time.Duration // process CPU time of the window's ops
	steal   float64       // share of the machine's CPU time stolen during the window
	partial bool          // closed by the end of the loop before windowLen
}

// runner measures one workload. In a traced run it alternates untraced
// (mode 0) and traced (mode 1) ops, so that both see the same host.
type runner struct {
	seconds time.Duration
	tr      *tracer       // nil in an untraced run
	obs     *coreObserver // nil in an untraced run

	mu        sync.Mutex
	ops       []opSample
	busy      [2]time.Duration // timed window per mode
	records   [2]int64
	inflight  [2]int
	busyStart [2]time.Time
	// concurrent is set for workloads whose ops overlap: their windows
	// take busy and CPU time from the clock and the process as a whole.
	concurrent bool
	win        window // the open window
	winStart   time.Time
	winCPU     time.Duration // process CPU time when the open window began
	winHost    hostCPU       // machine CPU time when the open window began
	wins       []window
	gcCycles   [2]uint32
	gcPause    [2]time.Duration
	vals       map[int]map[string]float64 // per traced op id
}

func newRunner(seconds time.Duration, traced bool) *runner {
	r := &runner{seconds: seconds, vals: make(map[int]map[string]float64)}
	if traced {
		r.tr = newTracer()
		r.obs = &coreObserver{t: r.tr}
	}
	return r
}

func (r *runner) tracing() bool { return r.tr != nil }

// begin marks an op of the given mode as started; the mode's timed window
// runs while at least one of its ops is in flight, so time a client spends
// checking a response while nothing else is outstanding is not counted.
func (r *runner) begin(mode int, t time.Time) {
	r.mu.Lock()
	if r.inflight[mode] == 0 {
		r.busyStart[mode] = t
	}
	r.inflight[mode]++
	r.mu.Unlock()
}

// end records a finished op begun with begin.
func (r *runner) end(t time.Time, s opSample) {
	r.mu.Lock()
	r.inflight[s.mode]--
	if r.inflight[s.mode] == 0 {
		r.busy[s.mode] += t.Sub(r.busyStart[s.mode])
	}
	if !s.failed {
		r.records[s.mode] += int64(s.records)
	}
	if s.mode == 0 {
		s.win = len(r.wins)
		r.addToWindow(t, s)
	}
	r.ops = append(r.ops, s)
	r.mu.Unlock()
}

// addToWindow adds an untraced op ending at t to the open window and
// closes the window once windowLen has passed since it began.
func (r *runner) addToWindow(t time.Time, s opSample) {
	if !s.failed {
		r.win.records += int64(s.records)
	}
	if !r.concurrent {
		r.win.busy += s.dur
		r.win.cpu += s.cpu
	}
	if t.Sub(r.winStart) >= windowLen {
		r.closeWindow(t, false)
	}
}

// openWindow starts the first window at t.
func (r *runner) openWindow(t time.Time) {
	r.mu.Lock()
	r.winStart, r.winCPU, r.winHost = t, procCPU(), readHostCPU()
	r.mu.Unlock()
}

// closeWindow closes the open window at t and opens the next.
func (r *runner) closeWindow(t time.Time, partial bool) {
	h := readHostCPU()
	if r.concurrent {
		c := procCPU()
		r.win.busy, r.win.cpu = t.Sub(r.winStart), c-r.winCPU
		r.winCPU = c
	}
	r.win.steal, r.win.partial = stealFrac(r.winHost, h), partial
	r.wins = append(r.wins, r.win)
	r.win, r.winStart, r.winHost = window{}, t, h
}

// flushWindow closes the last, partial window at the end of the loop.
func (r *runner) flushWindow() {
	r.mu.Lock()
	if r.win.records > 0 || r.win.busy > 0 {
		r.closeWindow(time.Now(), true)
	}
	r.mu.Unlock()
}

// addGC attributes the collections between two snapshots to mode.
func (r *runner) addGC(mode int, a, b *runtime.MemStats) {
	r.mu.Lock()
	r.gcCycles[mode] += b.NumGC - a.NumGC
	r.gcPause[mode] += time.Duration(b.PauseTotalNs - a.PauseTotalNs)
	r.mu.Unlock()
}

// setVal records a per-layer value of a traced op.
func (r *runner) setVal(op int, key string, v float64) {
	r.mu.Lock()
	m := r.vals[op]
	if m == nil {
		m = make(map[string]float64)
		r.vals[op] = m
	}
	m[key] = v
	r.mu.Unlock()
}

// opSpan is the root span of one traced op, through which the workload
// records the op's layers.
type opSpan struct {
	r  *runner
	op int
	id int
}

// startOp opens the root span of a traced op; nil when untraced.
func (r *runner) startOp(traced bool, name string) *opSpan {
	if !traced {
		return nil
	}
	op := r.tr.newOp()
	now := r.tr.now()
	return &opSpan{r: r, op: op, id: r.tr.add(span{Op: op, Name: name, Start: now, End: now})}
}

// child records a child span of the op between two instants and returns
// its id.
func (s *opSpan) child(name string, from, to time.Time) int {
	ep := s.r.tr.epoch
	return s.r.tr.add(span{Op: s.op, Parent: s.id, Name: name, Start: from.Sub(ep), End: to.Sub(ep)})
}

func (s *opSpan) finish() {
	end := s.r.tr.now()
	s.r.tr.update(s.id, func(x *span) { x.End = end })
}

func (s *opSpan) set(key string, v float64) { s.r.setVal(s.op, key, v) }

// serial drives a single caller until its ops have taken r.seconds: do
// runs op i (timed), check verifies its output (untimed). In a traced run ops alternate in pairs, two untraced
// then two traced, so that both modes see every op kind of a workload
// that alternates two; the collections during each op are attributed to
// its mode.
func (r *runner) serial(do func(i int, traced bool) (records int, err error), check func(i int) error) error {
	var ms0, ms1 runtime.MemStats
	var spent time.Duration
	r.openWindow(time.Now())
	defer r.flushWindow()
	for i := 0; spent < r.seconds; i++ {
		mode := 0
		if r.tracing() {
			mode = i / 2 % 2
			runtime.ReadMemStats(&ms0)
		}
		c0, t0 := procCPU(), time.Now()
		r.begin(mode, t0)
		n, err := do(i, mode == 1)
		t1, c1 := time.Now(), procCPU()
		spent += t1.Sub(t0)
		r.end(t1, opSample{mode: mode, dur: t1.Sub(t0), cpu: c1 - c0, records: n, failed: err != nil})
		if r.tracing() {
			runtime.ReadMemStats(&ms1)
			r.addGC(mode, &ms0, &ms1)
		}
		if err != nil {
			if errors.Is(err, errWrong) {
				return err
			}
			continue
		}
		if err := check(i); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler samples the heap every 2 ms while it runs and keeps the
// highest value of each second.
type heapSampler struct {
	stop chan struct{}
	done chan heapPeak
}

// heapPeak is what a heapSampler saw: for each whole second, the highest
// live heap (what the last collection found reachable), in bytes; and the
// sample count.
type heapPeak struct {
	live    []float64
	samples int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan heapPeak)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak heapPeak
		var live uint64
		next := time.Now().Add(time.Second)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			live = max(live, s[0].Value.Uint64())
			peak.samples++
			if now := time.Now(); !now.Before(next) {
				peak.live = append(peak.live, float64(live))
				live, next = 0, next.Add(time.Second)
			}
			select {
			case <-h.stop:
				if len(peak.live) == 0 {
					peak.live = []float64{float64(live)}
				}
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() heapPeak {
	close(h.stop)
	return <-h.done
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	setups   int  // set-ups per untraced run; setup_s is their median
	scale    uint // divide every input size by 2^scale (self-tests)
	out      string
}

func main() {
	o := options{setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload: lib-unique, lib-skew, service or shuffle")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured loop in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.StringVar(&o.out, "out", ".", "directory for the trace file")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res != nil {
			printResult(os.Stdout, res)
		}
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

func printResult(w io.Writer, res *result) {
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// run performs one benchmark run and returns its result. A verification
// failure returns a result with Correct false and an error.
func run(o options, log io.Writer) (*result, error) {
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sz := fullSizes.scaled(o.scale)
	traced := o.trace == 1
	r := newRunner(time.Duration(o.seconds*float64(time.Second)), traced)

	// Set up several times from scratch and keep the last: setup_s is
	// the median, the first one counted from process start.
	setups := max(o.setups, 1)
	if traced {
		setups = 1
	}
	var w workload
	var setupS, setupWall []float64
	for k := 0; k < setups; k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		t0, c0 := time.Now(), procCPU()
		if k == 0 {
			t0, c0 = procStart, 0
		}
		var err error
		if w, err = newWorkload(o.workload, sz); err != nil {
			return nil, err
		}
		if err := w.setup(o.seed, r); err != nil {
			w.close()
			return failedResult(err), err
		}
		setupS = append(setupS, (procCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer w.close() // close is idempotent; the success path checks its error below
	printMeta(log, o, w)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := startHeapSampler()
	host0, wall0 := readHostCPU(), time.Now()
	runErr := w.run(r)
	host1, wall := readHostCPU(), time.Since(wall0)
	peak := heap.finish()
	runtime.ReadMemStats(&m1)
	if runErr != nil {
		return failedResult(runErr), runErr
	}
	if err := w.close(); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all, counts := map[string]metric{}, map[string]int{}
	for _, s := range r.ops {
		res.Attempted++
		if s.failed {
			res.Failed++
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no op completed in %v", r.seconds)
	}
	if traced {
		layerMetrics(r, all, counts)
		res.Metrics = all
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# trace written to %s\n", path)
	} else {
		endToEnd(r, setupS, setupWall, m1.TotalAlloc-m0.TotalAlloc, peak, all, counts)
		for _, k := range endToEndNames {
			res.Metrics[k] = all[k]
		}
	}
	printTable(log, o.workload, res, all, counts)
	if !traced {
		printWindows(log, r)
	}
	fmt.Fprintf(log, "# host: loop wall %.3f s, steal %.4f of the machine's cpu time\n",
		wall.Seconds(), stealFrac(host0, host1))
	if traced {
		printChecks(log, all)
	}
	return res, nil
}

func failedResult(err error) *result {
	if !errors.Is(err, errWrong) {
		return nil
	}
	return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
}

// latencies returns the durations, in ms, of the successful ops of mode.
func latencies(r *runner, mode int) []float64 {
	var out []float64
	for _, s := range r.ops {
		if s.mode == mode && !s.failed {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// stealFrac is the share of the machine's CPU time between two snapshots
// that the hypervisor gave to other machines.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// endToEnd computes the untraced run's metrics and the number of samples
// each rests on.
func endToEnd(r *runner, setupS, setupWall []float64, alloc uint64, peak heapPeak, m map[string]metric, n map[string]int) {
	// Full windows only, unless the loop was shorter than one window.
	var full []window
	for _, w := range r.wins {
		if !w.partial && w.records > 0 && w.busy > 0 {
			full = append(full, w)
		}
	}
	if len(full) == 0 {
		for _, w := range r.wins {
			if w.records > 0 && w.busy > 0 {
				full = append(full, w)
			}
		}
	}
	var tput, adjTput, cpu, steal []float64
	for _, w := range full {
		t := float64(w.records) / w.busy.Seconds() / 1e6
		tput = append(tput, t)
		adjTput = append(adjTput, t/(1-w.steal))
		cpu = append(cpu, float64(w.cpu)/float64(w.records))
		steal = append(steal, w.steal)
	}
	var lat, adjLat []float64
	for _, s := range r.ops {
		if s.mode == 0 && !s.failed {
			lat = append(lat, ms(s.dur))
			adjLat = append(adjLat, ms(s.dur)*(1-r.wins[s.win].steal))
		}
	}
	ok := float64(len(lat)) / float64(len(r.ops))
	set := func(name string, v float64, unit string, samples int) {
		m[name] = metric{v, unit}
		n[name] = samples
	}
	set("setup_s", median(setupS), "s", len(setupS))
	set("setup_wall_s", median(setupWall), "s", len(setupWall))
	set("cpu_ns_per_rec", median(cpu), "ns/rec", len(cpu))
	set("adj_throughput_mrec_s", median(adjTput), "Mrec/s", len(adjTput))
	set("adj_op_p50_ms", median(adjLat), "ms", len(adjLat))
	set("throughput_mrec_s", median(tput), "Mrec/s", len(tput))
	set("op_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	set("op_p90_ms", quantile(lat, 0.9), "ms", len(lat))
	set("steal_frac", median(steal), "frac", len(steal))
	set("ok_frac", ok, "frac", len(r.ops))
	set("failed_frac", 1-ok, "frac", len(r.ops))
	set("alloc_bytes_per_rec", float64(alloc)/float64(max(r.records[0], 1)), "B/rec", len(lat))
	set("peak_heap_mb", median(peak.live)/(1<<20), "MiB", peak.samples)
}

// printTable prints every metric with its unit and sample count; those
// on the result line are marked with a star.
func printTable(w io.Writer, name string, res *result, all map[string]metric, counts map[string]int) {
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s: %d ops attempted, %d failed (failed_frac %.4f)\n",
		name, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, k := range keys {
		star := " "
		if _, ok := res.Metrics[k]; ok {
			star = "*"
		}
		fmt.Fprintf(w, "#%s %-30s %14.6g %-7s n=%d\n", star, k, all[k].Value, all[k].Unit, counts[k])
	}
}

// printWindows prints each window's throughput, CPU cost and steal, to
// show how steady the host was during the run.
func printWindows(w io.Writer, r *runner) {
	fmt.Fprintf(w, "# windows (Mrec/s, ns/rec, steal):")
	for _, x := range r.wins {
		if x.records > 0 && x.busy > 0 {
			fmt.Fprintf(w, " %.2f/%.0f/%.2f", float64(x.records)/x.busy.Seconds()/1e6, float64(x.cpu)/float64(x.records), x.steal)
		}
	}
	fmt.Fprintln(w)
}

// printChecks prints the traced run's consistency checks: for library
// calls, the core phases plus the time outside them against the traced
// ops' median; for the service, the server's parts against its total.
func printChecks(w io.Writer, m map[string]metric) {
	v := func(k string) float64 { return m[k].Value }
	if v("core.unattributed_ms") > 0 {
		core := v("core.sample_ms") + v("core.buckets_ms") + v("core.scatter_ms") + v("core.localsort_ms") +
			v("core.reduce_ms") + v("core.pack_ms") + v("core.unattributed_ms")
		fmt.Fprintf(w, "# check: core phases + unattributed = %.3f ms; traced op p50 = %.3f ms\n", core, v("trace.op_p50_ms"))
	}
	if v("server.total_ms") > 0 {
		fmt.Fprintf(w, "# check: server queue_wait + sort + nonsort = %.3f ms; server total = %.3f ms\n",
			v("server.queue_wait_ms")+v("server.sort_ms")+v("server.nonsort_ms"), v("server.total_ms"))
	}
}

func printMeta(w io.Writer, o options, wl workload) {
	meta := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"caches":     cacheSizes(),
		"trace":      o.trace,
	}
	for k, v := range wl.meta() {
		meta[k] = v
	}
	b, _ := json.Marshal(meta)
	fmt.Fprintf(w, "# meta %s\n", b)
}
