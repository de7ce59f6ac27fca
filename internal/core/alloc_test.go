package core

// Steady-state allocation contract of the pipeline-over-Workspace
// refactor: a warm Workspace at Procs == 1 executes the whole pipeline
// without allocating anything beyond the returned output slice (and
// nothing at all through SemisortShared). testing.AllocsPerRun pins
// GOMAXPROCS to 1, and parallel dispatch inherently allocates goroutine
// closures, so the zero-allocation contract is stated — and tested — for
// the serial dispatch path; TestSteadyStateAllocBytesParallel bounds the
// parallel path in bytes instead.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// allocDists pairs a heavy-duplication and a light (all-distinct)
// distribution, so both bucketOf paths and both Auto resolutions are
// covered.
func allocDists(n int) []diffDist {
	return []diffDist{
		{"heavy", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 7)},
		{"light", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 8)},
	}
}

// dovetailDists are inputs on which the planner takes the dovetail route:
// "heavy" puts a quarter of the records on four keys — sampled heavy
// keys, yet far below the counting threshold — so the split's heavy
// path runs; "light" has no heavy key.
func dovetailDists(n int) []diffDist {
	heavy := mkRecords(n, 0, 9)
	for i := 0; i < n; i += 4 {
		heavy[i].Key = uint64(i/4%4+1) * 0x9e3779b97f4a7c15
	}
	return []diffDist{
		{"heavy", heavy},
		{"light", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 10)},
	}
}

// allocRoutes is the placement dimension of the steady-state gates: the
// zero-value planner and the two pins on allocDists (the planner takes
// counting on the heavy input and the dovetail route on the light one),
// plus the planner on dovetailDists, named "dovetail" because every
// input there must take the dovetail route.
var allocRoutes = []struct {
	name  string
	strat ScatterStrategy
	dists func(n int) []diffDist
}{
	{"auto", ScatterAuto, allocDists},
	{"probing", ScatterProbing, allocDists},
	{"counting", ScatterCounting, allocDists},
	{"dovetail", ScatterAuto, dovetailDists},
}

// allocKinds is the Phase 4 kernel dimension of the steady-state gates:
// every kernel owns different arena buffers (naming table, label arrays,
// sub-bucket counts), so each must be exercised to pin the
// zero-allocation contract.
var allocKinds = []LocalSortKind{LocalSortHybrid, LocalSortCounting, LocalSortBucket}

// checkAllocRoute fails a "dovetail" subtest whose input did not take the
// dovetail route.
func checkAllocRoute(t *testing.T, route string, st Stats) {
	t.Helper()
	if route == "dovetail" && st.ScatterStrategy != "dovetail" {
		t.Fatalf("ScatterStrategy = %q, want dovetail", st.ScatterStrategy)
	}
}

func TestSteadyStateAllocsWS(t *testing.T) {
	const n = 60000
	for _, route := range allocRoutes {
		for _, kind := range allocKinds {
			for _, d := range route.dists(n) {
				t.Run(fmt.Sprintf("%s/%v/%s", route.name, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: route.strat, LocalSort: kind}
					ws := &Workspace{}
					for i := 0; i < 2; i++ { // warm the workspace
						_, st, err := SemisortWS(ws, d.data, cfg)
						if err != nil {
							t.Fatal(err)
						}
						checkAllocRoute(t, route.name, st)
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, _, err := SemisortWS(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					})
					// One allocation is the returned output slice; at most two
					// more are tolerated for incidental runtime effects.
					if allocs > 3 {
						t.Errorf("SemisortWS steady state: %.1f allocs/run, want <= 3 (1 output + <= 2)", allocs)
					}
				})
			}
		}
	}
}

func TestSteadyStateAllocsShared(t *testing.T) {
	const n = 60000
	for _, route := range allocRoutes {
		for _, kind := range allocKinds {
			for _, d := range route.dists(n) {
				t.Run(fmt.Sprintf("%s/%v/%s", route.name, kind, d.name), func(t *testing.T) {
					cfg := &Config{Procs: 1, Seed: 11, ScatterStrategy: route.strat, LocalSort: kind}
					ws := &Workspace{}
					for i := 0; i < 2; i++ {
						_, st, err := SemisortShared(ws, d.data, cfg)
						if err != nil {
							t.Fatal(err)
						}
						checkAllocRoute(t, route.name, st)
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, _, err := SemisortShared(ws, d.data, cfg); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > 2 {
						t.Errorf("SemisortShared steady state: %.1f allocs/run, want <= 2", allocs)
					}
				})
			}
		}
	}
}

// TestSteadyStateAllocBytesParallel gates the parallel paths the gates
// above cannot see: testing.AllocsPerRun pins GOMAXPROCS to 1. It reads
// runtime.MemStats around warm default-config SemisortShared calls at
// Procs == 2 on a uniform input large enough for the dovetail route's
// parallel radix pass, and holds the default to what the counting
// scatter allocates on the same input (goroutines and closures of the
// parallel passes) plus a small fixed slack.
func TestSteadyStateAllocBytesParallel(t *testing.T) {
	const (
		n     = 1 << 17
		calls = 5
		slack = 2 << 10
	)
	a := distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: n}, 21)
	bytesPerCall := func(strat ScatterStrategy) (uint64, string) {
		ws := &Workspace{}
		cfg := &Config{Procs: 2, Seed: 11, ScatterStrategy: strat}
		var st Stats
		for i := 0; i < 3; i++ { // warm the workspace
			var err error
			if _, st, err = SemisortShared(ws, a, cfg); err != nil {
				t.Fatal(err)
			}
		}
		// The minimum over a few rounds filters out allocations the
		// runtime makes on its own behalf.
		best := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < calls; i++ {
				if _, _, err := SemisortShared(ws, a, cfg); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			best = min(best, (m1.TotalAlloc-m0.TotalAlloc)/calls)
		}
		return best, st.ScatterStrategy
	}
	def, route := bytesPerCall(ScatterAuto)
	if route != "dovetail" {
		t.Fatalf("default resolved to %q on uniform keys, want dovetail", route)
	}
	counting, _ := bytesPerCall(ScatterCounting)
	t.Logf("bytes per warm call at Procs=2: default %d, counting %d", def, counting)
	if def > counting+slack {
		t.Errorf("default config allocates %d B per warm call, counting %d B: want at most %d B more",
			def, counting, slack)
	}
}

func TestSemisortInto(t *testing.T) {
	a := distgen.Generate(2, 20000, distgen.Spec{Kind: distgen.Zipfian, Param: 500}, 3)
	// Counting scatter: deterministic placement at any Procs, so the
	// in-place output can be compared record-for-record against want.
	cfg := &Config{Procs: 2, Seed: 9, ScatterStrategy: ScatterCounting}
	ws := &Workspace{}
	want, _, err := SemisortWS(ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Large enough dst: used in place.
	dst := make([]rec.Record, len(a))
	out, _, err := SemisortInto(ws, dst, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Error("SemisortInto did not write into the provided dst")
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SemisortInto output diverges at %d", i)
		}
	}

	// Too-small dst: a fresh slice is allocated.
	small := make([]rec.Record, len(a)/2)
	out, _, err = SemisortInto(ws, small, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(a) {
		t.Fatalf("len(out) = %d, want %d", len(out), len(a))
	}

	// dst aliasing the input must not be scribbled over while the scatter
	// reads the input; a fresh output is used instead.
	in := append([]rec.Record(nil), a...)
	out, _, err = SemisortInto(ws, in, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) > 0 && &out[0] == &in[0] {
		t.Error("SemisortInto used a dst that aliases the input")
	}
	for i := range in {
		if in[i] != a[i] {
			t.Fatalf("input was modified at index %d", i)
		}
	}
}

// TestSharedOutputFedBackAsInput: the documented SemisortShared pattern —
// the previous output becomes the next input — must detect the aliasing
// and produce a correct grouping anyway.
func TestSharedOutputFedBackAsInput(t *testing.T) {
	a := distgen.Generate(2, 20000, distgen.Spec{Kind: distgen.Zipfian, Param: 500}, 4)
	cfg := &Config{Procs: 2, Seed: 9, ScatterStrategy: ScatterCounting}
	ws := &Workspace{}
	out, _, err := SemisortShared(ws, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := rec.KeyCounts(out)
	out2, _, err := SemisortShared(ws, out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSemisorted(t, "fed-back", out, out2)
	got := rec.KeyCounts(out2)
	for k, c := range ref {
		if got[k] != c {
			t.Fatalf("key %#x: %d records, want %d", k, got[k], c)
		}
	}
}

// retainedRoutes are the warm-workspace shapes of the retention tests:
// an all-distinct input (the dovetail route's copy path, no bin-id
// column), the counting pin on a heavy input, and the dovetail route
// with heavy keys — the last two retain pass 1's bin-id column.
func retainedRoutes(n int) []struct {
	name  string
	strat ScatterStrategy
	data  []rec.Record
} {
	return []struct {
		name  string
		strat ScatterStrategy
		data  []rec.Record
	}{
		{"light", ScatterAuto, distgen.Generate(2, n, distgen.Spec{Kind: distgen.Uniform, Param: float64(n)}, 5)},
		{"counting", ScatterCounting, allocDists(n)[0].data},
		{"dovetail", ScatterAuto, dovetailDists(n)[0].data},
	}
}

// checkBidsRetained fails unless a warm counting- or dovetail-route
// workspace holds a bin-id column for every record and RetainedBytes
// counts its 4 bytes per entry.
func checkBidsRetained(t *testing.T, ws *Workspace, route string, n int) {
	t.Helper()
	if route == "light" {
		return
	}
	c := cap(ws.bids)
	if c < n {
		t.Fatalf("bin-id column holds %d entries, want >= %d", c, n)
	}
	before := ws.RetainedBytes()
	bids := ws.bids
	ws.bids = nil
	if got := before - ws.RetainedBytes(); got != 4*int64(c) {
		t.Errorf("RetainedBytes counts %d bytes for the bin-id column, want %d", got, 4*c)
	}
	ws.bids = bids
}

func TestWorkspaceRelease(t *testing.T) {
	const n = 30000
	for _, r := range retainedRoutes(n) {
		t.Run(r.name, func(t *testing.T) {
			cfg := &Config{Procs: 2, ScatterStrategy: r.strat}
			ws := &Workspace{}
			_, st, err := SemisortShared(ws, r.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAllocRoute(t, r.name, st)
			if ws.RetainedBytes() == 0 {
				t.Fatal("warm workspace reports zero retained bytes")
			}
			checkBidsRetained(t, ws, r.name, n)
			checkHeavyDirRetained(t, ws, r.name, st.HeavyKeys)
			ws.Release()
			if got := ws.RetainedBytes(); got != 0 {
				t.Fatalf("RetainedBytes() = %d after Release, want 0", got)
			}
			// The workspace must remain usable.
			out, _, err := SemisortWS(ws, r.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSemisorted(t, "post-release", r.data, out)
		})
	}
}

func TestMaxRetainedBytes(t *testing.T) {
	const n = 30000
	for _, r := range retainedRoutes(n) {
		t.Run(r.name, func(t *testing.T) {
			ws := &Workspace{}
			cfg := func(max int64) *Config {
				return &Config{Procs: 2, ScatterStrategy: r.strat, MaxRetainedBytes: max}
			}

			// An unreachable cap drops everything.
			if _, _, err := SemisortWS(ws, r.data, cfg(1)); err != nil {
				t.Fatal(err)
			}
			if got := ws.RetainedBytes(); got != 0 {
				t.Fatalf("RetainedBytes() = %d under cap 1, want 0", got)
			}

			// A generous cap must be respected while still retaining something.
			const capBytes = 1 << 20
			if _, _, err := SemisortWS(ws, r.data, cfg(capBytes)); err != nil {
				t.Fatal(err)
			}
			got := ws.RetainedBytes()
			if got > capBytes {
				t.Fatalf("RetainedBytes() = %d, exceeds cap %d", got, capBytes)
			}
			if got == 0 {
				t.Error("cap dropped everything; expected partial retention")
			}

			// No cap: retention unconstrained and reused next call.
			_, st, err := SemisortWS(ws, r.data, cfg(0))
			if err != nil {
				t.Fatal(err)
			}
			checkAllocRoute(t, r.name, st)
			if ws.RetainedBytes() == 0 {
				t.Error("uncapped workspace retained nothing")
			}
			checkBidsRetained(t, ws, r.name, n)
			checkHeavyDirRetained(t, ws, r.name, st.HeavyKeys)
		})
	}
}

// checkHeavyDirRetained fails unless a warm workspace that classified
// against heavy keys holds the heavy directory — cells, keys and
// ids sized for them — and RetainedBytes counts all three arrays. A
// call without heavy keys must not have built the directory at all.
func checkHeavyDirRetained(t *testing.T, ws *Workspace, route string, heavy int) {
	t.Helper()
	if heavy == 0 {
		if cap(ws.hdir)+cap(ws.hkeys)+cap(ws.hids) != 0 {
			t.Fatalf("%s: no heavy keys, yet the workspace holds a heavy directory", route)
		}
		return
	}
	if c := cap(ws.hdir); c < 1<<heavyDirBits(heavy) {
		t.Fatalf("%s: heavy directory holds %d cells, want >= %d", route, c, 1<<heavyDirBits(heavy))
	}
	if cap(ws.hkeys) < heavy || cap(ws.hids) < heavy {
		t.Fatalf("%s: heavy keys/ids hold %d/%d entries, want >= %d", route, cap(ws.hkeys), cap(ws.hids), heavy)
	}
	want := 4*int64(cap(ws.hdir)) + 8*int64(cap(ws.hkeys)) + 4*int64(cap(ws.hids))
	before := ws.RetainedBytes()
	hdir, hkeys, hids := ws.hdir, ws.hkeys, ws.hids
	ws.hdir, ws.hkeys, ws.hids = nil, nil, nil
	if got := before - ws.RetainedBytes(); got != want {
		t.Errorf("%s: RetainedBytes counts %d bytes for the heavy directory, want %d", route, got, want)
	}
	ws.hdir, ws.hkeys, ws.hids = hdir, hkeys, hids
}

// TestBoostMapRetained: the retry ladder's per-bucket boost map is
// workspace-owned — armed retries reuse one cleared map instead of
// allocating a fresh one per overflowing call.
func TestBoostMapRetained(t *testing.T) {
	ws := &Workspace{}
	m1 := ws.getBoost()
	m1[3] = 4
	m1[9] = 16
	m2 := ws.getBoost()
	if len(m2) != 0 {
		t.Fatalf("getBoost returned a non-empty map: %v", m2)
	}
	m2[1] = 2
	if len(m1) != 1 {
		t.Fatal("getBoost did not return the retained map")
	}
}
