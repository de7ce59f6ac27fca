package main

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/distgen"
)

// Every workload runs, untraced and traced, at a small size, checks its
// outputs and reports every metric BENCHMARK.json names.
func TestWorkloadsSmall(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the shuffle spills under os.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []int{0, 1} {
			o := options{workload: name, seed: 7, seconds: 0.3, trace: trace, setups: 2, scale: 6, out: t.TempDir()}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndNames
			if trace == 1 {
				want = nil
				for _, d := range layerDefs {
					want = append(want, d.name)
				}
			}
			for _, k := range want {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("%s trace=%d: metric %s missing", name, trace, k)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			if trace == 0 && res.Metrics["cpu_ns_per_rec"].Value <= 0 {
				t.Errorf("%s: cpu_ns_per_rec %v", name, res.Metrics["cpu_ns_per_rec"].Value)
			}
		}
	}
}

func testInput(n int) []semisort.Record {
	return distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: float64(n)}, 11)
}

// The sort verifier accepts a semisort and rejects a swapped, a dropped
// and an altered record.
func TestCheckSortRejects(t *testing.T) {
	in := testInput(5000)
	ref, _ := references(in)
	out, err := semisort.Records(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSort(out, ref); err != nil {
		t.Fatalf("valid semisort rejected: %v", err)
	}
	// Move the second record of a multi-record group to the end and the
	// last record into its place: the group's key then has two runs.
	i := 0
	for out[i+1].Key != out[i].Key {
		i++
	}
	last := len(out) - 1
	if out[last].Key == out[i].Key || last <= i+2 {
		t.Fatalf("input has no group suited to the swap (i=%d)", i)
	}
	swapped := slices.Clone(out)
	swapped[i+1], swapped[last] = swapped[last], swapped[i+1]
	altered := slices.Clone(out)
	altered[len(altered)/2].Value++
	for name, bad := range map[string][]semisort.Record{
		"swapped": swapped,
		"dropped": out[:len(out)-1],
		"altered": altered,
	} {
		if err := checkSort(bad, ref); err == nil {
			t.Errorf("%s record accepted", name)
		}
	}
}

// The reduce verifier accepts the per-key sums and rejects a wrong sum and
// a missing group.
func TestCheckReduceRejects(t *testing.T) {
	in := testInput(5000)
	_, ref := references(in)
	out, err := semisort.ReduceRecords(in, sumReducer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReduce(out, ref); err != nil {
		t.Fatalf("valid reduce rejected: %v", err)
	}
	wrongSum := slices.Clone(out)
	wrongSum[0].Value++
	if err := checkReduce(wrongSum, ref); err == nil {
		t.Error("wrong sum accepted")
	}
	if err := checkReduce(out[1:], ref); err == nil {
		t.Error("missing group accepted")
	}
}

// The shuffle verifier rejects a key split across two groups, a dropped
// record and a record under the wrong group key.
func TestCheckGroupsRejects(t *testing.T) {
	in := testInput(5000)
	ref, _ := references(in)
	out, err := semisort.Records(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	var keys []uint64
	for lo := range semisort.AllRuns(out) {
		starts = append(starts, lo)
		keys = append(keys, out[lo].Key)
	}
	if err := checkGroups(out, starts, keys, ref); err != nil {
		t.Fatalf("valid groups rejected: %v", err)
	}
	// Split the first multi-record group in two.
	g := slices.IndexFunc(starts, func(lo int) bool { return lo+1 < len(out) && out[lo+1].Key == out[lo].Key })
	split := slices.Insert(slices.Clone(starts), g+1, starts[g]+1)
	splitKeys := slices.Insert(slices.Clone(keys), g+1, keys[g])
	if err := checkGroups(out, split, splitKeys, ref); err == nil {
		t.Error("split group accepted")
	}
	if err := checkGroups(out[:len(out)-1], starts, keys, ref); err == nil {
		t.Error("dropped record accepted")
	}
	badKeys := slices.Clone(keys)
	badKeys[0]++
	if err := checkGroups(out, starts, badKeys, ref); err == nil {
		t.Error("wrong group key accepted")
	}
}

// A non-200 response counts as a failed op, not as a wrong output.
func TestServiceNon200IsFailedOp(t *testing.T) {
	w := newService(2000, 2)
	r := newRunner(300*time.Millisecond, false)
	if err := w.setup(3, r); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.paths = []string{"/v1/semisort", "/v1/reduce?op=bogus"}
	if err := w.run(r); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	m, n := map[string]metric{}, map[string]int{}
	endToEnd(r, []float64{1}, []float64{1}, 0, heapPeak{}, m, n)
	failed := 0
	for _, s := range r.ops {
		if s.failed {
			failed++
		}
	}
	if failed == 0 || failed == len(r.ops) {
		t.Fatalf("%d of %d ops failed, want about half", failed, len(r.ops))
	}
	if got, want := m["ok_frac"].Value, float64(len(r.ops)-failed)/float64(len(r.ops)); got != want {
		t.Errorf("ok_frac = %v, want %v", got, want)
	}
}

// A wrong output ends the run with errWrong instead of counting as a
// failed op.
func TestWrongOutputEndsRun(t *testing.T) {
	w := newLibUnique(4096)
	r := newRunner(200*time.Millisecond, false)
	if err := w.setup(5, r); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.sref.distinct++ // the reference no longer matches what the sort produces
	err := w.run(r)
	if !errors.Is(err, errWrong) {
		t.Fatalf("run = %v, want a wrong-output error", err)
	}
}

// Self time subtracts the union of the children's intervals.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}
