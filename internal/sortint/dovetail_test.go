package sortint

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/rec"
)

// dtCheckGrouped verifies that every key's records are contiguous and in
// input order (Value carries the input index in these tests).
func dtCheckGrouped(t *testing.T, label string, got, orig []rec.Record) {
	t.Helper()
	if !rec.SamePermutation(orig, got) {
		t.Fatalf("%s: output is not a permutation of the input", label)
	}
	closed := make(map[uint64]bool)
	i := 0
	for i < len(got) {
		k := got[i].Key
		if closed[k] {
			t.Fatalf("%s: key %d appears in two runs", label, k)
		}
		closed[k] = true
		last := int64(-1)
		for i < len(got) && got[i].Key == k {
			if int64(got[i].Value) <= last {
				t.Fatalf("%s: input order violated within key %d", label, k)
			}
			last = int64(got[i].Value)
			i++
		}
	}
}

// dtInputs returns the distributions the dovetail sort must handle: the
// two parents' home turf plus the degenerate ends and a threshold
// straddler that mixes a few heavy keys into unique noise.
func dtInputs(n int, seed int64) map[string][]rec.Record {
	r := rand.New(rand.NewSource(seed))
	out := map[string][]rec.Record{}
	uniq := make([]rec.Record, n)
	for i := range uniq {
		uniq[i] = rec.Record{Key: r.Uint64(), Value: uint64(i)}
	}
	out["unique"] = uniq
	dup := make([]rec.Record, n)
	for i := range dup {
		dup[i] = rec.Record{Key: uint64(r.Intn(10)), Value: uint64(i)}
	}
	out["heavy10"] = dup
	eq := make([]rec.Record, n)
	for i := range eq {
		eq[i] = rec.Record{Key: 42, Value: uint64(i)}
	}
	out["allequal"] = eq
	mix := make([]rec.Record, n)
	for i := range mix {
		if r.Intn(2) == 0 {
			mix[i] = rec.Record{Key: uint64(r.Intn(3)), Value: uint64(i)}
		} else {
			mix[i] = rec.Record{Key: r.Uint64() | 1<<63, Value: uint64(i)}
		}
	}
	out["mixed"] = mix
	return out
}

func TestDovetailSemisortGroupsStably(t *testing.T) {
	for name, orig := range dtInputs(50000, 11) {
		for _, procs := range []int{1, 2, 4, 8} {
			a := append([]rec.Record(nil), orig...)
			var st DovetailStats
			if err := DovetailSemisort(procs, a, &st); err != nil {
				t.Fatalf("%s/p=%d: %v", name, procs, err)
			}
			dtCheckGrouped(t, name, a, orig)
		}
	}
}

func TestDovetailSemisortDeterministicAcrossProcs(t *testing.T) {
	for name, orig := range dtInputs(60000, 23) {
		var ref []rec.Record
		for _, procs := range []int{1, 2, 8} {
			a := append([]rec.Record(nil), orig...)
			if err := DovetailSemisort(procs, a, nil); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = a
				continue
			}
			for i := range a {
				if a[i] != ref[i] {
					t.Fatalf("%s: procs=%d diverges from procs=1 at %d", name, procs, i)
				}
			}
		}
	}
}

// TestDovetailScratchNestedParallelReuse drives sibling parallel nodes
// at once — every key shares one of two top bytes, so the root's two
// children are each above the parallel cutoff and run their passes
// concurrently from one DovetailScratch — and reuses the scratch across
// calls. The output must match the one-worker run and stay grouped.
func TestDovetailScratchNestedParallelReuse(t *testing.T) {
	const n = 1 << 17
	r := rand.New(rand.NewSource(31))
	orig := make([]rec.Record, n)
	for i := range orig {
		top := uint64(1+r.Intn(2)) << 56
		orig[i] = rec.Record{Key: top | r.Uint64()>>8, Value: uint64(i)}
	}
	ref := append([]rec.Record(nil), orig...)
	if err := DovetailSemisort(1, ref, nil); err != nil {
		t.Fatal(err)
	}
	scratch := make([]rec.Record, n)
	var ds DovetailScratch
	for call := 0; call < 3; call++ {
		a := append([]rec.Record(nil), orig...)
		if err := DovetailSemisortWith(context.Background(), 4, a, scratch, &ds, nil); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		for i := range a {
			if a[i] != ref[i] {
				t.Fatalf("call %d: procs=4 diverges from procs=1 at %d", call, i)
			}
		}
		dtCheckGrouped(t, "nested", a, orig)
	}
	if ds.RetainedBytes() == 0 {
		t.Error("warm scratch retains no pass memory after parallel runs")
	}
	ds.Release()
	if got := ds.RetainedBytes(); got != 0 {
		t.Errorf("RetainedBytes() = %d after Release, want 0", got)
	}
}

func TestDovetailSemisortTinyAndEdge(t *testing.T) {
	if err := DovetailSemisort(4, nil, nil); err != nil {
		t.Fatal(err)
	}
	one := []rec.Record{{Key: 7}}
	if err := DovetailSemisort(4, one, nil); err != nil {
		t.Fatal(err)
	}
	few := []rec.Record{{Key: 3, Value: 0}, {Key: 1, Value: 1}, {Key: 3, Value: 2}}
	orig := append([]rec.Record(nil), few...)
	if err := DovetailSemisort(1, few, nil); err != nil {
		t.Fatal(err)
	}
	dtCheckGrouped(t, "tiny", few, orig)
}

func TestDovetailSemisortShortScratch(t *testing.T) {
	a := randRecords(10, 5, 1)
	err := DovetailSemisortWith(context.Background(), 1, a, make([]rec.Record, 4), nil, nil)
	if !errors.Is(err, ErrShortScratch) {
		t.Fatalf("err = %v, want ErrShortScratch", err)
	}
}

func TestDovetailStatsRouting(t *testing.T) {
	// Unique keys: every sampled node is a radix node.
	uniq := randRecords(100000, 0, 3)
	var st DovetailStats
	if err := DovetailSemisort(4, uniq, &st); err != nil {
		t.Fatal(err)
	}
	if st.RadixNodes == 0 || st.DovetailNodes != 0 || st.HeavyKeysPlaced != 0 {
		t.Fatalf("unique keys routed wrong: %+v", st)
	}
	// Ten keys total: the root must dovetail and place heavy keys.
	heavy := randRecords(100000, 10, 3)
	st = DovetailStats{}
	if err := DovetailSemisort(4, heavy, &st); err != nil {
		t.Fatal(err)
	}
	if st.DovetailNodes == 0 || st.HeavyKeysPlaced == 0 {
		t.Fatalf("heavy keys not dovetailed: %+v", st)
	}
}

func TestDovetailSemisortCancellation(t *testing.T) {
	orig := randRecords(200000, 50, 7)
	for _, procs := range []int{1, 4} {
		a := append([]rec.Record(nil), orig...)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := DovetailSemisortWith(ctx, procs, a, make([]rec.Record, len(a)), nil, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: err = %v, want context.Canceled", procs, err)
		}
		if !rec.SamePermutation(orig, a) {
			t.Fatalf("p=%d: stopped run is not a permutation", procs)
		}
	}
}

func TestDovetailSemisortFaultInjection(t *testing.T) {
	orig := randRecords(200000, 50, 7)
	for _, procs := range []int{1, 4} {
		a := append([]rec.Record(nil), orig...)
		inj := fault.New(1).Arm(fault.RadixNode, 0, 1)
		fault.Enable(inj)
		err := DovetailSemisortWith(context.Background(), procs, a, make([]rec.Record, len(a)), nil, nil)
		fault.Disable()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("p=%d: err = %v, want ErrInjected", procs, err)
		}
		if inj.Fired(fault.RadixNode) != 1 {
			t.Fatalf("p=%d: fired %d times", procs, inj.Fired(fault.RadixNode))
		}
		if !rec.SamePermutation(orig, a) {
			t.Fatalf("p=%d: stopped run is not a permutation", procs)
		}
	}
}

func TestDovetailSemisortSerialZeroAlloc(t *testing.T) {
	orig := randRecords(100000, 100, 5)
	a := make([]rec.Record, len(orig))
	scratch := make([]rec.Record, len(orig))
	var st DovetailStats
	var ds DovetailScratch
	allocs := testing.AllocsPerRun(5, func() {
		copy(a, orig)
		if err := DovetailSemisortWith(context.Background(), 1, a, scratch, &ds, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("serial dovetail allocated %.0f objects per run, want 0", allocs)
	}
}

func BenchmarkDovetailSemisort1M(b *testing.B) {
	for _, d := range []struct {
		name     string
		keyRange uint64
	}{{"unique", 0}, {"heavy100", 100}} {
		b.Run(d.name, func(b *testing.B) {
			const n = 1 << 20
			orig := randRecords(n, d.keyRange, 1)
			a := make([]rec.Record, n)
			scratch := make([]rec.Record, n)
			var ds DovetailScratch
			b.SetBytes(n * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := DovetailSemisortWith(context.Background(), 0, a, scratch, &ds, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
