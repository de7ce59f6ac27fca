package core

// Phase 4 arena-kernel tests: the arena-backed kernels must produce
// byte-identical output to per-segment reference kernels (for the
// counting kernel, a map-based naming table that assigns labels in
// first-appearance order as the arena's flat table does), arena reuse
// across segments must not leak state, and the size-aware schedule must
// preserve the pipeline's output while reporting its range count.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
	"repro/internal/sortcmp"
)

// refSortSeg is the reference for lsArena.sortSeg: the counting kernel
// names keys with a Go map and allocates every buffer per segment, the
// bucket kernel runs on a fresh arena, and the hybrid kernel is the
// introsort itself.
func refSortSeg(kind LocalSortKind, seg []rec.Record) {
	switch kind {
	case LocalSortCounting:
		refCountingSemisort(seg)
	case LocalSortBucket:
		var ar lsArena
		ar.bucketLocalSort(seg)
	default:
		sortcmp.Introsort(seg)
	}
}

// refCountingSemisort is the map-based naming + two-pass counting sort
// the arena kernel replaced.
func refCountingSemisort(seg []rec.Record) {
	n := len(seg)
	if n <= 1 {
		return
	}
	labels := make([]int32, n)
	tbl := make(map[uint64]int32, 16)
	for i, r := range seg {
		l, ok := tbl[r.Key]
		if !ok {
			l = int32(len(tbl))
			tbl[r.Key] = l
		}
		labels[i] = l
	}
	m := len(tbl)
	if m == 1 {
		return
	}
	base := int(math.Ceil(math.Sqrt(float64(m))))
	hi := (m+base-1)/base + 1
	scratch := make([]rec.Record, n)
	labScratch := make([]int32, n)
	counts := make([]int32, max(base, hi)+1)
	countingPass(seg, scratch, labels, labScratch, counts, base, func(l int32) int { return int(l) % base })
	countingPass(seg, scratch, labels, labScratch, counts, hi, func(l int32) int { return int(l) / base })
}

// randSegs builds segments shaped like light buckets: a mix of sizes,
// duplicate densities, and one segment holding the reserved ^0 key.
func randSegs(r *rand.Rand) [][]rec.Record {
	sizes := []int{0, 1, 2, 7, 31, 32, 33, 100, 977, 5000}
	segs := make([][]rec.Record, 0, len(sizes)+1)
	for _, n := range sizes {
		seg := make([]rec.Record, n)
		distinct := 1 + r.Intn(n+1)
		for i := range seg {
			seg[i] = rec.Record{Key: r.Uint64() % uint64(distinct), Value: uint64(i)}
		}
		segs = append(segs, seg)
	}
	segs = append(segs, []rec.Record{
		{Key: ^uint64(0), Value: 0}, {Key: 0, Value: 1}, {Key: ^uint64(0), Value: 2},
	})
	return segs
}

func cloneSegs(segs [][]rec.Record) [][]rec.Record {
	out := make([][]rec.Record, len(segs))
	for i, s := range segs {
		out[i] = append([]rec.Record(nil), s...)
	}
	return out
}

// TestArenaKernelsMatchLegacy: for every LocalSortKind, the arena kernels
// (one arena reused across all segments, as a Phase 4 worker would) and
// the per-segment reference kernels produce identical bytes.
func TestArenaKernelsMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, kind := range []LocalSortKind{LocalSortHybrid, LocalSortCounting, LocalSortBucket} {
		t.Run(kind.String(), func(t *testing.T) {
			segs := randSegs(r)
			arena, legacy := cloneSegs(segs), cloneSegs(segs)
			var ar lsArena
			for si := range segs {
				ar.sortSeg(kind, arena[si])
				refSortSeg(kind, legacy[si])
			}
			for si := range segs {
				for i := range arena[si] {
					if arena[si][i] != legacy[si][i] {
						t.Fatalf("kind %v seg %d record %d: arena %v, legacy %v",
							kind, si, i, arena[si][i], legacy[si][i])
					}
				}
				if !rec.SamePermutation(segs[si], arena[si]) {
					t.Fatalf("kind %v seg %d: records lost", kind, si)
				}
			}
		})
	}
}

// TestArenaCountingSemisortGrouped: the counting kernel on a dirty arena
// (reused across wildly different segments) still groups correctly —
// stale naming-table entries or label arrays must not leak between
// segments.
func TestArenaCountingSemisortGrouped(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ar lsArena
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(400)
		seg := make([]rec.Record, n)
		for i := range seg {
			seg[i] = rec.Record{Key: r.Uint64() % uint64(1+r.Intn(40)), Value: uint64(i)}
		}
		orig := append([]rec.Record(nil), seg...)
		ar.countingSemisort(seg)
		if !rec.IsSemisorted(seg) || !rec.SamePermutation(orig, seg) {
			t.Fatalf("trial %d: arena counting semisort broke on %v", trial, orig)
		}
	}
}

// TestSizeAwareScheduleStats: a parallel run reports a size-aware range
// count in (0, 8*procs]; a serial run collapses to one range. Output must
// be identical across both (the counting scatter is deterministic at any
// procs).
func TestSizeAwareScheduleStats(t *testing.T) {
	a := distgen.Generate(4, 60000, distgen.Spec{Kind: distgen.Uniform, Param: 60000}, 12)
	base := &Config{Procs: 4, Seed: 5, ScatterStrategy: ScatterCounting}
	out, st, err := Semisort(a, base)
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalSortRanges <= 0 || st.LocalSortRanges > 8*4 {
		t.Errorf("LocalSortRanges = %d, want in (0, 32]", st.LocalSortRanges)
	}

	serial := *base
	serial.Procs = 1
	outS, stS, err := Semisort(a, &serial)
	if err != nil {
		t.Fatal(err)
	}
	if stS.LocalSortRanges != 1 {
		t.Errorf("serial LocalSortRanges = %d, want 1", stS.LocalSortRanges)
	}

	for i := range out {
		if out[i] != outS[i] {
			t.Fatalf("schedule changed output at %d: sized %v serial %v", i, out[i], outS[i])
		}
	}
}

// TestSizeAwareScheduleProbing: the probing path, which weighs buckets by
// slot-range length, collapses to one range in a serial run and groups
// correctly.
func TestSizeAwareScheduleProbing(t *testing.T) {
	a := distgen.Generate(4, 60000, distgen.Spec{Kind: distgen.Zipfian, Param: 1000}, 13)
	for _, kind := range []LocalSortKind{LocalSortHybrid, LocalSortCounting} {
		t.Run(fmt.Sprintf("kind=%v", kind), func(t *testing.T) {
			sized := &Config{Procs: 1, Seed: 5, ScatterStrategy: ScatterProbing, LocalSort: kind}
			out, st, err := Semisort(a, sized)
			if err != nil {
				t.Fatal(err)
			}
			if st.LocalSortRanges != 1 {
				t.Errorf("serial LocalSortRanges = %d, want 1", st.LocalSortRanges)
			}
			checkSemisorted(t, fmt.Sprintf("probing kind=%v", kind), a, out)
		})
	}
}
