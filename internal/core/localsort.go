// Phase 4 — local sort (paper Section 4, Phase 4): semisort each light
// bucket locally. The phase orchestrator delegates the traversal to the
// scatter stage (the probing stage compacts slot ranges first; the
// counting stage works in place in the output); the per-segment kernels
// here are shared by both.
//
// Two cache/allocation properties distinguish this file from a naive
// per-bucket implementation (they are where the flexible-semisort
// follow-up, arXiv:2304.10078, attributes most of its practical
// speedup):
//
//   - Every kernel runs on a per-worker lsArena owned by the Workspace:
//     the naming problem uses a reusable flat open-addressing table
//     instead of a Go map, and the label/scratch/count arrays grow once
//     per worker instead of being allocated per bucket, so a warm
//     workspace executes Phase 4 without touching the heap for any
//     LocalSortKind.
//
//   - Buckets are traversed in size-aware ranges: a prefix sum over the
//     per-bucket sizes is cut into near-equal-weight contiguous ranges
//     (prim.BalancedBounds), so under skew a giant light bucket gets a
//     range of its own instead of dragging its uniform-chunk neighbors
//     onto one worker's critical path, and each worker claims one arena
//     per range instead of per bucket.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/hash"
	"repro/internal/obsv"
	"repro/internal/prim"
	"repro/internal/rec"
	"repro/internal/sortcmp"
)

// localSortPhase runs Phase 4 through the stage. On a fused reduce the
// phase is the in-arena reduction instead of a sort, and its span carries
// the "reduce" phase and kernel names.
func (pl *plan) localSortPhase(st scatterStage) error {
	if err := phaseGate(pl.ctx, "local sort"); err != nil {
		return err
	}
	ph, kernel := obsv.PhaseLocalSort, pl.cfg.LocalSort.String()
	if pl.strat == scatterDovetail {
		// The dovetail route ignores Config.LocalSort: its Phase 4 is the
		// radix recursion over the light region.
		kernel = "radix"
	}
	if pl.red != nil {
		ph, kernel = obsv.PhaseReduce, "reduce"
	}
	pl.tr.phaseStart(pl.attempt, ph)
	t0 := time.Now()
	if err := st.localSort(pl); err != nil {
		pl.tr.localSortSpan(pl.attempt, ph, t0, obsv.OutcomeCanceled, kernel, int64(pl.stats.LocalSortRanges))
		return fmt.Errorf("semisort: canceled at local sort: %w", err)
	}
	pl.stats.Phases.LocalSort = time.Since(t0)
	pl.tr.localSortSpan(pl.attempt, ph, t0, obsv.OutcomeOK, kernel, int64(pl.stats.LocalSortRanges))
	return nil
}

// lsRangesPerProc is how many size-aware ranges each worker gets on
// average: enough that the chunk-claiming cursor can absorb residual
// imbalance, few enough that per-range costs (an arena acquire, a
// cursor bump) stay negligible.
const lsRangesPerProc = 8

// planLightRanges cuts the merged light buckets into pl.lsRanges
// contiguous ranges of near-equal total weight, where weightOf prices
// one bucket's Phase 4 work (slot-array length on the probing path,
// exact record count on the counting path). The boundaries land in
// workspace-owned buffers, so the steady state allocates nothing.
func (pl *plan) planLightRanges(weightOf func(*plan, int) int64) {
	nb := pl.numLightMerged
	if nb == 0 {
		pl.lsRanges = 0
		pl.stats.LocalSortRanges = 0
		return
	}
	ranges := min(nb, pl.procs*lsRangesPerProc)
	if pl.procs == 1 {
		// One serial range: no scheduling to balance, one arena acquire.
		ranges = 1
	}
	bounds := grow(&pl.ws.lsBounds, ranges+1)
	cum := grow(&pl.ws.lsCum, nb)
	var run int64
	for j := 0; j < nb; j++ {
		run += weightOf(pl, j)
		cum[j] = run
	}
	prim.BalancedBounds(bounds, cum)
	pl.lsCum, pl.lsBounds, pl.lsRanges = cum, bounds, ranges
	pl.stats.LocalSortRanges = ranges
}

// An lsArena is one worker's Phase 4 scratch: the naming table, label
// arrays, record scratch and counting buffers every local-sort kernel
// needs. Arenas live in the Workspace and are handed to workers through
// a buffered-channel free-list (the same pattern as the counting
// scatter's staging slots), one acquire per size-aware range; each
// buffer grows to the largest segment its worker has seen and is then
// reused, so a warm workspace sorts without allocating.
type lsArena struct {
	labels     []int32
	labScratch []int32
	scratch    []rec.Record
	counts     []int32
	offs       []int32
	// Flat open-addressing naming table (countingSemisort): tabLabs
	// stores label+1 so the zero value means vacant and reuse is a
	// memclr of the sized view; any uint64 — including 0 and ^0 — is a
	// valid key.
	tabKeys []uint64
	tabLabs []int32
	// Fused-reduce segment buffers (reduceSeg): per-distinct-key
	// accumulators, representatives and keys, indexed by naming-table
	// label.
	redAccs []uint64
	redReps []uint64
	redKeys []uint64
}

// sortSeg groups one light bucket's records in place with the
// configured local-sort algorithm (Phase 4); both scatter strategies
// share it.
func (ar *lsArena) sortSeg(kind LocalSortKind, seg []rec.Record) {
	switch kind {
	case LocalSortCounting:
		ar.countingSemisort(seg)
	case LocalSortBucket:
		ar.bucketLocalSort(seg)
	default:
		sortcmp.Introsort(seg)
	}
}

// countingSemisort groups equal keys in seg using the naming problem (a
// flat open-addressing table assigning dense labels in first-appearance
// order) followed by two stable counting-sort passes over the label
// digits — the Rajasekaran–Reif style local semisort from Step 7c of
// Algorithm 1. Labels are assigned in first-appearance order, as the
// map-based reference kernel in localsort_test.go does.
func (ar *lsArena) countingSemisort(seg []rec.Record) {
	n := len(seg)
	if n <= 1 {
		return
	}
	// Naming: dense labels in [0, m) via linear probing at load ≤ 1/2.
	labels := grow(&ar.labels, n)
	size := 4
	if n > 2 {
		size = 1 << uint(bits.Len(uint(2*n-1)))
	}
	if cap(ar.tabKeys) < size {
		ar.tabKeys = make([]uint64, size)
		ar.tabLabs = make([]int32, size)
	}
	keys := ar.tabKeys[:size]
	labs := ar.tabLabs[:size]
	clear(labs)
	mask := uint64(size - 1)
	var m int32
	for i, r := range seg {
		h := hash.Fmix64(r.Key) & mask
		for {
			l := labs[h]
			if l == 0 {
				keys[h] = r.Key
				m++
				labs[h] = m
				labels[i] = m - 1
				break
			}
			if keys[h] == r.Key {
				labels[i] = l - 1
				break
			}
			h = (h + 1) & mask
		}
	}
	if m == 1 {
		return
	}
	// Two passes of stable counting sort on base-⌈sqrt(m)⌉ digits.
	base := int(math.Ceil(math.Sqrt(float64(m))))
	hi := (int(m)+base-1)/base + 1
	scratch := grow(&ar.scratch, n)
	labScratch := grow(&ar.labScratch, n)
	counts := grow(&ar.counts, max(base, hi)+1)
	countingPass(seg, scratch, labels, labScratch, counts, base, func(l int32) int { return int(l) % base })
	countingPass(seg, scratch, labels, labScratch, counts, hi, func(l int32) int { return int(l) / base })
}

// countingPass stably sorts seg (and its labels, kept in lockstep) by
// digit(label) in [0, m), using the first m+1 entries of counts as its
// (cleared) histogram.
func countingPass(seg, scratch []rec.Record, labels, labScratch, counts []int32, m int, digit func(int32) int) {
	counts = counts[:m+1]
	clear(counts)
	for _, l := range labels {
		counts[digit(l)+1]++
	}
	for b := 0; b < m; b++ {
		counts[b+1] += counts[b]
	}
	for i, r := range seg {
		d := digit(labels[i])
		scratch[counts[d]] = r
		labScratch[counts[d]] = labels[i]
		counts[d]++
	}
	copy(seg, scratch)
	copy(labels, labScratch)
}

// bucketLocalSort sorts seg by key with a classic bucket sort: since the
// keys within a light bucket are hash values falling in one hash range,
// they are near-uniform, so distributing them over ~len(seg) sub-buckets
// by linear interpolation leaves O(1) expected records per sub-bucket,
// finished with insertion sort. One of the Phase 4 alternatives from the
// paper's implementation section.
func (ar *lsArena) bucketLocalSort(seg []rec.Record) {
	n := len(seg)
	if n <= 32 {
		sortcmp.Introsort(seg)
		return
	}
	lo, hi := seg[0].Key, seg[0].Key
	for _, r := range seg[1:] {
		if r.Key < lo {
			lo = r.Key
		}
		if r.Key > hi {
			hi = r.Key
		}
	}
	if lo == hi {
		return // all keys equal
	}
	m := 1 << uint(bits.Len(uint(n-1))) // sub-buckets ≈ n, power of two
	span := hi - lo
	// Monotone near-uniform map of [lo, hi] onto [0, m): drop the bits of
	// (k - lo) below the top log2(m) bits of the span.
	sh := uint(0)
	if sb, mb := bits.Len64(span), bits.Len(uint(m-1)); sb > mb {
		sh = uint(sb - mb)
	}
	idx := func(k uint64) int {
		b := int((k - lo) >> sh)
		if b >= m {
			b = m - 1
		}
		return b
	}
	counts := grow(&ar.counts, m+1)
	clear(counts)
	for _, r := range seg {
		counts[idx(r.Key)+1]++
	}
	for b := 0; b < m; b++ {
		counts[b+1] += counts[b]
	}
	scratch := grow(&ar.scratch, n)
	offs := grow(&ar.offs, m)
	copy(offs, counts[:m])
	for _, r := range seg {
		b := idx(r.Key)
		scratch[offs[b]] = r
		offs[b]++
	}
	copy(seg, scratch)
	for b := 0; b < m; b++ {
		sub := seg[counts[b]:counts[b+1]]
		if len(sub) > 1 {
			sortcmp.Introsort(sub)
		}
	}
}
