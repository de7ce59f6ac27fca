package sortint

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/rec"
)

// Dovetail semisort: a top-down MSD radix recursion that, at every node
// large enough to sample, detects heavy duplicate keys and "dovetails"
// them into the distribution pass — records with a heavy key are placed
// once, contiguously, at the front of the node's range, and no later pass
// ever touches them again. Light records continue through 8-bit passes
// until a node is small enough to finish in one counting pass whose digit
// width matches its size, followed by one insertion pass (dtSerialLight).
// The output is a SEMISORT: every key's records are contiguous and in
// input order, but heavy groups sit ahead of the byte-ordered light groups
// of their node, so the array is not sorted by key. This is the
// DovetailSort design of "Parallel Integer Sort: Theory and Practice"
// (arXiv 2401.00710) restricted to what a semisort needs.
const (
	// Nodes at or above this size sample for heavy keys (and hit the
	// cancellation/fault gate); below it a plain stable sort by key
	// finishes the node — sampling 64 keys from a tiny node is all
	// overhead.
	dtSampleCutoff = 2048
	// Keys sampled per node, at fixed strides, so the decision is a pure
	// function of the node's contents (proc-count independent).
	dtSampleSize = 64
	// A sampled key is heavy when it appears at least this many times in
	// the sample (>= ~6% of the node).
	dtHeavyHits = 4
	// At most this many heavy keys are extracted per node; the per-pass
	// byte mask packs their indices into a uint16.
	dtMaxHeavy = 16
	// Distribution bins per dovetail pass: heavy bins first, byte bins after.
	dtBins = radixBuckets + dtMaxHeavy
	// Serial nodes of at most dtWideMax records with no heavy key finish
	// in one counting pass whose digit, at most dtWideBits wide, matches
	// the node size (see dtSerialLight).
	dtWideMax  = 8192
	dtWideBits = 12
)

// DovetailStats counts the routing decisions of one dovetail semisort.
// Only nodes large enough to sample (>= dtSampleCutoff records) are
// counted; smaller nodes finish in the size-matched counting pass or, at
// most smallCutoff records, in an insertion sort.
type DovetailStats struct {
	// RadixNodes is the number of sampled nodes whose sample showed no
	// heavy key: the node ran a plain radix pass (8-bit, or size-matched
	// when it finishes the node).
	RadixNodes int64
	// DovetailNodes is the number of sampled nodes that extracted at
	// least one heavy key into the distribution pass.
	DovetailNodes int64
	// HeavyKeysPlaced is the total number of distinct heavy keys placed
	// (summed over dovetail nodes).
	HeavyKeysPlaced int64
}

// DovetailScratch is the caller-owned working state of
// DovetailSemisortWith beyond the record scratch: the routing counters,
// the cooperative-cancellation flag and first error of a run, and a free
// list of the working memory its parallel distribution passes need.
// Reusing one across calls keeps a warm run off the heap except for the
// goroutines and closures of its parallel passes. The zero value is
// ready to use; one DovetailScratch serves one call at a time.
//
// Workers only ever set canceled and add to the counters, so a stopped
// run leaves a (possibly ungrouped) permutation behind.
type DovetailScratch struct {
	procs    int
	ctx      context.Context
	radix    atomic.Int64
	dovetail atomic.Int64
	heavy    atomic.Int64
	canceled atomic.Bool
	// firstErr is written only by the worker that wins the canceled CAS
	// in fail, and read only after all workers have joined.
	firstErr error

	// passes holds the working memory of finished parallel passes.
	// Sibling nodes of a parallel node run their passes concurrently, so
	// each takes one of its own; a warm scratch holds as many as the
	// widest run needed, their count tables grown to the largest pass.
	passMu sync.Mutex
	passes []*dtPass
}

// A dtPass is the working memory of one parallel distribution pass and
// of the recursion below it: the node's heavy keys and byte mask, the
// per-block count table the column-major scan turns into write cursors,
// and the bin boundaries the children recurse on. Keeping all of it off
// the node's stack frame keeps the pass closures from moving it to the
// heap.
type dtPass struct {
	hk     [dtMaxHeavy]uint64
	mask   [radixBuckets]uint16
	starts [dtBins + 1]int
	counts []int32
}

func (st *DovetailScratch) fail(err error) {
	if st.canceled.CompareAndSwap(false, true) {
		st.firstErr = err
	}
}

// gate runs the cooperative checks at a sampled node boundary: an already
// canceled run, the RadixNode fault point, and context cancellation. It
// reports whether the node must stop. A fired fault point whose OnFire
// hook canceled the context reports the context error; an un-hooked
// firing reports fault.ErrInjected.
func (st *DovetailScratch) gate() bool {
	if st.canceled.Load() {
		return true
	}
	injected := fault.Should(fault.RadixNode)
	if st.ctx != nil {
		if err := st.ctx.Err(); err != nil {
			st.fail(err)
			return true
		}
	}
	if injected {
		st.fail(fmt.Errorf("sortint: dovetail node: %w", fault.ErrInjected))
		return true
	}
	return false
}

// pass takes a dtPass from the free list.
func (st *DovetailScratch) pass() *dtPass {
	st.passMu.Lock()
	defer st.passMu.Unlock()
	k := len(st.passes)
	if k == 0 {
		return new(dtPass)
	}
	p := st.passes[k-1]
	st.passes = st.passes[:k-1]
	return p
}

// release returns a dtPass to the free list.
func (st *DovetailScratch) release(p *dtPass) {
	st.passMu.Lock()
	st.passes = append(st.passes, p)
	st.passMu.Unlock()
}

// RetainedBytes reports the pass memory st keeps between calls.
func (st *DovetailScratch) RetainedBytes() int64 {
	var n int64
	for _, p := range st.passes {
		n += int64(unsafe.Sizeof(*p)) + int64(cap(p.counts))*4
	}
	return n
}

// Release drops the retained pass memory; the next parallel run regrows
// what it needs.
func (st *DovetailScratch) Release() { st.passes = nil }

// DovetailSemisort is DovetailSemisortWith with freshly allocated scratch
// and no cancellation.
func DovetailSemisort(procs int, a []rec.Record, stats *DovetailStats) error {
	if len(a) <= 1 {
		return nil
	}
	return DovetailSemisortWith(context.Background(), procs, a, make([]rec.Record, len(a)), nil, stats)
}

// DovetailSemisortWith groups a in place: on return (with a nil error)
// every key's records are contiguous and in input order. The output is
// NOT sorted by key — heavy keys detected by per-node sampling are placed
// at the front of their node, ahead of the byte-ordered light keys. The
// arrangement is a pure function of the input (proc-count independent).
//
// scratch must hold at least len(a) records; a shorter buffer is a
// contract error wrapping ErrShortScratch, with a untouched. ds holds
// the rest of the run's working state; nil allocates a fresh one. ctx
// may be nil; a non-nil ctx is polled at every sampled node boundary and
// a canceled run stops cooperatively, leaving a permutation of the input
// with no grouping guarantee, and returns the context error. stats, when
// non-nil, accumulates routing counters.
func DovetailSemisortWith(ctx context.Context, procs int, a, scratch []rec.Record, ds *DovetailScratch, stats *DovetailStats) error {
	if len(a) <= 1 {
		return nil
	}
	if len(scratch) < len(a) {
		return fmt.Errorf("%w: have %d records, need %d", ErrShortScratch, len(scratch), len(a))
	}
	if ds == nil {
		ds = &DovetailScratch{}
	}
	ds.procs = parallel.Procs(procs)
	ds.ctx = ctx
	ds.radix.Store(0)
	ds.dovetail.Store(0)
	ds.heavy.Store(0)
	ds.canceled.Store(false)
	ds.firstErr = nil
	dtSort(ds, a, scratch[:len(a)], 64, false)
	if stats != nil {
		stats.RadixNodes += ds.radix.Load()
		stats.DovetailNodes += ds.dovetail.Load()
		stats.HeavyKeysPlaced += ds.heavy.Load()
	}
	err := ds.firstErr
	ds.ctx, ds.firstErr = nil, nil // do not pin the caller's context
	return err
}

// dtSample gates the node and, when the run continues, samples for heavy
// keys, updating the routing counters. It returns the heavy count and
// whether the node must stop.
func dtSample(st *DovetailScratch, a []rec.Record, hk *[dtMaxHeavy]uint64) (nh int, stop bool) {
	if st.gate() {
		return 0, true
	}
	nh = dtSampleHeavy(a, hk)
	if nh > 0 {
		st.dovetail.Add(1)
	} else {
		st.radix.Add(1)
	}
	return nh, false
}

// dtSampleHeavy samples dtSampleSize keys at fixed strides, sorts the
// sample, and extracts (ascending) the keys with at least dtHeavyHits
// occurrences. len(a) must be >= dtSampleCutoff, so strides are wide.
func dtSampleHeavy(a []rec.Record, hk *[dtMaxHeavy]uint64) int {
	stride := len(a) / dtSampleSize
	var s [dtSampleSize]uint64
	for i := 0; i < dtSampleSize; i++ {
		s[i] = a[i*stride].Key
	}
	for i := 1; i < dtSampleSize; i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	nh := 0
	for i := 0; i < dtSampleSize && nh < dtMaxHeavy; {
		j := i + 1
		for j < dtSampleSize && s[j] == s[i] {
			j++
		}
		if j-i >= dtHeavyHits {
			hk[nh] = s[i]
			nh++
		}
		i = j
	}
	return nh
}

// dtParallel reports whether a node of n records runs the parallel
// recursion; smaller nodes (and every node of a one-worker run) take the
// closure-free serial recursion, which allocates nothing.
func dtParallel(st *DovetailScratch, n int) bool {
	return st.procs > 1 && n >= seqCutoff
}

// dtSort groups src by its low left bits (the bits above are equal across
// the node). The result ends in dst when into is set, else back in src;
// the other buffer is clobbered. len(src) == len(dst).
func dtSort(st *DovetailScratch, src, dst []rec.Record, left int, into bool) {
	if !dtParallel(st, len(src)) || left <= 0 {
		dtSerial(st, src, dst, left, into)
		return
	}
	p := st.pass()
	nh, stop := dtSample(st, src, &p.hk)
	if stop {
		st.release(p)
		if into {
			copy(dst, src) // keep dst a permutation on a stopped run
		}
		return
	}
	st.heavy.Add(int64(nh))
	dovetailPass(st, p, nh, src, dst, left-radixBits)
	if !into {
		// The heavy region is final: move it home once, never touch it
		// again. (With into set it is home already.)
		if heavyEnd := p.starts[nh]; heavyEnd >= seqCutoff {
			parallel.For(st.procs, heavyEnd, 1<<14, func(lo, hi int) {
				copy(src[lo:hi], dst[lo:hi])
			})
		} else {
			copy(src[:heavyEnd], dst[:heavyEnd])
		}
	}
	dtRecurseLight(st, p, nh, func(lo, hi int) {
		if hi-lo == 1 && !into {
			src[lo] = dst[lo]
			return
		}
		dtSort(st, dst[lo:hi], src[lo:hi], left-radixBits, !into)
	})
	st.release(p)
}

// dtRecurseLight invokes body on every non-empty light (byte) bin of a
// parallel dovetail pass, the workers claiming bins one at a time; heavy
// bins are skipped.
func dtRecurseLight(st *DovetailScratch, p *dtPass, nh int, body func(lo, hi int)) {
	parallel.For(st.procs, radixBuckets, 1, func(blo, bhi int) {
		for b := nh + blo; b < nh+bhi; b++ {
			if p.starts[b+1] > p.starts[b] {
				body(p.starts[b], p.starts[b+1])
			}
		}
	})
}

// dtMask builds the byte -> heavy-index bitmask table for a pass: bit j of
// mask[b] is set when heavy key j has byte b at shift. Light records whose
// byte has no heavy key pay one extra load and a never-taken branch.
func dtMask(mask *[radixBuckets]uint16, hk []uint64, shift int) {
	for j, k := range hk {
		mask[int(k>>uint(shift))&(radixBuckets-1)] |= 1 << j
	}
}

// dtBin is the bin of key k in a dovetail pass at shift: j when k is
// heavy key hk[j], else len(hk) plus k's byte at shift.
func dtBin(k uint64, shift int, mask *[radixBuckets]uint16, hk []uint64) int {
	b := int(k>>uint(shift)) & (radixBuckets - 1)
	if m := mask[b]; m != 0 {
		return dtResolve(m, k, hk, len(hk)+b)
	}
	return len(hk) + b
}

// dtResolve disambiguates a record whose byte collides with one or more
// heavy keys: the heavy bin index on a full-key match, else light.
func dtResolve(m uint16, k uint64, hk []uint64, light int) int {
	for m != 0 {
		j := bits.TrailingZeros16(m)
		if hk[j] == k {
			return j
		}
		m &= m - 1
	}
	return light
}

// dovetailPass is the parallel distribution pass of a node: it
// distributes src into dst with nh heavy bins first — records whose key
// equals p.hk[j] land in bin j — followed by the 256 byte bins at shift,
// leaving the bin boundaries in p.starts. p.hk[:nh] is ascending,
// 0 <= nh <= dtMaxHeavy; with no heavy key it is a plain radix pass. The
// pass is stable; bins beyond nh+255 are unused (starts stays flat at
// n). Blocks are histogrammed in parallel into p.counts, whose entries a
// column-major exclusive scan turns into write cursors in place, so the
// layout is identical at any proc count.
func dovetailPass(st *DovetailScratch, p *dtPass, nh int, src, dst []rec.Record, shift int) {
	n := len(src)
	hk := p.hk[:nh]
	clear(p.mask[:])
	dtMask(&p.mask, hk, shift)
	grain := parallel.Grain(n, st.procs, 1<<13)
	nblocks := (n + grain - 1) / grain
	if cap(p.counts) < nblocks*dtBins {
		p.counts = make([]int32, nblocks*dtBins)
	}
	tab := p.counts[:nblocks*dtBins]
	clear(tab)
	parallel.For(st.procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			c := tab[blk*dtBins : (blk+1)*dtBins]
			for i := s; i < e; i++ {
				c[dtBin(src[i].Key, shift, &p.mask, hk)]++
			}
		}
	})

	// Column-major exclusive scan, heavy bins first, so the scatter below
	// is stable and heavy records end up ahead of all light records.
	sum := 0
	for b := 0; b < dtBins; b++ {
		p.starts[b] = sum
		for blk := 0; blk < nblocks; blk++ {
			c := int(tab[blk*dtBins+b])
			tab[blk*dtBins+b] = int32(sum)
			sum += c
		}
	}
	p.starts[dtBins] = sum

	parallel.For(st.procs, nblocks, 1, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s, e := blk*grain, min((blk+1)*grain, n)
			offs := tab[blk*dtBins : (blk+1)*dtBins]
			for i := s; i < e; i++ {
				bin := dtBin(src[i].Key, shift, &p.mask, hk)
				dst[offs[bin]] = src[i]
				offs[bin]++
			}
		}
	})
}

// dtSerial is dtSort on one worker with the recursion inlined (no body
// closures), so it allocates nothing. It finishes every node below
// seqCutoff and every node of a one-worker run.
func dtSerial(st *DovetailScratch, src, dst []rec.Record, left int, into bool) {
	n := len(src)
	if n <= smallCutoff {
		if into {
			insertionSortInto(dst, src)
		} else {
			insertionSort(src)
		}
		return
	}
	if left <= 0 {
		if into {
			copy(dst, src) // all keys consumed: the node is one key
		}
		return
	}
	var hk [dtMaxHeavy]uint64
	nh := 0
	if n >= dtSampleCutoff {
		var stop bool
		if nh, stop = dtSample(st, src, &hk); stop {
			if into {
				copy(dst, src)
			}
			return
		}
	}
	if nh == 0 {
		dtSerialLight(st, src, dst, left, into)
		return
	}
	st.heavy.Add(int64(nh))
	var ends [dtBins]int32
	dovetailPassSerial(src, dst, left-radixBits, hk[:nh], &ends)
	heavyEnd := int(ends[nh-1])
	if !into {
		copy(src[:heavyEnd], dst[:heavyEnd])
	}
	dtSerialBins(st, src, dst, heavyEnd, ends[nh:nh+radixBuckets], left-radixBits, into)
}

// dtSerialBins recurses into the bins of a serial pass from src into
// dst: bin b spans dst[ends[b-1]:ends[b]], the first starting at lo. The
// results end in dst when into is set, else in src.
func dtSerialBins(st *DovetailScratch, src, dst []rec.Record, lo int, ends []int32, left int, into bool) {
	for _, e := range ends {
		hi := int(e)
		switch {
		case hi-lo == 1 && !into:
			src[lo] = dst[lo]
		case hi-lo > 1:
			dtSerial(st, dst[lo:hi], src[lo:hi], left, !into)
		}
		lo = hi
	}
}

// dtSerialLight is the counting pass of a serial node with no heavy key.
// A node of at most dtWideMax records finishes in one size-matched pass:
// its digit is the top w = min(dtWideBits, bits.Len(n), left) bits, so
// a child holds about one record on average. Sub-bins of more than
// smallCutoff records and more than one key recurse with the same pass on
// the bits left; one insertion pass over the whole node then orders the
// records within each sub-bin (the digit already orders the sub-bins).
// The result is the node's stable sort by key: the same bytes 8-bit
// passes down to insertion leaves give whenever no descendant samples,
// i.e. whenever every 8-bit child is below dtSampleCutoff. So a node of
// dtSampleCutoff records or more (always at a byte boundary) takes the
// wide pass only when its histogram, folded to 8 bits, shows no child
// that large. Otherwise, and on every node above dtWideMax, it runs the
// 8-bit pass and recurses per byte bin, where such children sample.
func dtSerialLight(st *DovetailScratch, src, dst []rec.Record, left int, into bool) {
	n := len(src)
	var c [1 << dtWideBits]int32
	w, final := radixBits, false
	if n <= dtWideMax {
		w, final = min(dtWideBits, bits.Len(uint(n)), left), true
	}
	dtCount(src, c[:1<<w], left-w)
	if final && n >= dtSampleCutoff {
		// w >= radixBits here: left is a multiple of 8 above this size.
		var c8 [radixBuckets]int32
		f := w - radixBits
		for b := range c8 {
			s := int32(0)
			for _, v := range c[b<<f : (b+1)<<f] {
				s += v
			}
			c8[b] = s
		}
		if slices.Max(c8[:]) >= dtSampleCutoff {
			w, final = radixBits, false
			copy(c[:], c8[:])
		}
	}
	shift := left - w
	ends := c[:1<<w]
	dtScatter(src, dst, ends, shift)
	if !final {
		dtSerialBins(st, src, dst, 0, ends, shift, into)
		return
	}
	lo := 0
	for _, e := range ends {
		hi := int(e)
		if hi-lo > smallCutoff && !dtOneKey(dst[lo:hi]) {
			dtSerial(st, dst[lo:hi], src[lo:hi], shift, false)
		}
		lo = hi
	}
	if into {
		insertionSort(dst)
	} else {
		insertionSortInto(src, dst)
	}
}

// dtOneKey reports whether every record of the non-empty a has one key.
func dtOneKey(a []rec.Record) bool {
	for _, r := range a[1:] {
		if r.Key != a[0].Key {
			return false
		}
	}
	return true
}

// dtCount histograms src by its digit at shift into c, whose length (a
// power of two) sets the digit width. It and dtScatter stay out of line:
// inlined into dtSerialLight, their loops spill the key and the table
// length to the stack, which cost about 7% of a near-unique sort.
//
//go:noinline
func dtCount(src []rec.Record, c []int32, shift int) {
	s, m := uint(shift)&63, uint64(len(c)-1)
	for i := range src {
		c[src[i].Key>>s&m]++
	}
}

// dtScatter distributes src stably into dst by its digit at shift, given
// the digit's histogram c, and leaves in c[d] the end of bin d in dst.
//
//go:noinline
func dtScatter(src, dst []rec.Record, c []int32, shift int) {
	sum := int32(0)
	for d, v := range c {
		c[d] = sum
		sum += v
	}
	s, m := uint(shift)&63, uint64(len(c)-1)
	for _, r := range src {
		d := r.Key >> s & m
		dst[c[d]] = r
		c[d]++
	}
}

// dovetailPassSerial is the one-worker dovetail pass of the serial
// recursion: dovetailPass with one block, leaving in ends[b] the end of
// bin b in dst.
func dovetailPassSerial(src, dst []rec.Record, shift int, hk []uint64, ends *[dtBins]int32) {
	var mask [radixBuckets]uint16
	dtMask(&mask, hk, shift)
	for i := range src {
		ends[dtBin(src[i].Key, shift, &mask, hk)]++
	}
	sum := int32(0)
	for b, v := range ends {
		ends[b] = sum
		sum += v
	}
	for i := range src {
		bin := dtBin(src[i].Key, shift, &mask, hk)
		dst[ends[bin]] = src[i]
		ends[bin]++
	}
}
