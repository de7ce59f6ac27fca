package sortint

import "math/bits"

const (
	// Nodes of at most u64WideMax keys finish in one counting pass whose
	// digit, at most u64WideBits wide, matches their size; larger nodes
	// take an aligned 8-bit pass and recurse per bin. One size-matched
	// pass for every node sorted 64Ki hashed keys 1.5x slower; cutoffs
	// from 2048 to 16384 measured alike (EXPERIMENTS.md).
	u64WideMax  = 8192
	u64WideBits = 12
)

// SortUint64 sorts keys in place with a top-down MSD radix sort on bare
// 64-bit keys (half the memory traffic of Record sorting). The semisort
// uses it for its sample, which consists of keys only.
func SortUint64(procs int, keys []uint64) {
	if len(keys) <= 1 {
		return
	}
	scratch := make([]uint64, len(keys))
	SortUint64With(procs, keys, scratch)
}

// SortUint64With is SortUint64 with a caller-provided scratch buffer of at
// least len(keys); it allocates nothing. It runs on one worker whatever
// procs says: BenchmarkSortUint64Sample (EXPERIMENTS.md) found parallel
// passes slower than one worker at every size measured, 64Ki keys (the
// largest sample a 2^20-record input draws) and 256Ki alike.
//
// Every radix node first ORs k ^ k[0] over its keys. A node whose keys are
// all equal is done; any other node starts at the highest bit its keys
// differ in, so digits every key shares cost one read instead of a
// counting pass each.
func SortUint64With(procs int, keys, scratch []uint64) {
	if len(keys) <= 1 {
		return
	}
	if len(scratch) < len(keys) {
		panic("sortint: scratch buffer too small")
	}
	u64Sort(keys, scratch[:len(keys)], false)
}

// u64Diff returns the OR of k ^ a[0] over the non-empty a: zero when every
// key is equal, else a word whose highest set bit is the highest bit in
// which a's keys differ.
func u64Diff(a []uint64) uint64 {
	k0, d := a[0], uint64(0)
	for _, k := range a[1:] {
		d |= k ^ k0
	}
	return d
}

// u64Sort sorts src with the recursion inlined (no closures), so it
// allocates nothing. The result ends in dst when into is set, else in src;
// the other slice is scratch.
//
// A node of more than u64WideMax keys takes an 8-bit pass on the aligned
// digit holding its highest differing bit and recurses per bin. A smaller
// node finishes in u64Pass on its top w = min(u64WideBits, bits.Len(n))
// differing bits, so a child holds about one key on average.
func u64Sort(src, dst []uint64, into bool) {
	n := len(src)
	if n <= smallCutoff {
		if into {
			copy(dst, src)
			src = dst
		}
		u64InsertionSort(src)
		return
	}
	d := u64Diff(src)
	if d == 0 {
		if into {
			copy(dst, src)
		}
		return
	}
	if n > u64WideMax {
		var c [radixBuckets]int32
		shift := (bits.Len64(d) - 1) / radixBits * radixBits
		u64Count(src, c[:], shift)
		u64Scatter(src, dst, c[:], shift)
		lo := 0
		for _, e := range c {
			hi := int(e)
			switch {
			case hi-lo == 1 && !into:
				src[lo] = dst[lo]
			case hi-lo > 1:
				u64Sort(dst[lo:hi], src[lo:hi], !into)
			}
			lo = hi
		}
		return
	}
	hb := bits.Len64(d)
	w := min(u64WideBits, bits.Len(uint(n)), hb)
	if w <= radixBits {
		var c [radixBuckets]int32
		u64Pass(src, dst, c[:1<<w], hb-w, into)
	} else {
		var c [1 << u64WideBits]int32
		u64Pass(src, dst, c[:1<<w], hb-w, into)
	}
}

// u64Pass is u64Sort's counting pass of src into dst by the digit at
// shift whose width len(ends) sets. Children of more than smallCutoff keys
// recurse; one insertion pass over the whole node then orders the keys
// within each smaller child (the digit already orders the children).
func u64Pass(src, dst []uint64, ends []int32, shift int, into bool) {
	u64Count(src, ends, shift)
	u64Scatter(src, dst, ends, shift)
	lo := 0
	for _, e := range ends {
		hi := int(e)
		if hi-lo > smallCutoff {
			u64Sort(dst[lo:hi], src[lo:hi], false)
		}
		lo = hi
	}
	if into {
		u64InsertionSort(dst)
	} else {
		u64InsertionSortInto(dst, src)
	}
}

// u64Count histograms src by its digit at shift into c, whose length (a
// power of two) sets the digit width.
//
//go:noinline
func u64Count(src []uint64, c []int32, shift int) {
	s, m := uint(shift)&63, uint64(len(c)-1)
	for _, k := range src {
		c[k>>s&m]++
	}
}

// u64Scatter distributes src into dst by its digit at shift, given the
// digit's histogram c, and leaves in c[d] the end of bin d in dst.
//
//go:noinline
func u64Scatter(src, dst []uint64, c []int32, shift int) {
	sum := int32(0)
	for d, v := range c {
		c[d] = sum
		sum += v
	}
	s, m := uint(shift)&63, uint64(len(c)-1)
	for _, k := range src {
		d := k >> s & m
		dst[c[d]] = k
		c[d]++
	}
}

func u64InsertionSort(a []uint64) { u64InsertionSortInto(a, a) }

// u64InsertionSortInto sorts src into dst, which must be as long as src
// and may be src itself. It is quadratic in the distance keys move, so it
// also finishes a node whose keys are already near their place.
func u64InsertionSortInto(src, dst []uint64) {
	dst = dst[:len(src)]
	for i, v := range src {
		j := i - 1
		for j >= 0 && dst[j] > v {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = v
	}
}
