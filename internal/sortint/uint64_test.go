package sortint

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randKeys(n int, keyRange uint64, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	a := make([]uint64, n)
	for i := range a {
		if keyRange == 0 {
			a[i] = r.Uint64()
		} else {
			a[i] = uint64(r.Int63n(int64(keyRange)))
		}
	}
	return a
}

func u64Sorted(a []uint64) bool {
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			return false
		}
	}
	return true
}

func u64SameMultiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[uint64]int, len(a))
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
		if m[v] < 0 {
			return false
		}
	}
	return true
}

func TestSortUint64SizesAndProcs(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, smallCutoff + 1, 1000, seqCutoff + 5, 120000} {
			a := randKeys(n, 0, int64(n)+int64(procs))
			orig := append([]uint64(nil), a...)
			SortUint64(procs, a)
			if !u64Sorted(a) {
				t.Fatalf("procs=%d n=%d: not sorted", procs, n)
			}
			if !u64SameMultiset(orig, a) {
				t.Fatalf("procs=%d n=%d: multiset changed", procs, n)
			}
		}
	}
}

func TestSortUint64Distributions(t *testing.T) {
	for _, keyRange := range []uint64{1, 2, 100, 1 << 30, 0} {
		a := randKeys(60000, keyRange, 5)
		orig := append([]uint64(nil), a...)
		SortUint64(4, a)
		if !u64Sorted(a) || !u64SameMultiset(orig, a) {
			t.Fatalf("keyRange=%d failed", keyRange)
		}
	}
}

func TestSortUint64MatchesStdlib(t *testing.T) {
	a := randKeys(30000, 1000, 7)
	b := append([]uint64(nil), a...)
	SortUint64(4, a)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSortUint64ExtremeValues(t *testing.T) {
	a := []uint64{^uint64(0), 0, 1, ^uint64(0) - 1, 1 << 63, 1<<63 - 1}
	SortUint64(2, a)
	if !u64Sorted(a) {
		t.Fatalf("extremes: %v", a)
	}
}

func TestSortUint64WithScratchReuse(t *testing.T) {
	scratch := make([]uint64, 5000)
	for trial := 0; trial < 3; trial++ {
		a := randKeys(5000, 50, int64(trial))
		SortUint64With(2, a, scratch)
		if !u64Sorted(a) {
			t.Fatalf("trial %d failed", trial)
		}
	}
}

func TestSortUint64ShortScratchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SortUint64With(1, make([]uint64, 10), make([]uint64, 3))
}

func TestSortUint64Quick(t *testing.T) {
	prop := func(a []uint64) bool {
		orig := append([]uint64(nil), a...)
		SortUint64(2, a)
		return u64Sorted(a) && u64SameMultiset(orig, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSortUint64_1M(b *testing.B) {
	const n = 1 << 20
	orig := randKeys(n, 0, 1)
	a := make([]uint64, n)
	scratch := make([]uint64, n)
	b.SetBytes(n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, orig)
		SortUint64With(0, a, scratch)
	}
}

// sampleKeys builds n Phase-1-shaped sample keys: "unique" hashes
// distinct integers; "exp" hashes exponential(10^3) draws, the sample a
// 2^20-record exponential(n/10^3) input keeps at SampleRate 16, where
// most keys sit in runs far longer than smallCutoff.
func sampleKeys(shape string, n int) []uint64 {
	r := rand.New(rand.NewSource(int64(n)))
	a := make([]uint64, n)
	for i := range a {
		if shape == "unique" {
			a[i] = dtMix(uint64(i))
		} else {
			a[i] = dtMix(uint64(r.ExpFloat64() * 1e3))
		}
	}
	return a
}

// BenchmarkSortUint64Sample sorts sample-sized key sets at Procs 1 and
// 2. EXPERIMENTS.md records the runs of it that removed the sort's
// parallel passes and set u64WideMax.
func BenchmarkSortUint64Sample(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16} {
		for _, shape := range []string{"unique", "exp"} {
			orig := sampleKeys(shape, n)
			a := make([]uint64, n)
			scratch := make([]uint64, n)
			for _, procs := range []int{1, 2} {
				b.Run(fmt.Sprintf("n=%dKi/%s/procs=%d", n>>10, shape, procs), func(b *testing.B) {
					b.SetBytes(int64(n) * 8)
					for i := 0; i < b.N; i++ {
						copy(a, orig)
						SortUint64With(procs, a, scratch)
					}
				})
			}
		}
	}
}

// A warm SortUint64With allocates nothing, at Procs 1 and 2 alike: the
// sample sort of every input up to 2^21 records runs on the caller's
// buffers only.
func TestSortUint64WithNoAllocs(t *testing.T) {
	const n = 1 << 16
	for _, shape := range []string{"unique", "exp"} {
		orig := sampleKeys(shape, n)
		a := make([]uint64, n)
		scratch := make([]uint64, n)
		for _, procs := range []int{1, 2} {
			allocs := testing.AllocsPerRun(5, func() {
				copy(a, orig)
				SortUint64With(procs, a, scratch)
			})
			if allocs != 0 {
				t.Errorf("%s procs=%d: %v allocs per sort, want 0", shape, procs, allocs)
			}
			if !u64Sorted(a) {
				t.Errorf("%s procs=%d: not sorted", shape, procs)
			}
		}
	}
}

// Above the largest sample size the sort must still match slices.Sort on
// near-unique, duplicate-heavy, shared-prefix and all-equal keys, and on
// two keys plus a singleton, whose top pass puts one key in a bin alone.
func TestSortUint64Shapes(t *testing.T) {
	const n = 1<<17 + 1000
	shapes := map[string]func(i int) uint64{
		"unique": func(i int) uint64 { return dtMix(uint64(i)) },
		"dups":   func(i int) uint64 { return dtMix(uint64(i % 97)) },
		"prefix": func(i int) uint64 { return 0xabcd<<48 | dtMix(uint64(i))&0xfffff },
		"equal":  func(int) uint64 { return 42 },
		"two": func(i int) uint64 {
			switch {
			case i == 0:
				return math.MaxUint64 // a top-pass bin of one key
			case i%2 == 0:
				return 7
			}
			return 1 << 63
		},
	}
	for name, key := range shapes {
		in := make([]uint64, n)
		for i := range in {
			in[i] = key(i)
		}
		want := slices.Clone(in)
		slices.Sort(want)
		for _, procs := range []int{2, 4} {
			got := slices.Clone(in)
			SortUint64(procs, got)
			if !slices.Equal(got, want) {
				t.Errorf("%s procs=%d: output differs from slices.Sort", name, procs)
			}
		}
	}
}
