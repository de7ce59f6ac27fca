package core

// Tests of the heavy directory (buckets.go: buildHeavyDir) and the
// classifiers that read it (plan.go: classify, bucketOf, bucketOfBatch):
// a differential check against a map-based reference over adversarial
// heavy sets, and an end-to-end check that non-hashed small-integer keys
// still group correctly on the counting route.

import (
	"fmt"
	"testing"

	"repro/internal/distgen"
	"repro/internal/hash"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// classifyPlan builds a plan with the given heavy keys (run i gets bucket
// id i) and numLight hash ranges — a power of two, as computeRanges makes
// it — merged three to a light bucket, then indexes the heavy keys.
func classifyPlan(heavy []uint64, numLight int) *plan {
	ws := &Workspace{}
	pl := &ws.plan
	pl.ws = ws
	pl.heavyRuns = make([]heavyRun, len(heavy))
	for i, k := range heavy {
		pl.heavyRuns[i] = heavyRun{key: k, count: 1}
	}
	pl.numHeavy = len(heavy)
	pl.firstLight = len(heavy)
	pl.numLight = numLight
	pl.shift = 64
	for 1<<(64-pl.shift) < numLight {
		pl.shift--
	}
	pl.lightBucketOf = make([]int32, numLight)
	for j := range pl.lightBucketOf {
		pl.lightBucketOf[j] = int32(pl.firstLight + j/3)
	}
	pl.buildHeavyDir()
	return pl
}

// sharedCellKeys returns m distinct keys that all fall in the heavy
// directory's cell c when it is sized for h heavy keys.
func sharedCellKeys(m, h int, c uint64, seed uint64) []uint64 {
	shift := 64 - heavyDirBits(h)
	rng := hash.NewRNG(seed)
	var keys []uint64
	for i := uint64(0); len(keys) < m; i++ {
		if k := rng.Rand(i); (k*hdirMul)>>shift == c {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestClassifyMatchesReference checks bucketOfBatch, at every batch
// length from 1 to probeBatch, and bucketOf against a map-based
// reference: a heavy key resolves to its heavy id, any other key to the
// light bucket of its hash range.
func TestClassifyMatchesReference(t *testing.T) {
	hashed := func(m int, seed uint64) []uint64 {
		f := hash.NewFamily(seed)
		keys := make([]uint64, m)
		for i := range keys {
			keys[i] = f.Hash(uint64(i))
		}
		return keys
	}
	smallInts := make([]uint64, 1024)
	for i := range smallInts {
		smallInts[i] = uint64(i)
	}
	shared := append(sharedCellKeys(6, 16, 0, 3), hashed(10, 4)...)
	// Key 0 always lands in cell 0; three more keys share it.
	edge := append([]uint64{0, ^uint64(0)}, sharedCellKeys(3, 8, 0, 5)...)
	edge = append(edge, hashed(3, 6)...)
	sets := []struct {
		name  string
		heavy []uint64
	}{
		{"none", nil},
		{"1", hashed(1, 1)},
		{"2", hashed(2, 2)},
		{"16", hashed(16, 7)},
		{"4096", hashed(4096, 8)},
		{"past-cap", hashed(20000, 9)}, // 4 cells per key at hdirMaxBits
		{"zero-and-max", edge},
		{"shared-cell", shared},
		{"small-ints", smallInts},
	}
	for _, set := range sets {
		for _, numLight := range []int{1, 1024} {
			t.Run(fmt.Sprintf("%s/light=%d", set.name, numLight), func(t *testing.T) {
				pl := classifyPlan(set.heavy, numLight)
				ref := make(map[uint64]uint32, len(set.heavy))
				for i, k := range set.heavy {
					ref[k] = uint32(i)
				}
				want := func(k uint64) uint32 {
					if id, ok := ref[k]; ok {
						return id
					}
					return uint32(pl.lightBucketOf[k>>pl.shift])
				}
				// Queries: every heavy key, keys sharing their cells,
				// small integers, the extremes, and random keys.
				var q []rec.Record
				add := func(k uint64) { q = append(q, rec.Record{Key: k, Value: uint64(len(q))}) }
				for _, k := range set.heavy {
					add(k)
					add(k ^ 1)
					add(k + 1<<40)
				}
				for k := uint64(0); k < 2048; k++ {
					add(k)
				}
				for k := uint64(0); k < 4; k++ {
					add(^k)
				}
				rng := hash.NewRNG(11)
				for i := uint64(0); i < 4096; i++ {
					add(rng.Rand(i))
				}
				for _, k := range sharedCellKeys(8, max(len(set.heavy), 1), 0, 12) {
					add(k)
				}
				pl.a = q
				for i, r := range q {
					b, heavy := pl.bucketOf(r)
					if w := want(r.Key); uint32(b) != w || heavy != (w < uint32(pl.firstLight)) {
						t.Fatalf("bucketOf(%#x) = %d, %v; want %d (query %d)", r.Key, b, heavy, w, i)
					}
				}
				var bids [probeBatch]uint32
				for m := 1; m <= probeBatch; m++ {
					for base := 0; base+m <= len(q); base += m {
						pl.bucketOfBatch(base, bids[:m])
						for u, b := range bids[:m] {
							if w := want(q[base+u].Key); b != w {
								t.Fatalf("batch of %d at %d: key %#x -> %d, want %d", m, base, q[base+u].Key, b, w)
							}
						}
					}
				}
			})
		}
	}
}

// smallIntRecords returns n records with the non-hashed keys i % m.
func smallIntRecords(n, m int) []rec.Record {
	a := make([]rec.Record, n)
	for i := range a {
		a[i] = rec.Record{Key: uint64(i % m), Value: uint64(i)}
	}
	return a
}

// TestDifferentialSmallIntegerKeys: non-hashed small integers all share
// the top hash range and, unhashed, would share a directory cell. The
// counting route must still group them exactly as the sequential
// reference does.
func TestDifferentialSmallIntegerKeys(t *testing.T) {
	const n = 1 << 17
	for _, m := range []int{64, 1024, 4096} {
		a := smallIntRecords(n, m)
		refKeys := rec.KeyCounts(seqsemi.TwoPhase(append([]rec.Record(nil), a...)))
		for _, procs := range []int{1, 4} {
			label := fmt.Sprintf("m=%d/procs=%d", m, procs)
			out, st, err := Semisort(a, &Config{Procs: procs, Seed: 5, ScatterStrategy: ScatterCounting})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st.ScatterStrategy != "counting" {
				t.Fatalf("%s: Stats.ScatterStrategy = %q, want counting", label, st.ScatterStrategy)
			}
			sameGrouping(t, label, a, out, refKeys)
		}
	}
}

// BenchmarkClassify times a warm counting-route semisort at Procs 1 —
// the route that classifies every record through the heavy directory —
// on 2^20 hashed exponential(n/10³) keys, Zipf(n) keys and the
// non-hashed small integers i % 1024.
func BenchmarkClassify(b *testing.B) {
	const n = 1 << 20
	inputs := []struct {
		name string
		data []rec.Record
	}{
		{"exp", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Exponential, Param: n / 1e3}, 1)},
		{"zipf", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: n}, 2)},
		{"smallint-1024", smallIntRecords(n, 1024)},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			ws := &Workspace{}
			cfg := &Config{Procs: 1, Seed: 3, ScatterStrategy: ScatterCounting}
			if _, _, err := SemisortShared(ws, in.data, cfg); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := SemisortShared(ws, in.data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
