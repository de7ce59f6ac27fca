package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/distgen"
	"repro/internal/fault"
	"repro/internal/rec"
)

// scatterGolden is one committed TestScatterOutputGolden result: the
// route the attempt took, the FNV-64a digest of the output records'
// bytes, and Stats.ScatterFlushes.
type scatterGolden struct {
	route   string
	digest  uint64
	flushes int64
}

// scatterGoldens pins the byte-exact output of the two-pass scatters.
// The digests were recorded before the scatters memoized pass 1's bucket
// ids, so any placement change on these routes shows up here.
var scatterGoldens = map[string]scatterGolden{
	"exp/counting/procs=1/flush=false":  {"counting", 0xd9ed59c74d469e7, 32009},
	"exp/counting/procs=1/flush=true":   {"counting", 0xd9ed59c74d469e7, 0},
	"exp/counting/procs=2/flush=false":  {"counting", 0xd9ed59c74d469e7, 31233},
	"exp/counting/procs=2/flush=true":   {"counting", 0xd9ed59c74d469e7, 0},
	"exp/auto/procs=1/flush=false":      {"counting", 0xd9ed59c74d469e7, 32009},
	"exp/auto/procs=1/flush=true":       {"counting", 0xd9ed59c74d469e7, 0},
	"exp/auto/procs=2/flush=false":      {"counting", 0xd9ed59c74d469e7, 31233},
	"exp/auto/procs=2/flush=true":       {"counting", 0xd9ed59c74d469e7, 0},
	"exp/sum/procs=1/flush=false":       {"counting", 0xbc05ce9ab37ed04f, 0},
	"exp/sum/procs=1/flush=true":        {"counting", 0xbc05ce9ab37ed04f, 0},
	"exp/sum/procs=2/flush=false":       {"counting", 0xbc05ce9ab37ed04f, 0},
	"exp/sum/procs=2/flush=true":        {"counting", 0xbc05ce9ab37ed04f, 0},
	"exp/hist/procs=1/flush=false":      {"counting", 0x2129fff9d01bfb7f, 0},
	"exp/hist/procs=1/flush=true":       {"counting", 0x2129fff9d01bfb7f, 0},
	"exp/hist/procs=2/flush=false":      {"counting", 0x2129fff9d01bfb7f, 0},
	"exp/hist/procs=2/flush=true":       {"counting", 0x2129fff9d01bfb7f, 0},
	"zipf/counting/procs=1/flush=false": {"counting", 0xad1b3bd8a888de93, 32225},
	"zipf/counting/procs=1/flush=true":  {"counting", 0xad1b3bd8a888de93, 0},
	"zipf/counting/procs=2/flush=false": {"counting", 0xad1b3bd8a888de93, 31695},
	"zipf/counting/procs=2/flush=true":  {"counting", 0xad1b3bd8a888de93, 0},
	"zipf/auto/procs=1/flush=false":     {"dovetail", 0xede1fbdaf4c44c23, 32588},
	"zipf/auto/procs=1/flush=true":      {"dovetail", 0xede1fbdaf4c44c23, 0},
	"zipf/auto/procs=2/flush=false":     {"dovetail", 0xede1fbdaf4c44c23, 32422},
	"zipf/auto/procs=2/flush=true":      {"dovetail", 0xede1fbdaf4c44c23, 0},
	"zipf/sum/procs=1/flush=false":      {"counting", 0xe2334241eeb6b994, 0},
	"zipf/sum/procs=1/flush=true":       {"counting", 0xe2334241eeb6b994, 0},
	"zipf/sum/procs=2/flush=false":      {"counting", 0xe2334241eeb6b994, 0},
	"zipf/sum/procs=2/flush=true":       {"counting", 0xe2334241eeb6b994, 0},
	"zipf/hist/procs=1/flush=false":     {"counting", 0xcbd43838867c8c3e, 0},
	"zipf/hist/procs=1/flush=true":      {"counting", 0xcbd43838867c8c3e, 0},
	"zipf/hist/procs=2/flush=false":     {"counting", 0xcbd43838867c8c3e, 0},
	"zipf/hist/procs=2/flush=true":      {"counting", 0xcbd43838867c8c3e, 0},
}

// goldenDigest is the FNV-64a digest of out as little-endian Key, Value
// words.
func goldenDigest(out []rec.Record) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, r := range out {
		binary.LittleEndian.PutUint64(b[:8], r.Key)
		binary.LittleEndian.PutUint64(b[8:], r.Value)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestScatterOutputGolden: the counting scatter, the dovetail split and
// the fused reduce (Sum and Histogram) produce committed, byte-identical
// output on two points of the duplication spectrum — lib-skew's
// exponential(n/10^3) shape, which the planner sends to counting, and a
// Zipfian the planner sends to the dovetail route with heavy keys — at
// Procs 1 and 2, staged and with StageFlush forcing every block onto the
// unstaged arm.
func TestScatterOutputGolden(t *testing.T) {
	const n = 1 << 17
	inputs := []diffDist{
		{"exp", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Exponential, Param: n / 1e3}, 3)},
		{"zipf", distgen.Generate(2, n, distgen.Spec{Kind: distgen.Zipfian, Param: 1e4}, 3)},
	}
	sum, hist := sumSpec(), ReduceSpec{Histogram: true}
	cases := []struct {
		name  string
		strat ScatterStrategy
		spec  *ReduceSpec
	}{
		{"counting", ScatterCounting, nil},
		{"auto", ScatterAuto, nil},
		{"sum", ScatterAuto, &sum},
		{"hist", ScatterAuto, &hist},
	}
	dovetailed := false
	for _, in := range inputs {
		for _, c := range cases {
			for _, procs := range []int{1, 2} {
				for _, flush := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/procs=%d/flush=%v", in.name, c.name, procs, flush)
					if flush {
						fault.Enable(fault.New(1).Arm(fault.StageFlush, 0, 1<<30))
					}
					cfg := &Config{Procs: procs, Seed: 5, ScatterStrategy: c.strat}
					var out []rec.Record
					var st Stats
					var err error
					if c.spec != nil {
						out, _, st, err = ReduceShared(nil, in.data, cfg, *c.spec)
					} else {
						out, st, err = Semisort(in.data, cfg)
					}
					fault.Disable()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.ScatterStrategy == "dovetail" && st.HeavyKeys > 0 {
						dovetailed = true
					}
					got := scatterGolden{st.ScatterStrategy, goldenDigest(out), st.ScatterFlushes}
					if want, ok := scatterGoldens[name]; !ok || got != want {
						t.Errorf("%s: got %q: {%q, %#x, %d}, want %+v", name, name, got.route, got.digest, got.flushes, want)
					}
				}
			}
		}
	}
	if !dovetailed {
		t.Error("no case took the dovetail route with heavy keys")
	}
}
