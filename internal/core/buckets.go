// Phase 2b — bucket construction (paper Section 4, Phase 2, second
// half): allocate one bucket per heavy key and one per (merged) light
// hash range, sizing each with the high-probability estimate f(s) from
// Section 3.1; index the heavy keys in a cache-resident heavy directory
// that Phase 3 classifies every record through. Adjacent light buckets
// with fewer than Delta samples are merged (the ~10% memory optimization
// of Phase 2).
package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/obsv"
)

// bucket describes one slot range: [off, off+sz) in the slot arrays.
type bucket struct {
	off int64
	sz  uint64 // a power of two unless Config.ExactBucketSizes is set
}

// allocatePhase builds the bucket table. Heavy buckets first (block-major
// run order, so bucket ids are stable for a fixed sample), then merged
// light buckets, all carved out of one big slot array so Phase 5 can pack
// with simple interval scans. It also performs the strategy-specific
// sizing and enforces Config.MaxSlotBytes.
func (pl *plan) allocatePhase() error {
	pl.tr.phaseStart(pl.attempt, obsv.PhaseAllocate)
	tAlloc := time.Now()
	c := &pl.cfg

	// Heavy run i gets bucket id i; the heavy directory maps key -> id.
	pl.buildHeavyDir()
	buckets := growEmpty(&pl.ws.buckets, pl.numHeavy+pl.numLight)
	var slotTotal int64
	for _, hr := range pl.heavyRuns {
		id := int64(len(buckets))
		size := pl.model.heavySize(int(hr.count), hr.key>>pl.shift)
		if m, ok := pl.boost[int32(id)]; ok {
			size = boostSize(size, m, c.ExactBucketSizes)
		}
		buckets = append(buckets, bucket{off: slotTotal, sz: uint64(size)})
		slotTotal += int64(size)
	}
	pl.heavySlotEnd = slotTotal

	// Merged light buckets: combine adjacent hash-range slices until each
	// merged bucket holds the estimator's Delta·SampleRate-records merge
	// target — at the uniform one-shot density, exactly the historical
	// at-least-Delta-samples rule — or a single slice when merging is
	// disabled. Sizing tracks the summed per-range mass and the largest
	// merged rate (sizeModel.lightSize).
	pl.lightBucketOf = grow(&pl.ws.lightBucketOf, pl.numLight)
	firstLight := len(buckets)
	{
		start := 0
		var acc int32
		var massAcc, rmax float64
		for i := 0; i < pl.numLight; i++ {
			acc += pl.lightCounts[i]
			massAcc += pl.model.mass(pl.lightCounts[i], uint64(i))
			if r := pl.model.rateOf(uint64(i)); r > rmax {
				rmax = r
			}
			atEnd := i == pl.numLight-1
			if !atEnd && !c.DisableBucketMerging && !pl.model.merged(acc, massAcc) {
				continue
			}
			if c.DisableBucketMerging || pl.model.merged(acc, massAcc) || atEnd {
				id := int32(len(buckets))
				size := pl.model.lightSize(int(acc), massAcc, rmax)
				if m, ok := pl.boost[id]; ok {
					size = boostSize(size, m, c.ExactBucketSizes)
				}
				buckets = append(buckets, bucket{off: slotTotal, sz: uint64(size)})
				slotTotal += int64(size)
				for j := start; j <= i; j++ {
					pl.lightBucketOf[j] = id
				}
				start = i + 1
				acc, massAcc, rmax = 0, 0, 0
			}
		}
	}
	pl.ws.buckets = buckets
	pl.buckets = buckets
	pl.firstLight = firstLight
	pl.numLightMerged = len(buckets) - firstLight
	pl.slotTotal = slotTotal
	if pl.red != nil {
		pl.ensureReduceState()
	}

	if pl.strat == ScatterCounting {
		// The counting scatter writes straight into the output array, so
		// the attempt allocates no slot slack — only the histogram,
		// bin-id column and staging scratch, which the same memory cap
		// governs.
		pl.cbins = len(buckets)
		pl.cplan = planCounting(pl.n, pl.procs, pl.cbins)
		if c.MaxSlotBytes > 0 && pl.cplan.scratchBytes > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: counting scatter needs %d scratch bytes, cap %d",
				errSlotCap, pl.cplan.scratchBytes, c.MaxSlotBytes)
		}
		pl.stats.SlotsAllocated = pl.n
	} else if pl.strat == scatterDovetail {
		// The dovetail split runs the counting machinery over one bin per
		// heavy bucket plus a single catch-all bin for every light record,
		// writing the packed output directly; the light region is then
		// grouped out-of-place against the workspace radix scratch. No
		// slot arrays on either side, so the memory cap governs the
		// counting scratch plus the 16-bytes-per-record radix scratch.
		pl.cbins = pl.firstLight + 1
		pl.cplan = planCounting(pl.n, pl.procs, pl.cbins)
		need := pl.cplan.scratchBytes + int64(pl.n)*16
		if c.MaxSlotBytes > 0 && need > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: dovetail scatter needs %d scratch bytes, cap %d",
				errSlotCap, need, c.MaxSlotBytes)
		}
		pl.stats.SlotsAllocated = pl.n
	} else {
		if c.MaxSlotBytes > 0 && slotTotal*16 > c.MaxSlotBytes {
			pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
			pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeCap)
			return fmt.Errorf("%w: need %d slot bytes, cap %d",
				errSlotCap, slotTotal*16, c.MaxSlotBytes)
		}
		pl.slots, pl.occ = pl.ws.getSlots(slotTotal)
		pl.stats.SlotsAllocated = int(slotTotal)
	}
	pl.stats.HeavyKeys = pl.numHeavy
	pl.stats.LightBuckets = pl.numLightMerged
	pl.stats.Phases.Buckets = time.Since(pl.bucketsT0)
	pl.tr.span(pl.attempt, obsv.PhaseAllocate, tAlloc, obsv.OutcomeOK)
	return nil
}

// hdirMul is the heavy directory's multiplicative hash, 2^64/φ
// (Fibonacci hashing): a record's cell is the top hbits bits of
// key·hdirMul, which spreads small integers and hashed keys alike.
const hdirMul = 0x9E3779B97F4A7C15

// hdirMaxBits caps the directory at 2^16 int32 cells, 256 KiB, so it
// stays resident in a typical per-core L2.
const hdirMaxBits = 16

// hidLast flags the last entry of a directory cell's run in hids.
const hidLast = 1 << 31

// noHeavyDir is the directory of an attempt without heavy keys: one
// empty cell, which every key indexes through a shift of 64.
var noHeavyDir = []int32{-1}

// heavyDirBits sizes the directory for h heavy keys: the fewest bits
// giving at least 8 cells per key (so 8–16), capped at hdirMaxBits.
func heavyDirBits(h int) uint {
	if h == 0 {
		return 0
	}
	return min(uint(bits.Len(uint(8*h-1))), hdirMaxBits)
}

// buildHeavyDir indexes the heavy runs for classification (plan.classify).
// Cell c of hdir holds -1 when no heavy key hashes to it, else the start
// of its run in hkeys/hids, which are counting-sorted by cell; hids holds
// the heavy bucket ids (run i has id i), the last of each run flagged
// with hidLast. No key value is reserved.
func (pl *plan) buildHeavyDir() {
	h := len(pl.heavyRuns)
	if h == 0 {
		pl.hdir, pl.hkeys, pl.hids, pl.hshift = noHeavyDir, nil, nil, 64
		return
	}
	shift := 64 - heavyDirBits(h)
	dir := growClear(&pl.ws.hdir, 1<<(64-shift))
	keys := grow(&pl.ws.hkeys, h)
	ids := grow(&pl.ws.hids, h)
	for _, hr := range pl.heavyRuns {
		dir[(hr.key*hdirMul)>>shift]++
	}
	// Counts become run ends; placing the runs in reverse then walks each
	// cell's cursor back to its run start and lists its ids ascending.
	var end int32
	for c, cnt := range dir {
		if cnt == 0 {
			dir[c] = -1
			continue
		}
		end += cnt
		dir[c] = end
	}
	for i := h - 1; i >= 0; i-- {
		k := pl.heavyRuns[i].key
		c := (k * hdirMul) >> shift
		dir[c]--
		keys[dir[c]], ids[dir[c]] = k, uint32(i)
	}
	for j := range ids {
		if j == h-1 || (keys[j]*hdirMul)>>shift != (keys[j+1]*hdirMul)>>shift {
			ids[j] |= hidLast
		}
	}
	pl.hdir, pl.hkeys, pl.hids, pl.hshift = dir, keys, ids, shift
}

// sizeEstimate is the paper's f(s) multiplied by slack and, unless exact
// sizing is requested, rounded up to a power of two (Section 4, Phase 2):
// the high-probability bound on the record count of a bucket with s sample
// hits. Exact sizing trades the cheap power-of-two masking for ~1.4x less
// slot memory (measured in the ablation benches). Kept as a standalone
// function: it is the sizeModel's uniform-mode delegate (estimator.go),
// so one-shot runs size buckets bit-for-bit as they always did.
func sizeEstimate(s int, logn float64, c, slack float64, rate int, exact bool) int {
	cln := c * logn
	f := (float64(s) + cln + math.Sqrt(cln*cln+2*float64(s)*cln)) * float64(rate)
	size := int(math.Ceil(slack * f))
	if size < 4 {
		size = 4
	}
	if exact {
		return size
	}
	return 1 << uint(bits.Len(uint(size-1)))
}

// boostSize applies a per-bucket retry multiplier to a size estimate,
// preserving the power-of-two invariant unless exact sizing is on.
func boostSize(size int, m float64, exact bool) int {
	s := int(math.Ceil(float64(size) * m))
	if s < size {
		s = size
	}
	if exact {
		return s
	}
	return 1 << uint(bits.Len(uint(s-1)))
}

// bucketPos maps a random word to a slot index in [0, size). Power-of-two
// sizes use masking (the paper's choice); exact sizes use the multiply-
// shift reduction.
func bucketPos(r, size uint64, exact bool) uint64 {
	if !exact {
		return r & (size - 1)
	}
	hi, _ := bits.Mul64(r, size)
	return hi
}
