// Phase 3, dovetail placement: the planner's radix route, which
// ScatterAuto takes when the sample is not duplicate-heavy.
//
// The scatter is the counting scatter (scatter_counting.go) run over
// cbins = firstLight+1 bins: one bin per heavy bucket in bucket-id
// order, plus a single catch-all bin collecting every light record.
// Pass 1 classifies each record once through the batched heavy
// directory, clamps light bucket ids to the catch-all bin and memoizes
// the clamped id; pass 2 replays it. So the heavy keys the Phase 1
// sample found are placed exactly once — as packed, grouped prefixes of
// the output — and never travel through the radix recursion (the
// dovetail trick, applied at the pipeline's top level). With no heavy
// buckets at all the split is the identity and degenerates to one
// parallel copy, which builds no bin-id column.
//
// Phase 4 then groups the light region with internal/sortint's dovetail
// semisort: a top-down MSD radix recursion that re-samples at every
// node and pulls that node's heavy keys out of its distribution pass.
// Its out-of-place passes run against the workspace-owned radix
// scratch and count tables, so warm runs allocate nothing at Procs == 1
// and only the parallel passes' goroutines and closures above it. Phase 5 is the same placement
// invariant check as the counting path — the scatter already packed.
//
// Determinism matches the counting scatter's: the split is stable in
// input order regardless of block boundaries or worker count, the radix
// recursion is deterministic by construction, and the heavy set depends
// only on the attempt's sample — so for a fixed seed the output is
// byte-identical across Procs. Like the counting path there is no CAS,
// no probing and no overflow, hence no Las Vegas retry; errors out of
// this stage are cancellations (or injected faults at radix nodes).
package core

import (
	"fmt"

	"repro/internal/sortint"
)

// dovetailStage is the hybrid placement's scatterStage.
type dovetailStage struct{}

func (dovetailStage) strategy() ScatterStrategy { return scatterDovetail }

func (dovetailStage) scatter(pl *plan) error {
	pl.ensureOut()
	if pl.numHeavy == 0 {
		// No heavy buckets: the split is the identity, so skip both
		// counting passes and copy the input to the output, where the
		// radix recursion works out-of-place against the radix scratch.
		if err := pl.tr.labeledPhase(pl, "scatter", (*plan).dovetailCopyBody); err != nil {
			return err
		}
		pl.heavyEnd = 0
		pl.placedTotal = pl.n
		// The top-level hand-off is itself one radix node: the planner saw
		// no heavy keys and routed the whole input to the recursion. (The
		// recursion's own counters only cover nodes large enough to
		// re-sample, so this keeps PlannerRoutes populated at small n.)
		pl.stats.PlannerRoutes.RadixNodes++
		return nil
	}
	if err := pl.tr.labeledPhase(pl, "scatter", (*plan).countingScatterBody); err != nil {
		return err
	}
	pl.heavyEnd = int(pl.cbase[pl.firstLight])
	pl.stats.HeavyRecords = pl.heavyEnd
	pl.stats.ScatterFlushes = pl.flushes.Load()
	// The top-level split is itself one dovetail node: the sampled heavy
	// keys were pulled out of the recursion and placed once.
	pl.stats.PlannerRoutes.DovetailNodes++
	pl.stats.PlannerRoutes.HeavyKeysDovetailed += int64(pl.numHeavy)
	return nil
}

func (pl *plan) dovetailCopyBody() error {
	return pl.parFor(pl.cplan.nblocks, 1, (*plan).dovetailCopyChunk)
}

func (pl *plan) dovetailCopyChunk(blo, bhi int) {
	lo, hi := blo*pl.cplan.grain, min(bhi*pl.cplan.grain, pl.n)
	copy(pl.out[lo:hi], pl.a[lo:hi])
}

// localSort groups the light region with the dovetail radix recursion
// (Phase 4; span kernel "radix"). Config.LocalSort does not apply on
// this route — the recursion is the local sort. The recursion's per-node
// routing counters merge into Stats.PlannerRoutes here.
func (dovetailStage) localSort(pl *plan) error {
	return pl.tr.labeledPhase(pl, "localsort", (*plan).dovetailLocalSortBody)
}

func (pl *plan) dovetailLocalSortBody() error {
	pl.stats.LocalSortRanges = 0
	light := pl.out[pl.heavyEnd:]
	if len(light) > 1 {
		scratch := grow(&pl.ws.rxScratch, len(light))
		if err := sortint.DovetailSemisortWith(pl.ctx, pl.procs, light, scratch, &pl.ws.dtScratch, &pl.dov); err != nil {
			return err
		}
	}
	pl.stats.PlannerRoutes.RadixNodes += pl.dov.RadixNodes
	pl.stats.PlannerRoutes.DovetailNodes += pl.dov.DovetailNodes
	pl.stats.PlannerRoutes.HeavyKeysDovetailed += pl.dov.HeavyKeysPlaced
	return nil
}

// pack is the counting path's no-op invariant check: the split already
// packed, and the radix recursion permuted the light region in place.
func (dovetailStage) pack(pl *plan) error {
	if pl.placedTotal != pl.n {
		return fmt.Errorf("semisort internal error: dovetail split placed %d of %d records", pl.placedTotal, pl.n)
	}
	return nil
}
