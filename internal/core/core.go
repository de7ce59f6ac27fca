// Package core implements the top-down parallel semisort algorithm of
// Gu, Shun, Sun and Blelloch (SPAA 2015).
//
// Given an array of records whose 64-bit keys are (or behave like) uniform
// hash values, Semisort returns the records reordered so that equal keys
// are contiguous. The algorithm runs in five phases, mirroring Section 4
// of the paper; the implementation is an explicit pipeline with one file
// per stage:
//
//  1. Sampling and sorting (sample.go): draw one key per block of
//     records in adaptive rounds, a pilot over every hash range and then
//     top-ups over the ranges whose estimate has not converged, within
//     the budget of the paper's stratified sample (one key per
//     SampleRate-record block, its one-round special case). Then sort the
//     sample with an MSD radix sort on bare keys that skips the digits a
//     node's keys share and runs on one worker.
//  2. Bucket construction (classify.go, buckets.go): classify sampled keys
//     as heavy (≥ Delta sample occurrences) or light; allocate one array
//     per heavy key and one per hash range of light keys, sizing each with
//     the high-probability estimate f(s) from Section 3.1; record heavy
//     keys in a phase-concurrent hash table. Adjacent light buckets with
//     fewer than Delta samples are merged (the ~10% memory optimization of
//     Phase 2).
//  3. Scattering (scatter_probing.go, scatter_counting.go,
//     scatter_dovetail.go). The default planner (ScatterAuto) reads the
//     sample: under heavy duplication it places records with a
//     deterministic two-pass counting scatter that computes exact
//     per-bucket offsets and needs no atomics; otherwise it takes the
//     dovetail route, which splits the sampled heavy keys into packed
//     front groups with one counting pass and hands the light remainder
//     to a top-down MSD radix recursion that keeps re-deciding per node.
//     The paper's placement — a pseudo-random slot per record, claimed
//     with compare-and-swap, linear probing on collision — runs under
//     the ScatterProbing pin.
//  4. Local sort (localsort.go): compact each light bucket and semisort it
//     locally (hybrid comparison sort by default, or the Rajasekaran–Reif
//     style naming + two-pass counting sort).
//  5. Packing (pack.go): compact the heavy region with the interval
//     technique (Section 4, Phase 5) and copy the already-compact light
//     buckets, all into one contiguous output array.
//
// The per-attempt state threading the stages together is the plan
// (plan.go); every buffer the stages touch is owned by the Workspace
// (workspace.go), so a warm workspace executes the whole pipeline without
// allocating. The three Phase 3 placements implement one scatterStage
// contract; each determines how Phases 4 and 5 traverse its layout.
//
// On the probing path a scatter overflow (a bucket smaller than its
// actual multiplicity, which has probability O(n^{-c})) is detected and
// the algorithm restarts with doubled slack, making the implementation
// Las Vegas with respect to bucket sizing, exactly as the end of Section
// 3 prescribes. The retry ladder lives in semisortInto below.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obsv"
	"repro/internal/parallel"
	"repro/internal/rec"
	"repro/internal/seqsemi"
)

// Semisort returns a new array holding the records of a with equal keys
// contiguous. The input is not modified. Callers performing many semisorts
// should use SemisortWS with a reused Workspace.
func Semisort(a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	return SemisortWS(nil, a, cfg)
}

// SemisortWS is Semisort with a caller-managed scratch workspace. A nil ws
// allocates a private workspace for this call.
//
// Failure handling (see DESIGN.md, "Failure model & recovery guarantees"):
// bucket overflow (probing pin only) retries adaptively up to MaxRetries
// attempts — the first restarts keep the sample and regrow only the
// overflowed buckets, then escalation resamples with doubled slack — and
// exhaustion (or the MaxSlotBytes cap, on any route) degrades to the
// deterministic sequential semisort unless DisableFallback is set. A panic
// on a fork–join worker (e.g. out of memory in one chunk) is returned as
// an error wrapping *parallel.PanicError. A canceled Config.Context
// returns an error wrapping the context's error.
func SemisortWS(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	out, _, stats, err := semisortInto(ws, nil, a, cfg, false, nil)
	return out, stats, err
}

// SemisortInto is SemisortWS writing the output into dst when
// cap(dst) >= len(a) and dst does not alias a; otherwise a fresh output
// array is allocated exactly as SemisortWS would. The returned slice is
// the one actually used. The input is never modified.
func SemisortInto(ws *Workspace, dst, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	out, _, stats, err := semisortInto(ws, dst, a, cfg, false, nil)
	return out, stats, err
}

// SemisortShared is SemisortWS returning a slice owned by the workspace:
// the output buffer is retained in ws and reused by the next Shared call,
// so a steady-state caller allocates nothing at all. The returned slice is
// only valid until the next call through ws (passing it back in as the
// next input is safe — aliasing is detected and a fresh buffer is used).
func SemisortShared(ws *Workspace, a []rec.Record, cfg *Config) ([]rec.Record, Stats, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	out, _, stats, err := semisortInto(ws, ws.out, a, cfg, true, nil)
	return out, stats, err
}

// semisortInto runs the Las Vegas retry ladder over pipeline attempts
// (plan.semisortOnce), then the sequential fallback when the ladder is
// exhausted. When retain is set the produced output is kept in ws.out for
// the next Shared call. A non-nil red switches every stage to its fused
// collect-reduce arm (reduce.go): the output is then one record per
// group, with reps its parallel representative slice (nil on plain
// semisorts). The deferred epilogue drops the plan's references to caller
// memory and enforces Config.MaxRetainedBytes, whatever path returned.
func semisortInto(ws *Workspace, dst, a []rec.Record, cfg *Config, retain bool, red *ReduceSpec) (out []rec.Record, reps []uint64, stats Stats, err error) {
	c := cfg.withDefaults()
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*parallel.PanicError)
			if !ok {
				panic(r) // not from a fork–join worker; let it crash
			}
			out, reps, err = nil, nil, fmt.Errorf("semisort: worker panic: %w", pe)
		}
		if retain && out != nil {
			ws.out = out
		}
		ws.plan.clearRefs()
		ws.shrink(c.MaxRetainedBytes)
	}()

	tr := newTracer(&c)
	if tr.obs != nil {
		// Scheduler counters are process-global and cumulative; register
		// a collector for the duration and report this call's delta.
		obsv.EnableSched()
		defer obsv.DisableSched()
		schedBase := obsv.SchedSnapshot()
		defer func() { stats.Sched = obsv.SchedSnapshot().Sub(schedBase) }()
	}

	pl := &ws.plan
	var (
		boost           map[int32]float64 // bucket id → size multiplier
		boostRetries    int               // boosted retries on the current sample
		sampleAttempt   int               // bumped only when we resample
		overflowBuckets int
		overflowDeficit int
		capHit          bool
	)
	for attempt := 0; attempt < c.MaxRetries; attempt++ {
		if cerr := ctxErr(c.Context); cerr != nil {
			return nil, nil, stats, fmt.Errorf("semisort: canceled: %w", cerr)
		}
		if tr.obs != nil {
			kind := obsv.AttemptFresh
			switch {
			case attempt == 0:
			case boost != nil:
				kind = obsv.AttemptBoosted
			default:
				kind = obsv.AttemptResample
			}
			tr.attemptStart(obsv.Attempt{
				Index: attempt, Kind: kind,
				Slack: c.Slack, BoostedBuckets: len(boost),
			})
		}
		pl.begin(ws, a, dst, &c, sampleAttempt, attempt, boost, &tr, red)
		res, oerr := semisortOnce(pl)
		s := pl.stats
		s.Retries = attempt
		s.Attempts = attempt + 1
		s.EffectiveSlack = c.Slack
		s.OverflowedBuckets = overflowBuckets
		s.OverflowDeficit = overflowDeficit
		stats = s
		if oerr == nil {
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: obsv.OutcomeOK})
			return res, pl.reps, s, nil
		}
		var of *overflowError
		switch {
		case errors.Is(oerr, errSlotCap):
			capHit = true
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: obsv.OutcomeCap})
		case errors.As(oerr, &of):
			overflowBuckets += len(of.buckets)
			for _, d := range of.buckets {
				overflowDeficit += int(d)
			}
			stats.OverflowedBuckets = overflowBuckets
			stats.OverflowDeficit = overflowDeficit
			tr.attemptEnd(obsv.AttemptEnd{
				Index: attempt, Outcome: obsv.OutcomeOverflow,
				OverflowedBuckets: len(of.buckets),
			})
			// Adaptive recovery: regrow only the deficient buckets while
			// keeping the sample (bucket ids are stable for a fixed
			// sample), escalating to a fresh sample with doubled slack
			// when boosting alone does not converge.
			if boostRetries < 2 && len(of.buckets) > 0 {
				if boost == nil {
					boost = ws.getBoost()
				}
				for id := range of.buckets {
					m := boost[id]
					if m < 1 {
						m = 1
					}
					boost[id] = m * 4
				}
				boostRetries++
			} else {
				boost, boostRetries = nil, 0
				sampleAttempt++
				c.Slack *= 2
			}
		case errors.Is(oerr, ErrOverflow):
			// Overflow without bucket detail (block-rounds scatter):
			// classic policy — fresh sample, doubled slack.
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: obsv.OutcomeOverflow})
			boost, boostRetries = nil, 0
			sampleAttempt++
			c.Slack *= 2
		default:
			// Cancellation or an internal invariant violation: not
			// retryable.
			outcome := obsv.OutcomeError
			if ctxErr(c.Context) != nil {
				outcome = obsv.OutcomeCanceled
			}
			tr.attemptEnd(obsv.AttemptEnd{Index: attempt, Outcome: outcome})
			return nil, nil, stats, fmt.Errorf("semisort failed after %d attempts: %w", attempt+1, oerr)
		}
		if capHit {
			break
		}
	}

	// Graceful degradation: the Las Vegas path is exhausted (or would
	// exceed the memory cap), so fall back to the deterministic two-phase
	// sequential semisort, which needs no slack and cannot overflow.
	if c.DisableFallback {
		why := "retries exhausted"
		if capHit {
			why = "slot memory cap"
		}
		return nil, nil, stats, fmt.Errorf("semisort: %s after %d attempts: %w", why, stats.Attempts, ErrOverflow)
	}
	if cerr := ctxErr(c.Context); cerr != nil {
		return nil, nil, stats, fmt.Errorf("semisort: canceled: %w", cerr)
	}
	// The fallback is traced as one more attempt (index Attempts, i.e.
	// after the last scatter attempt) holding a single "fallback" span.
	fbIdx := stats.Attempts
	tr.attemptStart(obsv.Attempt{Index: fbIdx, Kind: obsv.AttemptFallback})
	tr.phaseStart(fbIdx, obsv.PhaseFallback)
	t0 := time.Now()
	tr.labeled("fallback", func() {
		out = seqsemi.TwoPhase(a)
		if red != nil {
			// The fused fallback: sort sequentially, then fold each
			// equal-key run in place (reduce.go).
			out, reps = reduceRuns(ws, out, red)
		}
	})
	stats.Phases.LocalSort += time.Since(t0)
	tr.span(fbIdx, obsv.PhaseFallback, t0, obsv.OutcomeOK)
	tr.attemptEnd(obsv.AttemptEnd{Index: fbIdx, Outcome: obsv.OutcomeOK})
	stats.FallbackUsed = true
	if red != nil {
		stats.ReducedGroups = len(out)
	}
	return out, reps, stats, nil
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
