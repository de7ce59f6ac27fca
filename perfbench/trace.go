package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	semisort "repro"
)

// span is one interval of the traced run. Spans of one op share Op; a
// span nests under Parent (0 for an op's root span).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span of a traced run in memory; write dumps them at
// the end. Span ids are 1-based indexes into spans.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// at converts a wall-clock instant (as the server's request spans carry
// it) to an offset from the tracer's epoch.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch.Round(0)) }

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// update applies fn to the span with the given id.
func (t *tracer) update(id int, fn func(*span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(&t.spans[id-1])
}

// get returns a copy of the span with the given id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// byOp groups the spans by op id.
func (t *tracer) byOp() map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int][]span)
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	// Insertion sort: an op has few children per span.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// write dumps the spans, one JSON object per line, each with its self
// time, to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		row := struct {
			span
			SelfNS time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// coreObserver is the semisort.Observer the benchmark attaches in traced
// ops. It turns attempts and phases into spans nested under parent (set
// before each op) and the shuffle's seal, prefetch and compress spans into
// children of parent too. It is safe for use by one semisort at a time on
// any goroutine.
type coreObserver struct {
	t *tracer

	mu      sync.Mutex
	op      int
	parent  int
	attempt int   // open attempt span id, 0 when none
	rounds  []int // sampleround spans waiting for their sample span
	// groups lists the span ids of each semisort call seen, split at
	// every fresh attempt; the service attributes them to requests
	// after the run.
	groups [][]int
}

func (o *coreObserver) setParent(op, parent int) {
	o.mu.Lock()
	o.op, o.parent = op, parent
	o.mu.Unlock()
}

func (o *coreObserver) AttemptStart(a semisort.Attempt) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.t.now()
	o.attempt = o.t.add(span{Parent: o.parent, Op: o.op, Name: "core.attempt", Start: now, End: now})
	if a.Index == 0 || len(o.groups) == 0 {
		o.groups = append(o.groups, nil)
	}
	o.track(o.attempt)
}

func (o *coreObserver) PhaseStart(int, semisort.Phase) {}

func (o *coreObserver) PhaseEnd(s semisort.Span) {
	o.mu.Lock()
	defer o.mu.Unlock()
	end := o.t.now()
	sp := span{Op: o.op, Start: end - s.Duration, End: end, Name: "core." + s.Phase.String(), Parent: o.attempt}
	// The shuffle's own phases are not exported by name; they are told
	// apart by their String form.
	switch s.Phase.String() {
	case semisort.PhaseSampleRound.String():
		sp.Parent = -1 // adopted by the enclosing sample span below
		id := o.t.add(sp)
		o.rounds = append(o.rounds, id)
		o.track(id)
		return
	case "spill":
		sp.Name, sp.Parent = "external.seal", o.parent
	case "prefetch":
		sp.Name, sp.Parent = "external.prefetch_wait", o.parent
	case "compress":
		sp.Name, sp.Parent = "external.compress", o.parent
	}
	if sp.Parent == 0 {
		sp.Parent = o.parent
	}
	id := o.t.add(sp)
	o.track(id)
	if s.Phase == semisort.PhaseSample {
		for _, r := range o.rounds {
			o.t.update(r, func(x *span) { x.Parent = id })
		}
		o.rounds = o.rounds[:0]
	}
}

func (o *coreObserver) AttemptEnd(semisort.AttemptEnd) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.attempt != 0 {
		end := o.t.now()
		o.t.update(o.attempt, func(x *span) { x.End = end })
		o.attempt = 0
	}
}

// track appends id to the current semisort call's group.
func (o *coreObserver) track(id int) {
	if len(o.groups) > 0 {
		g := &o.groups[len(o.groups)-1]
		*g = append(*g, id)
	}
}

// takeGroups returns and clears the recorded semisort calls.
func (o *coreObserver) takeGroups() [][]int {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := o.groups
	o.groups = nil
	return g
}
