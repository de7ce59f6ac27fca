package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/obsv"
)

// RingLog is a bounded MPSC access/error log: request handlers (many
// producers) push RequestSpan entries without ever blocking, and one
// consumer goroutine formats and writes them to an io.Writer. When the
// consumer falls behind and the ring fills, producers drop entries and
// count the drops instead of stalling the request path — a resident
// server must never let a slow log disk (or a blocked stderr pipe)
// back-pressure request latency.
//
// The ring is a Vyukov-style bounded queue restricted to one consumer:
// each slot carries a sequence number; a producer claims slot positions
// with a CAS on the tail cursor and publishes by storing seq = pos+1; the
// consumer reads slot head when its seq says the entry is published and
// recycles it by storing seq = head+capacity.
type RingLog struct {
	slots []ringSlot
	mask  int64
	tail  atomic.Int64 // next position to claim (producers)
	head  int64        // next position to consume (consumer only)

	drops  atomic.Int64
	wake   chan struct{}
	quit   chan struct{}
	done   chan struct{}
	w      io.Writer
	errCnt atomic.Int64

	closeOnce sync.Once
}

type ringSlot struct {
	seq  atomic.Int64
	span obsv.RequestSpan
}

// NewRingLog returns a running ring log of the given capacity (rounded up
// to a power of two, minimum 64) writing formatted entries to w. Close
// flushes and stops the consumer. A nil w discards entries after counting
// them, which keeps the producer path identical in benchmarks.
func NewRingLog(capacity int, w io.Writer) *RingLog {
	c := int64(64)
	for c < int64(capacity) {
		c <<= 1
	}
	l := &RingLog{
		slots: make([]ringSlot, c),
		mask:  c - 1,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		w:     w,
	}
	for i := range l.slots {
		l.slots[i].seq.Store(int64(i))
	}
	go l.consume()
	return l
}

// Push publishes one entry. It never blocks: if the ring is full the
// entry is dropped and counted. Safe for concurrent use.
func (l *RingLog) Push(span obsv.RequestSpan) {
	for {
		pos := l.tail.Load()
		slot := &l.slots[pos&l.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if !l.tail.CompareAndSwap(pos, pos+1) {
				continue // lost the claim race; retry
			}
			slot.span = span
			slot.seq.Store(pos + 1)
			select {
			case l.wake <- struct{}{}:
			default:
			}
			return
		case seq < pos:
			// The consumer has not recycled this slot: ring full.
			l.drops.Add(1)
			return
		default:
			// Another producer advanced tail between our loads; retry.
		}
	}
}

// Drops reports how many entries were dropped because the ring was full.
func (l *RingLog) Drops() int64 { return l.drops.Load() }

// WriteErrors reports how many formatted entries failed to write.
func (l *RingLog) WriteErrors() int64 { return l.errCnt.Load() }

// Close stops the consumer after draining every published entry. It is
// idempotent and safe to call concurrently with Push (entries pushed
// after Close may be dropped).
func (l *RingLog) Close() {
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
}

func (l *RingLog) consume() {
	defer close(l.done)
	for {
		if l.drain() {
			continue // drained something; check again before sleeping
		}
		select {
		case <-l.wake:
		case <-l.quit:
			l.drain()
			return
		}
	}
}

// drain consumes every published entry, returning whether any was seen.
func (l *RingLog) drain() bool {
	any := false
	for {
		slot := &l.slots[l.head&l.mask]
		if slot.seq.Load() != l.head+1 {
			return any
		}
		span := slot.span
		slot.seq.Store(l.head + int64(len(l.slots)))
		l.head++
		any = true
		l.emit(span)
	}
}

// emit formats one access-log line:
//
//	seq=12 path=/v1/semisort tenant=t0 status=200 outcome=ok records=4096 in=65536 out=65536 queue_us=12 read_us=41 sort_us=833 write_us=20 total_us=912
func (l *RingLog) emit(s obsv.RequestSpan) {
	if l.w == nil {
		return
	}
	_, err := fmt.Fprintf(l.w,
		"seq=%d path=%s tenant=%s status=%d outcome=%s records=%d in=%d out=%d queue_us=%d read_us=%d sort_us=%d write_us=%d total_us=%d\n",
		s.Seq, s.Path, s.Tenant, s.Status, s.Outcome, s.Records,
		s.BytesIn, s.BytesOut, s.QueueWaitUS, s.ReadUS, s.SortUS, s.WriteUS, s.TotalUS)
	if err != nil {
		l.errCnt.Add(1)
	}
}
