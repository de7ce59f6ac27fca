package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	semisort "repro"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/rec"
)

// sortResult is what one admitted request produced: the semisorted
// records (a view into the worker's shared output buffer, valid until
// Release), the sort stats, and how it failed if it did.
type sortResult struct {
	out      []semisort.Record
	stats    semisort.Stats
	err      error
	panicked bool
	panicVal any
	// enc is the worker's encode buffer for the response, also valid
	// until Release.
	enc []byte
}

// sumReducer is the /v1/reduce op=sum aggregation: per key, the uint64
// sum of record values (wrapping).
var sumReducer = semisort.Reducer{
	Fold:  func(acc, v uint64) uint64 { return acc + v },
	Merge: func(a, b uint64) uint64 { return a + b },
}

// runSort executes the semisort — or, when req carries a reduce op, the
// fused reduction — on wk's workspace, converting a handler panic
// (including the injected ServerHandlerPanic) into a result instead of
// letting it unwind into net/http — net/http would recover it too, but
// then the connection dies without a response and the worker would leak.
func (s *Server) runSort(ctx context.Context, wk *Worker, req *request) (res sortResult) {
	defer func() {
		if v := recover(); v != nil {
			res.panicked, res.panicVal = true, v
		}
	}()
	if fault.Should(fault.ServerHandlerPanic) {
		panic(fault.PanicValue)
	}
	cfg := s.cfg.Semisort
	cfg.Context = ctx
	cfg.MaxRetainedBytes = s.pool.workerBudget(req.tenant)
	// Shared-output calls: the output lives in the workspace (zero
	// allocations in steady state) and is written to the response before
	// Release; the retained-bytes budget covers it like any other scratch
	// buffer.
	var (
		out []semisort.Record
		st  semisort.Stats
		err error
	)
	switch req.op {
	case "":
		out, st, err = wk.sorter.SortConfigShared(req.in.recs, &cfg)
	case "count":
		out, st, err = wk.sorter.HistogramConfigShared(req.in.recs, &cfg)
	case "sum":
		out, st, err = wk.sorter.ReduceConfigShared(req.in.recs, sumReducer, &cfg)
	default:
		// handleReduce validates the op before admission; reaching here is
		// a programming error, reported rather than panicking.
		err = fmt.Errorf("unknown reduce op %q", req.op)
	}
	res.out, res.stats, res.err = out, st, err
	return res
}

// ingestBuf is the decoded-record buffer of one request. ingestPool
// recycles them, so a warm server decodes a body into capacity an
// earlier request already grew instead of growing a fresh slice.
type ingestBuf struct {
	recs []semisort.Record
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBuf) }}

// request is the per-request state threaded through the common pipeline
// shared by the record-out and JSON-out endpoints.
type request struct {
	span    obsv.RequestSpan
	tenant  string
	in      *ingestBuf
	started time.Time
	cancel  context.CancelFunc
	// op selects the worker-side operation: "" for a plain semisort,
	// "count" or "sum" for the /v1/reduce aggregations.
	op string
}

// done ends the request: it cancels the request context and returns the
// ingest buffer to the pool. Handlers defer it, so it runs after the
// response, success or error, has been written.
func (req *request) done() {
	req.cancel()
	ingestPool.Put(req.in)
}

// accept runs the shared front half of every sort endpoint: fault check,
// tenant/deadline extraction, body decode. It returns a nil request after
// writing an error response itself; otherwise the caller must call the
// request's done method.
func (s *Server) accept(w http.ResponseWriter, r *http.Request) (*request, context.Context) {
	req := &request{started: time.Now()}
	req.span = obsv.RequestSpan{
		Seq:   s.seq.Add(1),
		Start: req.started,
		Path:  r.URL.Path,
	}
	if s.draining.Load() {
		s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqShed, "draining")
		return nil, nil
	}
	if fault.Should(fault.ServerAccept) {
		s.finish(w, req, http.StatusInternalServerError, obsv.ReqError, "injected accept fault")
		return nil, nil
	}
	req.tenant = r.Header.Get("X-Semisort-Tenant")
	if req.tenant == "" {
		req.tenant = r.URL.Query().Get("tenant")
	}
	req.span.Tenant = req.tenant

	timeout := s.cfg.RequestTimeout
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 {
			s.finish(w, req, http.StatusBadRequest, obsv.ReqBadInput, "bad timeout_ms")
			return nil, nil
		}
		if d := time.Duration(v) * time.Millisecond; d < timeout {
			timeout = d
		}
	}

	// A declared length over the cap is refused before any body byte is
	// read; MaxBytesReader still caps chunked bodies and bodies without a
	// length.
	if r.ContentLength > s.cfg.MaxRequestBytes {
		s.finish(w, req, http.StatusRequestEntityTooLarge, obsv.ReqBadInput,
			fmt.Sprintf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, s.cfg.MaxRequestBytes))
		return nil, nil
	}
	readStart := time.Now()
	req.in = ingestPool.Get().(*ingestBuf)
	var err error
	req.in.recs, req.span.BytesIn, err = rec.ReadRecords(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes), req.in.recs[:0])
	req.span.ReadUS = time.Since(readStart).Microseconds()
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.finish(w, req, status, obsv.ReqBadInput, err.Error())
		ingestPool.Put(req.in)
		return nil, nil
	}
	req.span.Records = len(req.in.recs)

	// The request context combines the server base context (drain), the
	// client connection (disconnect) and the per-request deadline.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	req.cancel = cancel
	return req, ctx
}

// sortThrough runs admission + sort for req and hands the result to emit
// while the worker is still held (the output aliases its workspace).
// emit must write the success response; sortThrough writes every error
// response itself.
func (s *Server) sortThrough(w http.ResponseWriter, req *request, ctx context.Context,
	emit func(res sortResult) (bytesOut int64, err error)) {

	queueStart := time.Now()
	wk, err := s.pool.Acquire(ctx)
	req.span.QueueWaitUS = time.Since(queueStart).Microseconds()
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.999)))
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqShed, "admission queue full")
		case s.baseCtx.Err() != nil:
			s.pool.Gauges().Drains.Add(1)
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqCanceled, "server draining")
		case errors.Is(err, context.DeadlineExceeded):
			s.finish(w, req, http.StatusGatewayTimeout, obsv.ReqTimeout, "deadline exceeded in queue")
		default:
			s.finish(w, req, 0, obsv.ReqCanceled, "client gone while queued")
		}
		return
	}

	sortStart := time.Now()
	res := s.runSort(ctx, wk, req)
	req.span.SortUS = time.Since(sortStart).Microseconds()

	if res.panicked {
		// The workspace was abandoned mid-sort; discard its buffers so a
		// possibly half-written scratch state never serves another
		// request, and recycle the slot — the pool is not poisoned.
		s.pool.Gauges().Panics.Add(1)
		s.pool.Release(wk, req.tenant, true)
		s.finish(w, req, http.StatusInternalServerError, obsv.ReqPanic,
			fmt.Sprintf("handler panic: %v", res.panicVal))
		return
	}

	if res.err != nil {
		s.pool.Release(wk, req.tenant, false)
		switch {
		case s.baseCtx.Err() != nil:
			s.pool.Gauges().Drains.Add(1)
			s.finish(w, req, http.StatusServiceUnavailable, obsv.ReqCanceled, "canceled by drain")
		case errors.Is(res.err, context.DeadlineExceeded):
			s.pool.Gauges().Timeouts.Add(1)
			s.finish(w, req, http.StatusGatewayTimeout, obsv.ReqTimeout, "deadline exceeded")
		case errors.Is(res.err, context.Canceled):
			s.pool.Gauges().Timeouts.Add(1)
			s.finish(w, req, 0, obsv.ReqCanceled, "client disconnected")
		default:
			// A real sort failure (e.g. overflow exhaustion with the
			// fallback disabled): clean 500, workspace already recycled.
			s.finish(w, req, http.StatusInternalServerError, obsv.ReqError, res.err.Error())
		}
		return
	}

	req.span.Attempts = res.stats.Attempts
	req.span.FallbackUsed = res.stats.FallbackUsed
	res.enc = wk.enc
	writeStart := time.Now()
	n, werr := emit(res)
	req.span.WriteUS = time.Since(writeStart).Microseconds()
	req.span.BytesOut = n
	s.pool.Release(wk, req.tenant, false)
	if werr != nil {
		// The sort succeeded but the client went away mid-response; log
		// it — there is nobody left to send a status to.
		req.span.Status = http.StatusOK
		req.span.Outcome = obsv.ReqCanceled
		req.span.TotalUS = time.Since(req.started).Microseconds()
		s.trace(req.span)
		return
	}
	req.span.Status = http.StatusOK
	req.span.Outcome = obsv.ReqOK
	req.span.TotalUS = time.Since(req.started).Microseconds()
	s.trace(req.span)
}

// finish writes an error (or shed) response and logs the span. A zero
// status means the client is already gone and nothing is written.
func (s *Server) finish(w http.ResponseWriter, req *request, status int, outcome, msg string) {
	if status != 0 {
		http.Error(w, msg, status)
	}
	req.span.Status = status
	req.span.Outcome = outcome
	req.span.TotalUS = time.Since(req.started).Microseconds()
	s.trace(req.span)
}

// emitRecords streams res.out as raw 16-byte records, encoded through
// the worker's buffer res.enc — the success response of the record-out
// endpoints.
func emitRecords(w http.ResponseWriter, res sortResult) (int64, error) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.out)*rec.RecordSize))
	var written int64
	const chunk = encodeBytes / rec.RecordSize
	out := res.out
	for len(out) > 0 {
		n := min(len(out), chunk)
		buf := rec.AppendRecords(res.enc[:0], out[:n])
		m, err := w.Write(buf)
		written += int64(m)
		if err != nil {
			return written, err
		}
		out = out[n:]
	}
	return written, nil
}

// handleSemisort is POST /v1/semisort: raw 16-byte records in, the same
// records semisorted out.
func (s *Server) handleSemisort(w http.ResponseWriter, r *http.Request) {
	req, ctx := s.accept(w, r)
	if req == nil {
		return
	}
	defer req.done()
	s.sortThrough(w, req, ctx, func(res sortResult) (int64, error) {
		return emitRecords(w, res)
	})
}

// handleReduce is POST /v1/reduce: raw records in, one record per
// distinct key out, aggregated fused on the worker (docs/AGGREGATION.md).
// The op query parameter selects the aggregation: "count" (the default;
// Value = the key's multiplicity) or "sum" (Value = the wrapping uint64
// sum of the key's record values). Any other op is a 400.
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	req, ctx := s.accept(w, r)
	if req == nil {
		return
	}
	defer req.done()
	switch op := r.URL.Query().Get("op"); op {
	case "", "count":
		req.op = "count"
	case "sum":
		req.op = "sum"
	default:
		s.finish(w, req, http.StatusBadRequest, obsv.ReqBadInput, fmt.Sprintf("unknown op %q", op))
		return
	}
	s.sortThrough(w, req, ctx, func(res sortResult) (int64, error) {
		return emitRecords(w, res)
	})
}

// groupSummary is the POST /v1/groupby response shape.
type groupSummary struct {
	Records   int    `json:"records"`
	Groups    int    `json:"groups"`
	MaxGroup  int    `json:"max_group"`
	Attempts  int    `json:"attempts"`
	Fallback  bool   `json:"fallback,omitempty"`
	HeavyKeys int    `json:"heavy_keys"`
	Tenant    string `json:"tenant,omitempty"`
}

// handleGroupBy is POST /v1/groupby: raw records in, a JSON group-by
// summary out (group count, largest group, recovery footprint) — the
// collect-style endpoint for clients that want aggregates, not bytes.
func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	req, ctx := s.accept(w, r)
	if req == nil {
		return
	}
	defer req.done()
	s.sortThrough(w, req, ctx, func(res sortResult) (int64, error) {
		sum := groupSummary{
			Records:   len(res.out),
			Attempts:  res.stats.Attempts,
			Fallback:  res.stats.FallbackUsed,
			HeavyKeys: res.stats.HeavyKeys,
			Tenant:    req.tenant,
		}
		rec.Runs(res.out, func(start, end int) {
			sum.Groups++
			if end-start > sum.MaxGroup {
				sum.MaxGroup = end - start
			}
		})
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(sum)
		n, err := w.Write(append(b, '\n'))
		return int64(n), err
	})
}
