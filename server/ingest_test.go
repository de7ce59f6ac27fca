package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/obsv"
)

// A declared Content-Length over MaxRequestBytes gets its 413 before the
// server reads a body byte: here the body never arrives at all, so a
// server that read first would hang.
func TestDeclaredOversizeRejectedBeforeRead(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolSize: 1, MaxRequestBytes: 1024})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/semisort HTTP/1.1\r\nHost: test\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", 1<<30)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no prompt response to a 1 GiB declared body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if a := s.pool.Gauges().Admissions.Load(); a != 0 {
		t.Fatalf("Admissions = %d, want 0: an oversized request acquired a worker", a)
	}
}

// A body without a declared length is still capped while it is read.
func TestChunkedOversizeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolSize: 1, MaxRequestBytes: 1024})
	// A reader of unknown length makes the client send the body chunked.
	body := io.MultiReader(bytes.NewReader(make([]byte, 2048)), bytes.NewReader(make([]byte, 2048)))
	resp, err := http.Post(ts.URL+"/v1/semisort", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversized body: status %d, want 413", resp.StatusCode)
	}
}

// lockedBuffer is a bytes.Buffer safe for one writer and one reader.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines waits until b holds n lines, then returns them.
func (b *lockedBuffer) lines(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		data := bytes.Clone(b.buf.Bytes())
		b.mu.Unlock()
		if ls := bytes.Split(bytes.TrimSpace(data), []byte{'\n'}); len(data) > 0 && len(ls) >= n {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace holds %q, want %d lines", data, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every request span carries read_us and write_us, and the four timed
// steps of a request fit inside its total.
func TestRequestSpanTimings(t *testing.T) {
	var trace lockedBuffer
	_, ts := newTestServer(t, Config{PoolSize: 1, Trace: &trace})
	body := encodeRecords(genRecords(50_000, 8))
	paths := []string{"/v1/semisort", "/v1/reduce?op=sum", "/v1/groupby"}
	for _, p := range paths {
		resp := postRecords(t, ts.URL+p, body, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", p, resp.StatusCode)
		}
	}
	resp := postRecords(t, ts.URL+"/v1/semisort", body[:17], nil)
	resp.Body.Close()

	for _, line := range trace.lines(t, len(paths)+1) {
		var fields map[string]any
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"queue_wait_us", "read_us", "sort_us", "write_us", "total_us"} {
			if _, ok := fields[k]; !ok {
				t.Fatalf("span %s has no %q", line, k)
			}
		}
		var sp obsv.RequestSpan
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatal(err)
		}
		parts := []int64{sp.QueueWaitUS, sp.ReadUS, sp.SortUS, sp.WriteUS}
		var sum int64
		for _, v := range parts {
			if v < 0 {
				t.Fatalf("span %s has a negative step", line)
			}
			sum += v
		}
		if sum > sp.TotalUS {
			t.Fatalf("span %s: queue+read+sort+write = %d us > total %d us", line, sum, sp.TotalUS)
		}
		if sp.Outcome == obsv.ReqOK && (sp.ReadUS == 0 && sp.WriteUS == 0) {
			t.Fatalf("span %s: a 50k-record request read and wrote in no time", line)
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// A warm handler allocates far less than the request body per request:
// the body is decoded into a recycled record buffer and the response is
// encoded through the worker's buffer, so neither the body nor its
// decoded records are copied onto the heap anew. Reading the whole body
// first and decoding it into a fresh slice costs about ten bodies.
func TestHandlerSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of its items under the race detector")
	}
	s := New(Config{PoolSize: 1, Semisort: semisort.Config{Procs: 2}})
	defer s.log.Close()
	h := s.Handler()
	body := encodeRecords(genRecords(100_000, 9))
	paths := []string{"/v1/semisort", "/v1/reduce?op=sum"}
	serve := func(reqs []*http.Request) {
		for _, r := range reqs {
			w := &discardWriter{hdr: http.Header{}}
			h.ServeHTTP(w, r)
			if w.status != 0 && w.status != http.StatusOK {
				t.Fatalf("%s: status %d", r.URL, w.status)
			}
		}
	}
	requests := func(n int) []*http.Request {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, paths[i%len(paths)], bytes.NewReader(body))
		}
		return reqs
	}

	serve(requests(4))
	const n = 20
	reqs := requests(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(reqs)
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per request for a %d B body", perReq, len(body))
	if limit := uint64(len(body) / 4); perReq > limit {
		t.Fatalf("warm handler allocates %d B per request, limit %d B (body/4)", perReq, limit)
	}
}
