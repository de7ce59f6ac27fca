package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	semisort "repro"
	"repro/internal/distgen"
	"repro/server"
)

// serviceClients is the number of closed-loop client connections.
const serviceClients = 2

// traceSlice is how long a traced run stays on one of its two servers
// (untraced, traced) before switching to the other.
const traceSlice = 500 * time.Millisecond

// serviceWorkload drives the real server on a loopback listener: each of
// two clients posts a request, reads the whole response, checks it, and
// posts the next, alternating the endpoints in paths.
type serviceWorkload struct {
	n      int
	bodies []body
	paths  []string // endpoints each client cycles through

	servers [2]*svc // untraced, traced (traced runs only)
	client  *http.Client
	strat   map[string]string
}

// body is one request body with the references its responses are
// checked against.
type body struct {
	wire []byte
	sref sortRef
	rref reduceRef
}

// svc is one running server.
type svc struct {
	srv  *server.Server
	url  string
	done chan error
	sink *lineSink     // request spans (traced server only)
	obs  *coreObserver // semisort spans (traced server only)
}

func newService(n, bodies int) *serviceWorkload {
	return &serviceWorkload{n: n, bodies: make([]body, bodies),
		paths: []string{"/v1/semisort", "/v1/reduce?op=sum"}}
}

func (w *serviceWorkload) setup(seed uint64, r *runner) error {
	for i := range w.bodies {
		a := distgen.Generate(2, w.n, distgen.Spec{Kind: distgen.Zipfian, Param: float64(w.n)}, seed*1000+uint64(i))
		b := &w.bodies[i]
		b.sref, b.rref = references(a)
		b.wire = encode(make([]byte, 0, 16*len(a)), a)
		if i == 0 {
			w.strat = resolvedStrategies(a)
		}
	}
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
		DisableCompression:  true,
	}}
	modes := 1
	if r.tracing() {
		modes = 2
	}
	for m := 0; m < modes; m++ {
		cfg := server.Config{PoolSize: 1, Semisort: baseConfig()}
		s := &svc{done: make(chan error, 1)}
		if m == 1 {
			s.sink, s.obs = &lineSink{}, &coreObserver{t: r.tr}
			cfg.Trace, cfg.Semisort.Observer = s.sink, s.obs
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		s.srv = server.New(cfg)
		s.url = "http://" + ln.Addr().String()
		go func() { s.done <- s.srv.Serve(ln) }()
		w.servers[m] = s
	}
	// Warm every server, connection and endpoint, checking each response.
	for _, s := range w.servers[:modes] {
		var wg sync.WaitGroup
		errs := make([]error, serviceClients)
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				var recs []semisort.Record
				for i := 0; i < 2*len(w.paths); i++ {
					status, err := w.post(s, c, i, &buf)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("warm-up request got status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
					}
					if err == nil {
						recs, err = w.check(c, i, buf.Bytes(), recs)
					}
					if err != nil {
						errs[c] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if s.sink != nil {
			s.sink.take()
			s.obs.takeGroups()
		}
	}
	return nil
}

// resolvedStrategies reports the scatter strategy the default
// configuration resolves to on a, for each endpoint's operation.
func resolvedStrategies(a []semisort.Record) map[string]string {
	cfg := baseConfig()
	s := semisort.NewSorter(&cfg)
	defer s.Release()
	out := map[string]string{}
	if _, st, err := s.SortConfigShared(a, &cfg); err == nil {
		out["/v1/semisort"] = st.ScatterStrategy
	}
	if _, st, err := s.ReduceShared(a, sumReducer); err == nil {
		out["/v1/reduce?op=sum"] = st.ScatterStrategy
	}
	return out
}

// bodyFor is the body client c sends as its i-th request.
func (w *serviceWorkload) bodyFor(c, i int) *body {
	return &w.bodies[(i*serviceClients+c)%len(w.bodies)]
}

// post sends client c's i-th request to s and reads the response into
// buf.
func (w *serviceWorkload) post(s *svc, c, i int, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+w.paths[i%len(w.paths)], bytes.NewReader(w.bodyFor(c, i).wire))
	if err != nil {
		return 0, err
	}
	// Each client is its own tenant, so the server's request spans can
	// be matched to the client's requests in order.
	req.Header.Set("X-Semisort-Tenant", tenant(c))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func tenant(c int) string { return fmt.Sprintf("client%d", c) }

// check verifies the response to client c's i-th request, decoding into
// recs (returned for reuse).
func (w *serviceWorkload) check(c, i int, resp []byte, recs []semisort.Record) ([]semisort.Record, error) {
	recs, err := decode(recs, resp)
	if err == nil {
		b := w.bodyFor(c, i)
		if w.paths[i%len(w.paths)] == "/v1/semisort" {
			err = checkSort(recs, b.sref)
		} else {
			err = checkReduce(recs, b.rref)
		}
	}
	if err != nil {
		return recs, wrong("client %d request %d (%s): %v", c, i, w.paths[i%len(w.paths)], err)
	}
	return recs, nil
}

// tracedReq is a traced request as the client saw it.
type tracedReq struct {
	op, root int
	dur      time.Duration
}

func (w *serviceWorkload) run(r *runner) error {
	start := time.Now()
	deadline := start.Add(r.seconds)
	mode := func(t time.Time) int {
		if !r.tracing() {
			return 0
		}
		return int(t.Sub(start)/traceSlice) % 2
	}
	stopGC := make(chan struct{})
	var gcDone sync.WaitGroup
	if r.tracing() {
		gcDone.Add(1)
		go func() {
			defer gcDone.Done()
			w.sliceGC(r, start, stopGC)
		}()
	}
	r.concurrent = true
	r.openWindow(start)
	var wg sync.WaitGroup
	errs := make([]error, serviceClients)
	traced := make([][]tracedReq, serviceClients)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var recs []semisort.Record
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				m := mode(t0)
				r.begin(m, t0)
				status, err := w.post(w.servers[m], c, i, &buf)
				t1 := time.Now()
				failed := err != nil || status != http.StatusOK
				r.end(t1, opSample{mode: m, dur: t1.Sub(t0), records: w.n, failed: failed})
				if m == 1 {
					op := r.tr.newOp()
					root := r.tr.add(span{Op: op, Name: "http.request", Start: t0.Sub(r.tr.epoch), End: t1.Sub(r.tr.epoch)})
					traced[c] = append(traced[c], tracedReq{op: op, root: root, dur: t1.Sub(t0)})
				}
				if failed {
					continue
				}
				if recs, err = w.check(c, i, buf.Bytes(), recs); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	r.flushWindow()
	close(stopGC)
	gcDone.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if r.tracing() {
		return w.attribute(r, traced)
	}
	return nil
}

// sliceGC attributes the collections of each trace slice to its mode.
func (w *serviceWorkload) sliceGC(r *runner, start time.Time, stop <-chan struct{}) {
	var prev, cur runtime.MemStats
	runtime.ReadMemStats(&prev)
	for k := 0; ; k++ {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k+1) * traceSlice)))
		stopped := false
		select {
		case <-stop:
			t.Stop()
			stopped = true
		case <-t.C:
		}
		runtime.ReadMemStats(&cur)
		r.addGC(k%2, &prev, &cur)
		if stopped {
			return
		}
		prev = cur
	}
}

// requestSpan is the JSON form of the server's per-request span
// (server.Config.Trace, documented in docs/OBSERVABILITY.md).
type requestSpan struct {
	Start       time.Time `json:"start"`
	Tenant      string    `json:"tenant"`
	Status      int       `json:"status"`
	Outcome     string    `json:"outcome"`
	QueueWaitUS int64     `json:"queue_wait_us"`
	SortUS      int64     `json:"sort_us"`
	TotalUS     int64     `json:"total_us"`
	Attempts    int       `json:"attempts"`
	Fallback    bool      `json:"fallback"`
}

// attribute nests the traced server's request spans under the clients'
// request spans (the k-th span of a client's tenant is the client's k-th
// traced request), and the semisort spans under the request that ran
// them (the server sorts one request at a time, and spans of sorted
// requests are written in the order the sorts ran).
func (w *serviceWorkload) attribute(r *runner, traced [][]tracedReq) error {
	s := w.servers[1]
	want := 0
	for _, reqs := range traced {
		want += len(reqs)
	}
	var spans []requestSpan        // in trace order
	byTenant := map[string][]int{} // indexes into spans
	sc := bufio.NewScanner(bytes.NewReader(s.sink.wait(want, 5*time.Second)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rs requestSpan
		if err := json.Unmarshal(sc.Bytes(), &rs); err != nil {
			return fmt.Errorf("parse request span: %w", err)
		}
		byTenant[rs.Tenant] = append(byTenant[rs.Tenant], len(spans))
		spans = append(spans, rs)
	}
	// A client's requests are sequential, so their handlers start in
	// order even if two trace lines were written out of order.
	for _, idx := range byTenant {
		slices.SortFunc(idx, func(a, b int) int { return spans[a].Start.Compare(spans[b].Start) })
	}
	sortSpan := make([][2]int, len(spans)) // queue_wait and sort span ids of each sorted request
	for c, reqs := range traced {
		got := byTenant[tenant(c)]
		if len(got) != len(reqs) {
			return fmt.Errorf("client %d made %d traced requests, server traced %d", c, len(reqs), len(got))
		}
		for k, q := range reqs {
			rs := spans[got[k]]
			start := r.tr.at(rs.Start)
			total := time.Duration(rs.TotalUS) * time.Microsecond
			queue := time.Duration(rs.QueueWaitUS) * time.Microsecond
			sortD := time.Duration(rs.SortUS) * time.Microsecond
			end := start + total
			req := r.tr.add(span{Op: q.op, Parent: q.root, Name: "server.request", Start: start, End: end})
			// RequestSpan records durations, not offsets: the queue wait
			// and the sort are laid out back to back at the request's end,
			// and moved below to where the semisort spans show the sort
			// began.
			qid := r.tr.add(span{Op: q.op, Parent: req, Name: "server.queue_wait", Start: end - sortD - queue, End: end - sortD})
			id := r.tr.add(span{Op: q.op, Parent: req, Name: "server.sort", Start: end - sortD, End: end})
			if rs.Outcome == "ok" {
				sortSpan[got[k]] = [2]int{qid, id}
			}
			nonsort := total - queue - sortD
			r.setVal(q.op, "server.total_ms", ms(total))
			r.setVal(q.op, "server.queue_wait_ms", ms(queue))
			r.setVal(q.op, "server.sort_ms", ms(sortD))
			r.setVal(q.op, "server.nonsort_ms", ms(nonsort))
			if total > 0 {
				r.setVal(q.op, "server.nonsort_share", float64(nonsort)/float64(total))
			}
			r.setVal(q.op, "http.transport_ms", ms(q.dur-total))
			r.setVal(q.op, "core.retries", float64(max(rs.Attempts-1, 0)))
			r.setVal(q.op, "core.fallbacks", b2f(rs.Fallback))
		}
	}
	var sorted [][2]int
	for _, ids := range sortSpan {
		if ids[1] != 0 {
			sorted = append(sorted, ids)
		}
	}
	groups := s.obs.takeGroups()
	if len(groups) != len(sorted) {
		return fmt.Errorf("server ran %d traced semisorts for %d sorted requests", len(groups), len(sorted))
	}
	for g, ids := range groups {
		queue, sortS := r.tr.get(sorted[g][0]), r.tr.get(sorted[g][1])
		begin := r.tr.get(ids[0]).Start // the call's first attempt
		for _, id := range ids {
			r.tr.update(id, func(x *span) {
				x.Op = sortS.Op
				if x.Name == "core.attempt" {
					x.Parent = sortS.ID
				}
			})
		}
		r.tr.update(sortS.ID, func(x *span) { x.Start, x.End = begin, begin+sortS.dur() })
		r.tr.update(queue.ID, func(x *span) { x.Start, x.End = begin-queue.dur(), begin })
	}
	return nil
}

func (w *serviceWorkload) meta() map[string]any {
	first, _ := decode(nil, w.bodies[0].wire)
	in := inputMeta(first, w.bodies[0].sref.distinct)
	in["bodies"] = len(w.bodies)
	return map[string]any{
		"input":            in,
		"clients":          serviceClients,
		"pool_size":        1,
		"endpoints":        w.paths,
		"scatter_strategy": w.strat,
	}
}

func (w *serviceWorkload) close() error {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	var errs []error
	for i, s := range w.servers {
		if s == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		cancel()
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		w.servers[i] = nil
	}
	return errors.Join(errs...)
}

// lineSink is the io.Writer the traced server writes its request spans
// to; it keeps them in memory until take.
type lineSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lineSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// wait returns and clears everything written so far once it holds at
// least n lines, or once timeout has passed: the server writes a request's
// span just after the response's last byte, so the client can finish
// first.
func (l *lineSink) wait(n int, timeout time.Duration) []byte {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		got := bytes.Count(l.buf.Bytes(), []byte{'\n'})
		l.mu.Unlock()
		if got >= n || time.Now().After(deadline) {
			return l.take()
		}
		time.Sleep(time.Millisecond)
	}
}

// take returns and clears everything written so far.
func (l *lineSink) take() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := bytes.Clone(l.buf.Bytes())
	l.buf.Reset()
	return out
}
