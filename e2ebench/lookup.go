package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"mapit/internal/core"
	"mapit/internal/serve"
	"mapit/internal/snapshot"
)

// lookupConns is the lookup workload's client count: one closed-loop
// keep-alive connection per CPU of the reference machine (2), so the
// load generator never needs more CPUs than the server has.
const lookupConns = 2

// daemon is mapitd's serving half: a serve.Server behind a loopback
// listener.
type daemon struct {
	cfg core.Config
	srv *serve.Server
	l   *listener
}

func (d *daemon) close() {
	if d.l != nil {
		d.l.close()
	}
	d.srv.Close()
}

// startDaemon is mapitd's start-up: parse the metadata, create the
// server, load the corpus (if any) through Server.Ingest, listen, and
// wait until /v1/healthz answers.
func startDaemon(m meta, workers int, window time.Duration, corpus []byte) (*daemon, error) {
	cfg, err := parseMeta(m, workers)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{Config: cfg, Workers: workers, Window: window})
	if err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, srv: srv}
	if corpus != nil {
		if _, err := srv.Ingest(bytes.NewReader(corpus)); err != nil {
			d.close()
			return nil, fmt.Errorf("startup ingest: %w", err)
		}
	}
	if d.l, err = listen(srv.Handler()); err != nil {
		d.close()
		return nil, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	if err := waitReady(c, d.l.base, corpus != nil); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// lookupTail is the percentile op_tail_ms reports for lookups, as the
// median over the run's seconds of each second's percentile. The 16-address
// requests fill the slowest tenth; p99 falls where GC cycles slow them, and
// the run-to-run spread of a second's p99 reached 0.2 where p95's stayed
// between 0.02 and 0.11. The run's p99 is reported per layer
// (http.lookup_p99_us).
const lookupTail = 95.0

// lookupSetupRepeats is how many daemons the lookup workload starts to
// measure setup_s; each start loads the whole corpus.
const lookupSetupRepeats = 3

// runLookup is the lookup workload: a daemon loaded with the large
// corpus answers a closed loop of GET /v1/lookup over lookupConns
// keep-alive connections; every response is checked against the
// reference.
func runLookup(o opts) (*report, error) {
	t0 := time.Now()
	in, err := genLarge(o.seed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	d, setupS, err := repeatSetup(lookupSetupRepeats, true, func() (*daemon, error) {
		return startDaemon(in.meta, o.workers, 0, in.corpus)
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	ref, err := newReference(in.ds.Traces, d.cfg)
	if err != nil {
		return nil, err
	}
	in.ds = nil
	reqs := lookupMix(ref.hits, o.seed)
	v := newVerifier(ref, reqs)
	rep := newReport()
	rep.note("lookup: %d requests over %d inferred addresses; inputs %.1fs, reference and setup %.1fs",
		len(reqs), len(ref.hits), genS, time.Since(t0).Seconds()-genS)

	// Warm-up: every request once on one connection, untimed; each
	// correct body is remembered, so the timed phase checks by comparison.
	client := newClient(lookupConns)
	defer client.CloseIdleConnections()
	warm := newLoopStats(time.Now(), 0)
	lookupLoop(warm, client, nil, "", d.l.base, reqs, 0, len(reqs), 0, func(i, status int, body []byte) error {
		return v.remember(i, status, body)
	}, nil)
	warm.addTo(rep)

	if !o.trace {
		st, peak := closedLoop(client, nil, d.l.base, reqs, v, o.seed, o.seconds)
		st.addTo(rep)
		counts, tails := st.perSecond(lookupTail)
		p50 := st.lat.percentile(50, time.Millisecond)
		rep.metrics["setup_s"] = setupS
		rep.metrics["ops_per_s"] = counts.median()
		rep.metrics["op_p50_ms"] = p50
		rep.metrics["op_tail_ms"] = tails.median()
		rep.metrics["peak_heap_mb"] = peak
		p, val, n, _ := tailOf(int(st.lat.n), func(p float64) float64 { return st.lat.percentile(p, time.Millisecond) })
		rep.note("round trips: n=%d p50=%.1fus p95=%.1fus p99=%.1fus, median of per-second p%g %.1fus; highest percentile with 10 beyond: p%g=%.1fus",
			n, p50*1000, st.lat.percentile(95, time.Microsecond), st.lat.percentile(99, time.Microsecond),
			lookupTail, tails.median()*1000, p, val*1000)
		return rep, nil
	}
	return rep, traceLookup(o, rep, in, d, reqs, v)
}

// closedLoop runs lookupConns closed-loop connections for the given
// time and returns their merged stats and the peak live heap.
func closedLoop(c *http.Client, t *tracer, base string, reqs []request, v *verifier, seed int64, d time.Duration) (*loopStats, float64) {
	runtime.GC()
	stop := make(chan struct{})
	start := time.Now()
	res := make([]*loopStats, lookupConns)
	for k := range res {
		res[k] = newLoopStats(start, d)
	}
	var wg sync.WaitGroup
	hp := startHeapPeak()
	for k := 0; k < lookupConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			from := int(uint64(seed)*2654435761%uint64(len(reqs))) + k*len(reqs)/lookupConns
			lookupLoop(res[k], c, t, fmt.Sprintf("conn-%d", k), base, reqs, from, 0, 0, v.check, stop)
		}(k)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	peak := hp.end()
	for _, r := range res[1:] {
		res[0].merge(r)
	}
	return res[0], peak
}

// traceLookup is the lookup workload's traced run. It times, from the
// outside, each layer a lookup crosses: the start-up pipeline
// (Ingestor, RunEvidence, Build, Swap), Snapshot.Lookup, the serve
// handler in-process, and the socket round trip untraced and traced.
func traceLookup(o opts, rep *report, in *largeCorpus, d *daemon, reqs []request, v *verifier) error {
	tr := newTracer()
	m := rep.metrics
	phase := o.seconds / 4

	// The start-up pipeline, as Server.Ingest runs it.
	var h snapshot.Handle
	p, err := pipelinePass(tr, "startup", in.corpus, d.cfg, core.IngestOptions{Workers: o.workers, TrackMonitors: true}, &h)
	if err != nil {
		return err
	}
	if _, err := decodeOnly(tr, "startup", in.corpus); err != nil {
		return err
	}
	self := selfTimes(tr.snapshot())
	pipelineLayers(m, self)
	m["trace.decode_ms"] = medianSelf(self, "trace.decode", time.Millisecond)
	passCounts(m, p)

	// Snapshot.Lookup over every address of the mix.
	snap := h.Load()
	var perLookup sample
	for deadline := time.Now().Add(phase / 2); time.Now().Before(deadline) || len(perLookup) < 3; {
		n := 0
		start := time.Now()
		for _, r := range reqs {
			for _, a := range r.addrs {
				n += snap.Lookup(a).Len()
			}
		}
		perLookup = append(perLookup, float64(time.Since(start).Nanoseconds())/float64(lookupKeys(reqs)))
		if n == 0 {
			return fmt.Errorf("snapshot lookups found nothing")
		}
	}
	m["snapshot.lookup_ns"] = perLookup.median()

	// The handler in-process, without a socket.
	handlerUS, allocs, bytesPer := inProcessHandler(d.srv.Handler(), reqs, v, rep, phase/2)
	m["serve.handler_us"] = handlerUS
	m["serve.handler_allocs"] = allocs
	m["serve.response_bytes"] = bytesPer

	// The socket round trip, untraced and then traced (a second
	// listener on the same server, with a span-recording wrapper).
	client := newClient(lookupConns)
	defer client.CloseIdleConnections()
	rc := readRuntimeCounters()
	un, _ := closedLoop(client, nil, d.l.base, reqs, v, o.seed, phase)
	delta := readRuntimeCounters().since(rc)
	un.addTo(rep)
	tl, err := listen(tracedHandler(tr, d.srv.Handler()))
	if err != nil {
		return err
	}
	defer tl.close()
	tracedClient := newClient(lookupConns)
	defer tracedClient.CloseIdleConnections()
	st, _ := closedLoop(tracedClient, tr, tl.base, reqs, v, o.seed, phase)
	st.addTo(rep)

	p50u := un.lat.percentile(50, time.Microsecond)
	p50t := st.lat.percentile(50, time.Microsecond)
	spans := tr.snapshot()
	self = selfTimes(spans)
	m["http.lookup_overhead_us"] = p50u - handlerUS
	m["http.lookup_p99_us"] = un.lat.percentile(99, time.Microsecond)
	m["runtime.alloc_mb"] = float64(delta.allocBytes) / (1 << 20) / float64(un.lat.n) * 1000
	m["runtime.gc_cycles"] = float64(delta.gcCycles) / float64(un.lat.n) * 1000
	m["trace.coverage_frac"] = medianSelf(self, "serve.handler", time.Microsecond) / p50u
	m["trace.overhead_frac"] = p50t/p50u - 1
	m["trace.spans"] = float64(len(spans))
	rep.note("socket p50: untraced %.1fus (n=%d), traced %.1fus (n=%d); handler in-process p50 %.2fus, in traced round trips %.2fus; http self p50 %.1fus",
		p50u, un.lat.n, p50t, st.lat.n, handlerUS, medianSelf(self, "serve.handler", time.Microsecond),
		medianSelf(self, "http.lookup", time.Microsecond))
	return writeSpans(tr, o)
}

func lookupKeys(reqs []request) int {
	n := 0
	for _, r := range reqs {
		n += len(r.addrs)
	}
	return n
}

// sinkWriter is a lean http.ResponseWriter that keeps the body for the
// check and discards nothing else the handler sets.
type sinkWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *sinkWriter) Header() http.Header { return w.hdr }
func (w *sinkWriter) WriteHeader(s int)   { w.status = s }
func (w *sinkWriter) Write(p []byte) (int, error) {
	return w.body.Write(p)
}

// inProcessHandler times Server.Handler().ServeHTTP directly over the
// mix for about d and returns the median microseconds, the allocations
// and the response bytes per request. Every response is checked.
func inProcessHandler(h http.Handler, reqs []request, v *verifier, rep *report, d time.Duration) (float64, float64, float64) {
	const round = 1000
	urls := make([]*url.URL, len(reqs))
	for i, r := range reqs {
		urls[i], _ = url.Parse(r.path)
	}
	var (
		lat              []time.Duration
		allocs, bytesOut float64
		batch            [round]*http.Request
		idx              [round]int
		next, n          int
	)
	w := &sinkWriter{hdr: make(http.Header, 4)}
	for deadline := time.Now().Add(d); n == 0 || time.Now().Before(deadline); {
		for j := range batch {
			i := (next + j) % len(reqs)
			idx[j] = i
			batch[j] = &http.Request{Method: http.MethodGet, URL: urls[i], Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
				Host: "e2ebench", RequestURI: reqs[i].path, Header: http.Header{}}
		}
		next += round
		objs := heapObjects()
		for j, req := range batch {
			clear(w.hdr)
			w.status = http.StatusOK
			w.body.Reset()
			start := time.Now()
			h.ServeHTTP(w, req)
			lat = append(lat, time.Since(start))
			rep.count(v.check(idx[j], w.status, w.body.Bytes()))
			bytesOut += float64(w.body.Len())
		}
		allocs += float64(heapObjects() - objs)
		n += round
	}
	return durations(lat, time.Microsecond).median(), allocs / float64(n), bytesOut / float64(n)
}
