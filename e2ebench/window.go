package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mapit/internal/core"
	"mapit/internal/eval"
	"mapit/internal/inet"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

// The window workload's stream: the default world probed with
// timestamps (one destination per monitor every 10 s, ±3 s jitter),
// replayed in 60 s batches into a daemon holding a one-hour window.
const (
	windowLength   = time.Hour
	windowBatchS   = 60
	windowTimeBase = 1_700_000_000
	windowSetups   = 15
	// churnReadRate is the reader's open-loop rate in lookups per
	// second: a fixed read load, so publish latency does not move with
	// how much CPU a closed-loop reader happens to take.
	churnReadRate = 2000
)

// windowInputs is the window workload's generated stream.
type windowInputs struct {
	meta    meta
	batches []windowBatch
	warm    int        // batches that fill the first window, posted untimed
	ref     *reference // over the whole stream, for the reader's mix
}

func genWindow(seed int64, workers int) (*windowInputs, error) {
	env := eval.DefaultEnvConfig()
	env.Trace.Timestamps = true
	env.Trace.TimeBase = windowTimeBase
	env.Trace.TimeStep = 10
	env.Trace.TimeJitter = 3
	w, err := genWorld(env, seed)
	if err != nil {
		return nil, err
	}
	batches, err := windowBatches(w.ds.Traces, windowBatchS)
	if err != nil {
		return nil, err
	}
	in := &windowInputs{meta: w.meta, batches: batches}
	fill := w.ds.Traces[0].Time + int64(windowLength/time.Second)
	for in.warm < len(batches) && batches[in.warm].last < fill {
		in.warm++
	}
	cfg, err := parseMeta(w.meta, workers)
	if err != nil {
		return nil, err
	}
	in.ref, err = newReference(w.ds.Traces, cfg)
	return in, err
}

// ingestSummary is the client's view of a POST /v1/ingest answer.
type ingestSummary struct {
	Version     uint64 `json:"version"`
	TracesAdded int    `json:"traces_added"`
}

// poster posts batches in order to one daemon over one keep-alive
// connection and checks each answer.
type poster struct {
	c       *http.Client
	t       *tracer
	base    string
	version uint64
	buf     bytes.Buffer
}

// post sends batch i and returns its latency, with stolen time
// subtracted.
func (p *poster) post(i int, b windowBatch) (time.Duration, error) {
	clock := startUnstolen()
	status, _, err := do(p.c, p.t, fmt.Sprintf("batch-%d", i), "http.post", http.MethodPost, p.base+"/v1/ingest", b.body, &p.buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("batch %d: status %d: %s", i, status, p.buf.Bytes())
	}
	var sum ingestSummary
	if err := json.Unmarshal(p.buf.Bytes(), &sum); err != nil {
		return 0, fmt.Errorf("batch %d: summary: %w", i, err)
	}
	if sum.Version != p.version+1 || sum.TracesAdded != len(b.traces) {
		return 0, fmt.Errorf("batch %d: summary version %d traces %d, want %d and %d",
			i, sum.Version, sum.TracesAdded, p.version+1, len(b.traces))
	}
	p.version = sum.Version
	return clock.elapsed(), nil
}

// churnResult is what one run of the stream over HTTP measured.
type churnResult struct {
	publish  []time.Duration
	reads    *loopStats
	traces   int           // traces posted in the timed phase
	elapsed  time.Duration // writer time, stolen time subtracted
	posted   int           // batches posted, warm-up included
	peak     float64
	counters runtimeCounters
}

// streamHTTP posts the warm-up batches untimed, then, for about d, posts
// the rest back to back on one connection while a reader runs the lookup
// mix on a second connection. Failures are counted into rep.
func streamHTTP(in *windowInputs, d *daemon, base string, t *tracer, seed int64, dur time.Duration, rep *report) churnResult {
	writer := newClient(1)
	defer writer.CloseIdleConnections()
	p := &poster{c: writer, base: base, version: d.srv.Version()}
	var r churnResult
	for i := 0; i < in.warm; i++ {
		_, err := p.post(i, in.batches[i])
		rep.count(err)
	}
	r.posted = in.warm

	reader := newClient(1)
	defer reader.CloseIdleConnections()
	reqs := lookupMix(in.ref.hits, seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	runtime.GC()
	hp := startHeapPeak()
	rc := readRuntimeCounters()
	p.t = t
	r.reads = newLoopStats(time.Now(), 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		from := int(uint64(seed) * 2654435761 % uint64(len(reqs)))
		lookupLoop(r.reads, reader, t, "reader", base, reqs, from, 0, time.Second/churnReadRate, func(i, status int, body []byte) error {
			return checkShape(reqs[i], status, body)
		}, stop)
	}()
	clock := startUnstolen()
	for i := in.warm; i < len(in.batches) && time.Since(clock.start) < dur; i++ {
		lat, err := p.post(i, in.batches[i])
		rep.count(err)
		r.posted = i + 1
		if err == nil {
			r.publish = append(r.publish, lat)
			r.traces += len(in.batches[i].traces)
		}
	}
	r.elapsed = clock.elapsed()
	close(stop)
	wg.Wait()
	r.counters = readRuntimeCounters().since(rc)
	r.peak = hp.end()
	r.reads.addTo(rep)
	return r
}

// checkShape accepts a lookup answer served while the window changes:
// its content moves with every publish, so only status and shape are
// checked — one record per requested address, in order.
func checkShape(req request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", req.path, status)
	}
	var got []struct {
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: decode: %w", req.path, err)
	}
	if len(got) != len(req.addrs) {
		return fmt.Errorf("%s: %d records for %d addresses", req.path, len(got), len(req.addrs))
	}
	for i, a := range req.addrs {
		if got[i].Addr != a.String() {
			return fmt.Errorf("%s: record %d is for %s", req.path, i, got[i].Addr)
		}
	}
	return nil
}

// checkResident compares the daemon's answers for every address of the
// traces still inside the window against a batch run over exactly those
// traces. Each request counts as one operation.
func checkResident(in *windowInputs, d *daemon, posted int, rep *report) error {
	now := in.batches[posted-1].last
	cutoff := now - int64(windowLength/time.Second)
	var resident []trace.Trace
	for _, b := range in.batches[:posted] {
		for _, t := range b.traces {
			if t.Time > cutoff {
				resident = append(resident, t)
			}
		}
	}
	ref, err := newReference(resident, d.cfg)
	if err != nil {
		return err
	}
	seen := make(map[inet.Addr]bool)
	var addrs []inet.Addr
	for _, t := range resident {
		for _, h := range t.Hops {
			if h.Responded() && !seen[h.Addr] {
				seen[h.Addr] = true
				addrs = append(addrs, h.Addr)
			}
		}
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	var buf bytes.Buffer
	for len(addrs) > 0 {
		req := newRequest(addrs[:min(16, len(addrs))])
		addrs = addrs[len(req.addrs):]
		status, _, err := do(c, nil, "", "", http.MethodGet, d.l.base+req.path, nil, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", req.path, status)
		}
		if err == nil {
			err = ref.checkLookup(buf.Bytes(), req.addrs)
		}
		rep.count(err)
	}
	rep.note("resident check: %d traces, %d addresses, %d inferred", len(resident), len(seen), len(ref.hits))
	return nil
}

// runWindow is the window workload: a windowed daemon receives the
// stream as back-to-back POST /v1/ingest calls while one reader runs
// the lookup mix; after the last POST every resident address is checked
// against a batch run over the resident traces.
func runWindow(o opts) (*report, error) {
	t0 := time.Now()
	in, err := genWindow(o.seed, o.workers)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	start := func() (*daemon, error) { return startDaemon(in.meta, o.workers, windowLength, nil) }
	d, setupS, err := repeatSetup(windowSetups, false, start, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rep := newReport()
	rep.note("window: %d batches (%d warm-up); inputs and reference %.1fs", len(in.batches), in.warm, genS)

	if !o.trace {
		r := streamHTTP(in, d, d.l.base, nil, o.seed, o.seconds, rep)
		if err := checkResident(in, d, r.posted, rep); err != nil {
			return nil, err
		}
		pub := durations(r.publish, time.Millisecond)
		rep.metrics["setup_s"] = setupS
		rep.metrics["ops_per_s"] = float64(r.traces) / r.elapsed.Seconds()
		rep.metrics["op_p50_ms"] = pub.median()
		rep.metrics["op_tail_ms"] = pub.percentile(90)
		rep.metrics["peak_heap_mb"] = r.peak
		rep.note("publishes: n=%d p50=%.1fms p90=%.1fms (%.0f beyond); reader: n=%d p50=%.0fus p99=%.0fus, fell %v behind",
			len(pub), pub.median(), pub.percentile(90), beyond(len(pub), 90),
			r.reads.lat.n, r.reads.lat.percentile(50, time.Microsecond), r.reads.lat.percentile(99, time.Microsecond), r.reads.late)
		return rep, nil
	}
	return rep, traceWindow(o, rep, in, d, start)
}

// traceWindow is the window workload's traced run, in four phases of
// equal length: the stream over HTTP untraced, the stream over HTTP
// traced (fresh daemon), the same batches replayed through the calls
// Server.Ingest makes in window mode (DecodeTraces, Window.Observe,
// Advance, Evidence, snapshot.Build, Handle.Swap) on a core.Window, and
// Server.Ingest called directly on a third daemon.
func traceWindow(o opts, rep *report, in *windowInputs, d *daemon, start func() (*daemon, error)) error {
	tr := newTracer()
	m := rep.metrics
	phase := o.seconds / 4

	un := streamHTTP(in, d, d.l.base, nil, o.seed, phase, rep)
	pubU := durations(un.publish, time.Millisecond)

	d2, err := start()
	if err != nil {
		return err
	}
	defer d2.close()
	tl, err := listen(tracedHandler(tr, d2.srv.Handler()))
	if err != nil {
		return err
	}
	defer tl.close()
	tc := streamHTTP(in, d2, tl.base, tr, o.seed, phase, rep)
	pubT := durations(tc.publish, time.Millisecond)

	if err := replayWindow(tr, in, d.cfg, phase, m); err != nil {
		return err
	}

	d3, err := start()
	if err != nil {
		return err
	}
	defer d3.close()
	var ingest sample
	for i, b := range in.batches {
		if i >= in.warm && len(ingest) > 0 && ingest.sum() > phase.Seconds()*1000 {
			break
		}
		sp := tr.begin(fmt.Sprintf("direct-%d", i), 0, "serve.ingest")
		_, err := d3.srv.Ingest(bytes.NewReader(b.body))
		dur := sp.end()
		rep.count(err)
		if i >= in.warm {
			ingest = append(ingest, float64(dur)/float64(time.Millisecond))
		}
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	m["serve.ingest_ms"] = ingest.median()
	m["serve.handler_us"] = medianSelf(self, "serve.handler", time.Microsecond)
	m["http.post_overhead_ms"] = medianSelf(self, "http.post", time.Millisecond)
	m["http.churn_lookup_p99_us"] = un.reads.lat.percentile(99, time.Microsecond)
	m["runtime.alloc_mb"] = float64(un.counters.allocBytes) / (1 << 20) / float64(len(pubU))
	m["runtime.gc_cycles"] = float64(un.counters.gcCycles) / float64(len(pubU))
	layers := m["trace.decode_ms"] + m["core.window_observe_ms"] + m["core.window_advance_ms"] +
		m["core.window_evidence_ms"] + m["snapshot.build_ms"] + m["snapshot.swap_us"]/1000
	m["trace.coverage_frac"] = layers / pubU.median()
	m["trace.overhead_frac"] = pubT.median()/pubU.median() - 1
	m["trace.spans"] = float64(len(spans))
	rep.note("publish p50: untraced %.2fms (n=%d), traced %.2fms (n=%d); direct Server.Ingest %.2fms (n=%d); ingest handler self %.2fms",
		pubU.median(), len(pubU), pubT.median(), len(pubT), ingest.median(), len(ingest),
		medianSelf(self, "serve.ingest_handler", time.Millisecond))
	return writeSpans(tr, o)
}

// replayWindow replays the stream through the sequence of calls a
// windowed Server.Ingest makes, timing each from the outside, plus
// RunEvidence over the materialised window evidence (the recompute
// Advance runs inside). Warm-up batches are replayed untimed.
func replayWindow(tr *tracer, in *windowInputs, cfg core.Config, phase time.Duration, m map[string]float64) error {
	win, err := core.NewWindow(core.WindowOptions{Length: windowLength, Config: cfg, TrackMonitors: true})
	if err != nil {
		return err
	}
	var (
		h       snapshot.Handle
		res     *core.Result
		ev      *core.Evidence
		spent   time.Duration
		buf     []trace.Trace
		decodeS trace.DecodeStats
	)
	for i, b := range in.batches {
		if i >= in.warm && spent > phase {
			break
		}
		t := tr
		if i < in.warm {
			t = nil
		}
		run := fmt.Sprintf("replay-%d", i)
		root := t.begin(run, 0, "publish")
		sp := t.begin(run, root.id, "trace.decode")
		buf = buf[:0]
		now := win.Now()
		_, err := core.DecodeTraces(bytes.NewReader(b.body), trace.DecodeOptions{Permissive: true, Stats: &decodeS},
			func(tc trace.Trace) error {
				buf = append(buf, tc)
				now = max(now, tc.Time)
				return nil
			})
		sp.end()
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		sp = t.begin(run, root.id, "core.window_observe")
		for _, tc := range buf {
			win.Observe(tc)
		}
		sp.end()
		sp = t.begin(run, root.id, "core.window_advance")
		res, err = win.Advance(now)
		sp.end()
		if err != nil {
			return fmt.Errorf("replay advance: %w", err)
		}
		sp = t.begin(run, root.id, "core.window_evidence")
		ev = win.Evidence()
		sp.end()
		sp = t.begin(run, root.id, "snapshot.build")
		snap := snapshot.Build(res, ev)
		sp.end()
		sp = t.begin(run, root.id, "snapshot.swap")
		h.Swap(snap)
		sp.end()
		d := root.end()
		if i >= in.warm {
			spent += d
			sp = t.begin(run, 0, "core.run")
			if _, err := core.RunEvidence(ev, cfg); err != nil {
				return fmt.Errorf("replay run: %w", err)
			}
			sp.end()
		}
	}
	self := selfTimes(tr.snapshot())
	m["trace.decode_ms"] = medianSelf(self, "trace.decode", time.Millisecond)
	m["core.window_observe_ms"] = medianSelf(self, "core.window_observe", time.Millisecond)
	m["core.window_advance_ms"] = medianSelf(self, "core.window_advance", time.Millisecond)
	m["core.window_evidence_ms"] = medianSelf(self, "core.window_evidence", time.Millisecond)
	m["core.run_ms"] = medianSelf(self, "core.run", time.Millisecond)
	m["snapshot.build_ms"] = medianSelf(self, "snapshot.build", time.Millisecond)
	m["snapshot.swap_us"] = medianSelf(self, "snapshot.swap", time.Microsecond)
	st := win.Stats()
	m["core.window_recompute_frac"] = float64(st.Recomputes) / float64(st.Advances)
	m["core.window_resident_traces"] = float64(win.Traces())
	m["core.window_link_births"] = float64(st.LinkBirths)
	m["core.window_link_deaths"] = float64(st.LinkDeaths)
	m["core.window_late_traces"] = float64(st.TracesLate)
	resultCounts(m, res, ev)
	return nil
}
