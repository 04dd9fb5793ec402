// Package serve implements mapitd's resident HTTP/JSON query service
// over the compiled snapshot engine. A Server owns one cumulative
// evidence collector and one snapshot.Handle: corpus batches (the
// startup load and every POST /v1/ingest) fold into the collector,
// rerun inference, and atomically publish a fresh immutable snapshot,
// while query handlers resolve against whatever snapshot was current
// when their request arrived. Publication is copy-on-write — in-flight
// readers keep the old snapshot until they finish, so a query never
// observes torn state and never blocks an ingest (or vice versa).
//
// Every data response carries the snapshot version as a strong ETag
// ("v<N>"); If-None-Match short-circuits to 304, and pagination cursors
// pin the version so a republish invalidates them detectably (410)
// instead of silently skewing a walk.
package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mapit/internal/core"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Config supplies the inference inputs (IP2AS is required; Orgs,
	// Rels, IXP, F and Workers behave as in a batch run). The server
	// copies it per run and wires decode/spill health in itself.
	Config core.Config
	// Workers is the ingest parallelism (0 → GOMAXPROCS).
	Workers int
	// Strict aborts an ingest on the first corrupt input instead of
	// skipping damaged v3 blocks.
	Strict bool
	// Spill bounds collector memory during ingest.
	Spill core.SpillConfig
	// RequestTimeout bounds every query handler (default 10s).
	RequestTimeout time.Duration
	// IngestTimeout bounds POST /v1/ingest end to end (default 5m).
	IngestTimeout time.Duration
	// MaxBodyBytes caps a POST /v1/ingest body (default 256 MiB).
	MaxBodyBytes int64
	// PageSize is the default page length for paginated endpoints and
	// MaxPageSize the largest client-requestable limit (100 / 1000).
	PageSize, MaxPageSize int
	// Window, when positive, runs the server in sliding-window mode:
	// ingested traces carry timestamps (MTRC v4 or JSONL "time") and
	// only those within this trailing span stay in the evidence. Every
	// ingest advances the window to the batch's newest timestamp and
	// republishes; POST /v1/advance moves the clock without new traces
	// (expiry only). Must be a whole number of seconds, at least one.
	Window time.Duration
}

func (o *Options) setDefaults() {
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.IngestTimeout == 0 {
		o.IngestTimeout = 5 * time.Minute
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 256 << 20
	}
	if o.PageSize == 0 {
		o.PageSize = 100
	}
	if o.MaxPageSize == 0 {
		o.MaxPageSize = 1000
	}
}

// runInfo is the immutable record of the last completed inference run,
// swapped in atomically alongside the snapshot so /v1/stats never reads
// a half-updated diagnostic.
type runInfo struct {
	diag       core.Diagnostics
	partition  *core.PartitionInfo
	inferences int
	traces     int
}

// Server is the mapitd query service. Construct with NewServer, mount
// Handler() on an http.Server, feed corpora through Ingest (directly
// for the startup load, or via POST /v1/ingest), and Close when done.
type Server struct {
	opt     Options
	handle  snapshot.Handle
	mux     *http.ServeMux
	metrics *metrics
	started time.Time

	// ingestMu serialises writers — the startup load and every
	// POST /v1/ingest (and, in window mode, /v1/advance). Readers go
	// through handle and never take it.
	ingestMu sync.Mutex
	// Exactly one of ing (batch mode) and win (sliding-window mode) is
	// non-nil; winDecode is the window path's decode-health counter.
	ing       *core.Ingestor
	win       *core.Window
	winDecode trace.DecodeStats
	ingests   atomic.Int64

	run  atomic.Pointer[runInfo]
	etag atomic.Pointer[etagEntry]
}

// etagEntry caches the rendered `"v<N>"` validator for the current
// version — versions change once per ingest but are stamped on every
// response, so formatting per request is pure waste.
type etagEntry struct {
	version uint64
	tag     string
}

// NewServer builds a server with no snapshot published; data endpoints
// answer 503 until the first successful Ingest. The only construction
// error is an invalid sliding-window configuration (Options.Window).
func NewServer(opt Options) (*Server, error) {
	opt.setDefaults()
	s := &Server{opt: opt, started: time.Now()}
	if opt.Window != 0 {
		if opt.Window < time.Second || opt.Window%time.Second != 0 {
			return nil, fmt.Errorf("serve: Options.Window must be a whole number of seconds, at least 1s (got %v)", opt.Window)
		}
		cfg := opt.Config
		cfg.DecodeStats = &s.winDecode
		win, err := core.NewWindow(core.WindowOptions{
			Length:        opt.Window,
			Config:        cfg,
			TrackMonitors: true,
		})
		if err != nil {
			return nil, err
		}
		s.win = win
	} else {
		s.ing = core.NewIngestor(core.IngestOptions{
			Workers:       opt.Workers,
			Strict:        opt.Strict,
			Spill:         opt.Spill,
			TrackMonitors: true,
		})
	}
	s.buildMux()
	return s, nil
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Version reports the currently published snapshot version (0 before
// the first publish).
func (s *Server) Version() uint64 { return s.handle.Version() }

// Close releases ingest resources (spill segment files). The published
// snapshot stays readable.
func (s *Server) Close() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.ing == nil {
		return nil
	}
	return s.ing.Close()
}

// IngestSummary reports one completed ingest-and-publish cycle.
type IngestSummary struct {
	Version     uint64 `json:"version"`
	TracesAdded int    `json:"traces_added"`
	TracesTotal int    `json:"traces_total"`
	Inferences  int    `json:"inferences"`
	Addresses   int    `json:"addresses"`
	Links       int    `json:"links"`
}

// errBadCorpus wraps decode-phase ingest failures — the client sent a
// corpus the sniffing decoder rejected — so the handler can answer 400
// instead of 500.
var errBadCorpus = errors.New("bad corpus")

// Ingest decodes one corpus batch (MTRC v2/v3 binary, JSONL, or text —
// sniffed from the first bytes), folds it into the server's cumulative
// evidence, reruns inference over everything seen so far, and
// atomically publishes the resulting snapshot. In-flight readers keep
// the previous snapshot; the swap never blocks them. Concurrent
// ingests serialise. On a decode error nothing is published: traces
// added before the failure stay in the collector and ride along with
// the next successful batch — so callers must hand Ingest only readers
// that can run to EOF, never one that may be cut off mid-stream by a
// condition Ingest can't see (the HTTP handler spools request bodies
// to completion first for exactly this reason).
func (s *Server) Ingest(r io.Reader) (IngestSummary, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.win != nil {
		return s.ingestWindowLocked(r)
	}
	added, err := s.ing.Ingest(r)
	if err != nil {
		return IngestSummary{}, fmt.Errorf("%w: %w", errBadCorpus, err)
	}
	return s.publishLocked(added)
}

// errNotWindowed marks window-only operations invoked on a batch-mode
// server, so the handler can answer 409 instead of 500.
var errNotWindowed = errors.New("server is not in sliding-window mode")

// Advance moves the sliding window's right edge to now (seconds since
// the corpus epoch) without ingesting traces — expiring everything that
// fell out of the span — and republishes. Window mode only; moving the
// clock backwards is an error.
func (s *Server) Advance(now int64) (IngestSummary, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.win == nil {
		return IngestSummary{}, errNotWindowed
	}
	return s.publishWindowLocked(0, now)
}

// WindowStats snapshots the sliding window's lifetime and churn
// counters; nil in batch mode.
func (s *Server) WindowStats() *core.WindowStats {
	if s.win == nil {
		return nil
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	st := s.win.Stats()
	return &st
}

// ingestWindowLocked is the sliding-window ingest path: every decoded
// trace is observed into the window (late ones counted, not folded),
// then the window advances to the newest timestamp the batch carried —
// expiring old evidence — and republishes. Caller holds ingestMu.
func (s *Server) ingestWindowLocked(r io.Reader) (IngestSummary, error) {
	advanceTo := s.win.Now()
	added, err := core.DecodeTraces(r, trace.DecodeOptions{
		Permissive: !s.opt.Strict,
		Stats:      &s.winDecode,
	}, func(t trace.Trace) error {
		s.win.Observe(t)
		if t.Time > advanceTo {
			advanceTo = t.Time
		}
		return nil
	})
	if err != nil {
		return IngestSummary{}, fmt.Errorf("%w: %w", errBadCorpus, err)
	}
	return s.publishWindowLocked(added, advanceTo)
}

// publishWindowLocked advances the window, reruns inference over the
// residents, and swaps the snapshot in — bumping the version, so every
// advance invalidates version-pinned cursors and ETags like a batch
// republish does. Caller holds ingestMu.
func (s *Server) publishWindowLocked(added int, now int64) (IngestSummary, error) {
	res, err := s.win.Advance(now)
	if err != nil {
		return IngestSummary{}, fmt.Errorf("%w: %w", errBadCorpus, err)
	}
	// Evidence hands back what Advance's recompute ran on (read-only),
	// so a publish materialises the window's evidence once.
	snap := snapshot.Build(res, s.win.Evidence())
	s.run.Store(&runInfo{
		diag:       res.Diag,
		partition:  res.Partition,
		inferences: len(res.Inferences),
		traces:     s.win.Traces(),
	})
	s.handle.Swap(snap)
	s.ingests.Add(1)
	return IngestSummary{
		Version:     s.handle.Version(),
		TracesAdded: added,
		TracesTotal: s.win.Traces(),
		Inferences:  len(res.Inferences),
		Addresses:   snap.AddrCount(),
		Links:       snap.LinkCount(),
	}, nil
}

// publishLocked finishes the collector, reruns inference and swaps the
// snapshot in. Caller holds ingestMu.
func (s *Server) publishLocked(added int) (IngestSummary, error) {
	ev, err := s.ing.Finish()
	if err != nil {
		return IngestSummary{}, fmt.Errorf("finish evidence: %w", err)
	}
	cfg := s.opt.Config
	cfg.DecodeStats = s.ing.DecodeStats()
	sp := s.ing.SpillStats()
	cfg.SpillStats = &sp
	res, err := core.RunEvidence(ev, cfg)
	if err != nil {
		return IngestSummary{}, fmt.Errorf("inference: %w", err)
	}
	snap := snapshot.Build(res, ev)
	s.run.Store(&runInfo{
		diag:       res.Diag,
		partition:  res.Partition,
		inferences: len(res.Inferences),
		traces:     s.ing.Traces(),
	})
	s.handle.Swap(snap)
	s.ingests.Add(1)
	return IngestSummary{
		Version:     s.handle.Version(),
		TracesAdded: added,
		TracesTotal: s.ing.Traces(),
		Inferences:  len(res.Inferences),
		Addresses:   snap.AddrCount(),
		Links:       snap.LinkCount(),
	}, nil
}

// buildMux wires routes, per-route metrics and per-route timeouts.
// Query routes are bounded with a connection write deadline rather
// than http.TimeoutHandler: they do bounded CPU work over an immutable
// in-memory snapshot (no I/O, no locks), so the per-request watchdog
// goroutine, response buffer and context timer TimeoutHandler spends
// would guard against a hang that cannot happen while tripling the
// cost of the hot path. The deadline covers the real risk — a slow or
// stalled client draining the response. Ingest keeps TimeoutHandler:
// it decodes an arbitrary body and reruns inference, which genuinely
// needs an end-to-end bound.
func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.metrics = newMetrics()
	query := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, instrument(s.metrics.route(route),
			deadlineHandler(s.opt.RequestTimeout, h)))
	}
	query("GET /v1/lookup", "lookup", s.handleLookup)
	query("GET /v1/links", "links", s.handleLinks)
	query("GET /v1/monitors/{monitor}/evidence", "monitor-evidence", s.handleMonitor)
	query("GET /v1/healthz", "healthz", s.handleHealthz)
	query("GET /v1/stats", "stats", s.handleStats)
	// Ingest also runs under deadlineHandler, with its own (much longer)
	// bound, for two reasons: TimeoutHandler bounds only the handler,
	// not the post-handler write of the buffered response to a stalled
	// client, and setting the route's own deadline means an ingest never
	// depends on net/http clearing the previous request's (query-length)
	// deadline between keep-alive requests — current toolchains do
	// (conn.serve resets the write deadline after each response), older
	// ones leave it to leak. The extra RequestTimeout of headroom past
	// the TimeoutHandler bound covers draining the summary.
	s.mux.Handle("POST /v1/ingest", instrument(s.metrics.route("ingest"),
		deadlineHandler(s.opt.IngestTimeout+s.opt.RequestTimeout,
			http.TimeoutHandler(http.HandlerFunc(s.handleIngest), s.opt.IngestTimeout,
				`{"error":"request timed out"}`))))
	// Advance reruns inference (over fewer traces than an ingest), so it
	// gets the ingest route's end-to-end bound, and exists only on
	// windowed servers — batch servers 404 it.
	if s.win != nil {
		s.mux.Handle("POST /v1/advance", instrument(s.metrics.route("advance"),
			deadlineHandler(s.opt.IngestTimeout+s.opt.RequestTimeout,
				http.TimeoutHandler(http.HandlerFunc(s.handleAdvance), s.opt.IngestTimeout,
					`{"error":"request timed out"}`))))
	}
}

// deadlineHandler bounds how long a response may take to drain by
// setting the connection write deadline before the handler runs. Each
// route sets its own deadline, which also replaces whatever a previous
// request on the same keep-alive connection left behind. The error is
// deliberately dropped: on a real server the set succeeds (statusWriter
// unwraps to the connection — TestWriteDeadlineReachesConnection pins
// that), while httptest recorders legitimately don't support deadlines.
func deadlineHandler(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(d))
		h.ServeHTTP(w, r)
	})
}

// instrument records count, error count and latency for one route.
func instrument(rm *routeMetrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		rm.observe(time.Since(start), sw.status)
	})
}
