package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Sliding-window streaming inference (DESIGN.md §15). A Window holds
// the evidence of the traces whose timestamps fall inside a moving
// span: arrivals fold in through Observe, Advance(now) expires
// everything at or before now-Length and reruns inference when the
// contents changed. The incremental layer is refcounted evidence
// maintenance — each trace's deduped contributions (addresses seen,
// retained addresses, adjacencies, sanitisation outcomes) are counted
// in and counted out symmetrically, so the materialised Evidence at any
// position is exactly what a fresh Collector fed only the window's
// traces would produce, and the recomputed Result is byte-identical to
// a from-scratch batch run (the DiffWindow oracle in internal/audit/
// meta proves this at every window position). Inference itself re-runs
// over the materialised evidence — RunEvidence is already incremental
// inside (dirty-set fixpoint, partitioning, compiled lookups) — and an
// Advance over unchanged contents reuses the previous Result without
// recomputing.

// WindowOptions configures a sliding inference window.
type WindowOptions struct {
	// Length is the window span, at seconds granularity (trace
	// timestamps are Unix seconds). After Advance(now) the window holds
	// exactly the observed traces with Time in (now-Length, now] — plus
	// any arrivals stamped later than now, which enter the evidence
	// immediately and expire on schedule once the window passes them.
	// Required; must be at least one second.
	Length time.Duration
	// Config carries the inference inputs used at every recompute
	// (IP2AS required, as in a batch run). The audit checker, decode
	// and spill stat pointers all behave as in RunEvidence.
	Config Config
	// TrackMonitors maintains per-vantage-point attribution in the
	// materialised evidence (Evidence.Monitors), matching a collector
	// with TrackMonitors enabled — the input of the snapshot package's
	// monitor→evidence index.
	TrackMonitors bool
}

// WindowStats reports a window's lifetime and churn counters. All
// fields are plain values so the struct is comparable and travels
// inside Diagnostics.
type WindowStats struct {
	// Advances counts Advance calls; Recomputes counts the ones that
	// actually reran inference (contents changed since the last run).
	Advances   int `json:"advances"`
	Recomputes int `json:"recomputes"`
	// TracesObserved counts every trace handed to Observe;
	// TracesLate the ones dropped for arriving already expired
	// (Time at or before now-Length); TracesExpired the ones removed
	// by window movement. TracesActive is the current resident count.
	TracesObserved int64 `json:"traces_observed"`
	TracesLate     int64 `json:"traces_late"`
	TracesExpired  int64 `json:"traces_expired"`
	TracesActive   int   `json:"traces_active"`
	// LinkBirths and LinkDeaths count distinct high-confidence AS-pair
	// links appearing in and vanishing from consecutive recomputes;
	// ActiveLinks is the current count.
	LinkBirths  int `json:"link_births"`
	LinkDeaths  int `json:"link_deaths"`
	ActiveLinks int `json:"active_links"`
	// IfaceFlaps counts interface rebirths — an address that carried a
	// high-confidence inference, lost it in a later recompute, and
	// regained it in a still-later one. FlapRate is IfaceFlaps per
	// Advance.
	IfaceFlaps int     `json:"iface_flaps"`
	FlapRate   float64 `json:"flap_rate"`
}

// String renders the counters as a compact key=value line (the shape
// cmd/mapit -stats prints).
func (s WindowStats) String() string {
	return fmt.Sprintf("advances=%d recomputes=%d observed=%d late=%d expired=%d active=%d "+
		"link_births=%d link_deaths=%d active_links=%d iface_flaps=%d flap_rate=%.3f",
		s.Advances, s.Recomputes, s.TracesObserved, s.TracesLate, s.TracesExpired,
		s.TracesActive, s.LinkBirths, s.LinkDeaths, s.ActiveLinks, s.IfaceFlaps, s.FlapRate)
}

// windowEntry is one observed trace's deduplicatable contributions —
// everything apply needs to count the trace in or out of the evidence.
// The trace itself is not retained.
type windowEntry struct {
	monitor     string
	discarded   bool
	removedHops int
	// allAddrs are the responding addresses before sanitisation,
	// retAddrs the ones of the retained (sanitised) trace, adjs its
	// adjacencies. Multiplicity is harmless: apply counts each slice in
	// and out with the same entries, so refcounts stay consistent.
	allAddrs, retAddrs []inet.Addr
	adjs               []trace.Adjacency
}

// monWindow is one monitor's refcounted attribution.
type monWindow struct {
	traces int
	adjs   map[trace.Adjacency]int
}

// Window is a sliding-window streaming inference engine. Not safe for
// concurrent use; callers serialise (mapitd holds its ingest lock).
type Window struct {
	opt    WindowOptions
	length int64 // seconds
	now    int64 // right edge of the last Advance

	// buckets is the expiry wheel: observed entries keyed by their
	// trace timestamp, removed wholesale when the window passes them.
	buckets map[int64][]windowEntry

	// Refcounted evidence of the current contents.
	adjCount                      map[trace.Adjacency]int
	allCount                      map[inet.Addr]int
	retCount                      map[inet.Addr]int
	mon                           map[string]*monWindow
	total, discarded, removedHops int

	// dirty marks contents changed since the last recompute; last is
	// the cached Result reused by no-op Advances. ev caches the
	// materialised Evidence of the current contents (see evidence);
	// nil once they change.
	dirty bool
	last  *Result
	ev    *Evidence

	wstats WindowStats
	// links and iface state feed the churn counters: links present at
	// the last recompute, interfaces currently inferred, and interfaces
	// that lost an inference and would flap by regaining one.
	links        map[uint64]struct{}
	ifacePresent map[inet.Addr]struct{}
	ifaceDied    map[inet.Addr]struct{}
}

// NewWindow validates the options and returns an empty window
// positioned at now=0 (the first Advance sets the real clock).
func NewWindow(opt WindowOptions) (*Window, error) {
	length := int64(opt.Length / time.Second)
	if length < 1 {
		return nil, errors.New("core: WindowOptions.Length must be at least one second")
	}
	if err := opt.Config.validate(); err != nil {
		return nil, err
	}
	w := &Window{
		opt:          opt,
		length:       length,
		buckets:      make(map[int64][]windowEntry),
		adjCount:     make(map[trace.Adjacency]int),
		allCount:     make(map[inet.Addr]int),
		retCount:     make(map[inet.Addr]int),
		links:        make(map[uint64]struct{}),
		ifacePresent: make(map[inet.Addr]struct{}),
		ifaceDied:    make(map[inet.Addr]struct{}),
	}
	if opt.TrackMonitors {
		w.mon = make(map[string]*monWindow)
	}
	return w, nil
}

// Now returns the window's right edge (the argument of the last
// Advance; zero before the first).
func (w *Window) Now() int64 { return w.now }

// Traces returns how many traces are currently resident.
func (w *Window) Traces() int { return w.total }

// Stats snapshots the lifetime counters.
func (w *Window) Stats() WindowStats {
	s := w.wstats
	s.TracesActive = w.total
	s.ActiveLinks = len(w.links)
	return s
}

// Observe folds one trace into the window. A trace stamped at or
// before now-Length is already expired — the Remove of a trace never
// Added — and is dropped and counted (TracesLate) without touching the
// evidence. Observe reports whether the trace entered the window and
// survived sanitisation.
func (w *Window) Observe(t trace.Trace) bool {
	w.wstats.TracesObserved++
	if t.Time <= w.now-w.length {
		w.wstats.TracesLate++
		return false
	}
	e := windowEntry{monitor: t.Monitor}
	for _, h := range t.Hops {
		if h.Responded() {
			e.allAddrs = append(e.allAddrs, h.Addr)
		}
	}
	clean, res := trace.Sanitize(t)
	e.discarded = res.Discarded
	e.removedHops = res.RemovedHops
	if !res.Discarded {
		e.adjs = trace.Adjacencies(clean, nil)
		for _, h := range clean.Hops {
			if h.Responded() {
				e.retAddrs = append(e.retAddrs, h.Addr)
			}
		}
	}
	w.apply(e, +1)
	w.buckets[t.Time] = append(w.buckets[t.Time], e)
	w.dirty = true
	return !e.discarded
}

// apply counts one entry's contributions in (delta=+1) or out (-1).
// The two directions are exactly symmetric, which is the whole
// correctness argument: presence in the materialised evidence is
// count>0, so any Observe/expire interleaving lands on the same state
// as a fresh collector over the surviving traces.
func (w *Window) apply(e windowEntry, delta int) {
	w.ev = nil
	w.total += delta
	w.removedHops += delta * e.removedHops
	if e.discarded {
		w.discarded += delta
	}
	for _, a := range e.allAddrs {
		bumpCount(w.allCount, a, delta)
	}
	for _, a := range e.retAddrs {
		bumpCount(w.retCount, a, delta)
	}
	for _, adj := range e.adjs {
		bumpCount(w.adjCount, adj, delta)
	}
	if w.mon != nil && !e.discarded {
		acc := w.mon[e.monitor]
		if acc == nil {
			acc = &monWindow{adjs: make(map[trace.Adjacency]int)}
			w.mon[e.monitor] = acc
		}
		acc.traces += delta
		for _, adj := range e.adjs {
			bumpCount(acc.adjs, adj, delta)
		}
		if acc.traces == 0 {
			delete(w.mon, e.monitor)
		}
	}
}

// bumpCount adjusts a refcount, deleting the key at zero so map sizes
// track distinct live entries.
func bumpCount[K comparable](m map[K]int, k K, delta int) {
	if n := m[k] + delta; n == 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
}

// Advance moves the window's right edge to now, expires every entry
// stamped at or before now-Length, reruns inference if the contents
// changed (reusing the previous Result otherwise), and returns the
// Result with Diag.Window stamped. now must not move backwards.
func (w *Window) Advance(now int64) (*Result, error) {
	if now < w.now {
		return nil, fmt.Errorf("core: window Advance moved backwards (%d after %d)", now, w.now)
	}
	w.now = now
	cutoff := now - w.length
	var expired []int64
	for ts := range w.buckets {
		if ts <= cutoff {
			expired = append(expired, ts)
		}
	}
	slices.Sort(expired)
	for _, ts := range expired {
		for _, e := range w.buckets[ts] {
			w.apply(e, -1)
			w.wstats.TracesExpired++
		}
		delete(w.buckets, ts)
		w.dirty = true
	}
	w.wstats.Advances++
	if w.dirty || w.last == nil {
		res, err := RunEvidence(w.evidence(), w.opt.Config)
		if err != nil {
			return nil, err
		}
		w.wstats.Recomputes++
		w.observeChurn(res)
		w.last = res
		w.dirty = false
	}
	w.wstats.TracesActive = w.total
	w.wstats.ActiveLinks = len(w.links)
	w.wstats.FlapRate = float64(w.wstats.IfaceFlaps) / float64(w.wstats.Advances)
	out := *w.last
	out.Diag.Window = w.wstats
	return &out, nil
}

// Evidence returns the current contents as Evidence, byte-identical
// to a new Collector fed only the resident traces. It is materialised
// once per change of contents — the Evidence the last recompute ran on
// is handed out again until the next Observe or expiry — so the
// returned value is shared and read-only: callers must not modify it.
// The window never mutates it either; later changes build a fresh one.
func (w *Window) Evidence() *Evidence {
	ev := w.evidence()
	if w.mon != nil && ev.Monitors == nil {
		var keys []uint64
		ev.Monitors = make([]MonitorEvidence, 0, len(w.mon))
		for name, acc := range w.mon {
			me := MonitorEvidence{Monitor: name, Traces: acc.traces}
			me.Adjacencies, keys = sortedAdjKeys(acc.adjs, keys)
			ev.Monitors = append(ev.Monitors, me)
		}
		slices.SortFunc(ev.Monitors, func(a, b MonitorEvidence) int {
			return strings.Compare(a.Monitor, b.Monitor)
		})
	}
	return ev
}

// evidence returns the cached Evidence of the current contents, built
// on first use without the per-monitor attribution: a recompute never
// reads it, and holding it through RunEvidence would only keep it
// live. Evidence adds it before the value first leaves the window.
func (w *Window) evidence() *Evidence {
	if w.ev != nil {
		return w.ev
	}
	ev := &Evidence{
		AllAddrs: make([]inet.Addr, 0, len(w.allCount)),
		Stats: trace.Stats{
			TotalTraces:     w.total,
			DiscardedTraces: w.discarded,
			RemovedHops:     w.removedHops,
			DistinctAddrs:   len(w.allCount),
			RetainedAddrs:   len(w.retCount),
		},
	}
	ev.Adjacencies, _ = sortedAdjKeys(w.adjCount, nil)
	for a := range w.allCount {
		ev.AllAddrs = append(ev.AllAddrs, a)
	}
	sortKeys(ev.AllAddrs)
	w.ev = ev
	return ev
}

// observeChurn diffs a recompute's high-confidence output against the
// previous one: link births/deaths over canonical AS pairs, and
// interface flaps (an address regaining an inference it lost).
func (w *Window) observeChurn(res *Result) {
	cur := make(map[uint64]struct{})
	curIfaces := make(map[inet.Addr]struct{}, len(w.ifacePresent))
	for i := range res.Inferences {
		inf := &res.Inferences[i]
		if inf.Indirect || inf.Uncertain {
			continue
		}
		curIfaces[inf.Addr] = struct{}{}
		if inf.Local.IsZero() || inf.Connected.IsZero() {
			continue
		}
		a, b := inf.Link()
		cur[uint64(a)<<32|uint64(b)] = struct{}{}
	}
	for k := range cur {
		if _, ok := w.links[k]; !ok {
			w.wstats.LinkBirths++
		}
	}
	for k := range w.links {
		if _, ok := cur[k]; !ok {
			w.wstats.LinkDeaths++
		}
	}
	w.links = cur
	for a := range curIfaces {
		if _, died := w.ifaceDied[a]; died {
			w.wstats.IfaceFlaps++
			delete(w.ifaceDied, a)
		}
	}
	for a := range w.ifacePresent {
		if _, ok := curIfaces[a]; !ok {
			w.ifaceDied[a] = struct{}{}
		}
	}
	w.ifacePresent = curIfaces
}
