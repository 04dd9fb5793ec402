package core

import (
	"cmp"
	"slices"
	"strings"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Evidence is the distilled input MAP-IT actually consumes: the set of
// observed addresses (for the §4.2 other-side heuristic), the unique
// adjacencies (for the §4.3 neighbour sets) and the sanitisation
// statistics. A month of Ark data is ~733M traces but only millions of
// unique adjacencies, so Evidence is what should be held in memory —
// not the traces.
type Evidence struct {
	// AllAddrs is every responding address, ascending and
	// duplicate-free. Every builder in this package produces that form;
	// RunEvidence also accepts caller-built evidence in any order or
	// with repeats, and sorts a private copy then.
	AllAddrs []inet.Addr
	// Adjacencies are the unique adjacencies in (First, Second) order.
	Adjacencies []trace.Adjacency
	Stats       trace.Stats

	// Monitors is the optional per-vantage-point attribution of the
	// evidence, sorted by monitor name. Nil unless the collector had
	// TrackMonitors enabled — the algorithm never reads it; it feeds
	// the snapshot package's monitor→evidence query index.
	Monitors []MonitorEvidence
}

// MonitorEvidence is one vantage point's slice of the evidence: how many
// of its traces survived sanitisation and the unique adjacencies they
// contributed (sorted in the canonical (First, Second) order).
type MonitorEvidence struct {
	Monitor     string
	Traces      int
	Adjacencies []trace.Adjacency
}

// monitorAcc accumulates one monitor's attribution during collection.
type monitorAcc struct {
	traces int
	adjs   map[trace.Adjacency]struct{}
}

// monitorEvidence finalises an attribution map into the sorted exported
// form; nil in, nil out.
func monitorEvidence(m map[string]*monitorAcc) []MonitorEvidence {
	if m == nil {
		return nil
	}
	out := make([]MonitorEvidence, 0, len(m))
	var keys []uint64
	for name, acc := range m {
		var adjs []trace.Adjacency
		adjs, keys = sortedAdjKeys(acc.adjs, keys)
		out = append(out, MonitorEvidence{Monitor: name, Traces: acc.traces, Adjacencies: adjs})
	}
	slices.SortFunc(out, func(a, b MonitorEvidence) int {
		return strings.Compare(a.Monitor, b.Monitor)
	})
	return out
}

// recordMonitor files one retained trace's adjacencies under its
// monitor.
func recordMonitor(m map[string]*monitorAcc, monitor string, adjs []trace.Adjacency) {
	acc := m[monitor]
	if acc == nil {
		acc = &monitorAcc{adjs: make(map[trace.Adjacency]struct{})}
		m[monitor] = acc
	}
	acc.traces++
	for _, adj := range adjs {
		acc.adjs[adj] = struct{}{}
	}
}

// sortedAdjKeys returns m's adjacencies as a fresh slice in (First,
// Second) order, sorting them as packed keys through scratch.
func sortedAdjKeys[V any](m map[trace.Adjacency]V, scratch []uint64) ([]trace.Adjacency, []uint64) {
	scratch = scratch[:0]
	for adj := range m {
		scratch = append(scratch, packAdj(adj))
	}
	sortKeys(scratch)
	return unpackAdjs(make([]trace.Adjacency, 0, len(scratch)), scratch), scratch
}

// EvidenceFrom distils a sanitised in-memory dataset. It is the
// reference builder: plain maps over the sanitiser's output, sharing no
// code with the collectors' tables, so the differential oracles compare
// two independent implementations.
func EvidenceFrom(s *trace.Sanitized) *Evidence {
	retained := make(inet.AddrSet)
	adjSet := make(map[trace.Adjacency]struct{})
	var scratch []trace.Adjacency
	for _, t := range s.Retained {
		scratch = trace.Adjacencies(t, scratch[:0])
		for _, adj := range scratch {
			adjSet[adj] = struct{}{}
		}
		for _, h := range t.Hops {
			if h.Responded() {
				retained.Add(h.Addr)
			}
		}
	}
	ev := &Evidence{
		AllAddrs:    make([]inet.Addr, 0, len(s.AllAddrs)),
		Adjacencies: make([]trace.Adjacency, 0, len(adjSet)),
		Stats:       s.Stats,
	}
	// The sanitiser's AllAddrs holds every responding address, those of
	// the retained traces included.
	for a := range s.AllAddrs {
		ev.AllAddrs = append(ev.AllAddrs, a)
	}
	slices.Sort(ev.AllAddrs)
	for adj := range adjSet {
		ev.Adjacencies = append(ev.Adjacencies, adj)
	}
	slices.SortFunc(ev.Adjacencies, adjacencyCmp)
	ev.Stats.DistinctAddrs = len(ev.AllAddrs)
	ev.Stats.RetainedAddrs = len(retained)
	return ev
}

// evidenceStore is one collecting party's deduplicated evidence: an
// address table of flagSeen|flagRetained bytes, an adjacency set of
// packed keys, and the sanitisation counters. The serial Collector is
// one store; every ParallelCollector sanitise worker owns one and
// merges it into the collector's persistent store when it retires.
// With a spiller the store flushes both tables as sorted runs once its
// share of the budget is crossed.
type evidenceStore struct {
	addrs    flatTable[inet.Addr]
	adjs     flatTable[uint64]
	stats    trace.Stats
	scratch  []trace.Adjacency
	monitors map[string]*monitorAcc // nil unless tracking monitors

	// sp is the store's spill handle (nil: never spills) and budget its
	// byte share of SpillConfig.MemBudget.
	sp     *spiller
	budget int64
}

func newEvidenceStore() evidenceStore {
	// A non-nil vals slice makes the address table carry flag bytes.
	return evidenceStore{addrs: flatTable[inet.Addr]{vals: []uint8{}}}
}

const (
	flagSeen uint8 = 1 << iota
	flagRetained
)

// add sanitises one trace (§4.1) into the store and reports whether it
// was retained.
func (s *evidenceStore) add(t trace.Trace) bool {
	var kept bool
	s.scratch, kept = collectTrace(t, &s.addrs, &s.stats, s.scratch)
	if kept {
		for _, adj := range s.scratch {
			s.adjs.put(packAdj(adj), 0)
		}
		if s.monitors != nil {
			recordMonitor(s.monitors, t.Monitor, s.scratch)
		}
	}
	if s.sp != nil {
		s.maybeSpill()
	}
	return kept
}

// maybeSpill flushes the tables once the store crosses its budget share
// (or a table reaches SpillConfig.RunEntries). A flushed table is
// cleared for reuse; after a write failure the data stays in memory and
// finalisation reports the sticky error.
func (s *evidenceStore) maybeSpill() {
	if n := s.sp.sink.cfg.RunEntries; n > 0 {
		if s.adjs.len() >= n {
			s.sp.flushAdjs(&s.adjs)
		}
		if s.addrs.len() >= n {
			s.sp.flushAddrs(&s.addrs)
		}
		return
	}
	if int64(s.adjs.len())*adjEntryCost+int64(s.addrs.len())*addrEntryCost > s.budget {
		s.spillAll()
	}
}

// spillAll flushes both tables.
func (s *evidenceStore) spillAll() {
	s.sp.flushAdjs(&s.adjs)
	s.sp.flushAddrs(&s.addrs)
}

// mergeInto folds the store into dst, each table smaller into larger.
// The store must not be used afterwards.
func (s *evidenceStore) mergeInto(dst *evidenceStore) {
	s.addrs.mergeInto(&dst.addrs)
	s.adjs.mergeInto(&dst.adjs)
	for name, acc := range s.monitors {
		d := dst.monitors[name]
		if d == nil {
			dst.monitors[name] = acc
			continue
		}
		d.traces += acc.traces
		for adj := range acc.adjs {
			d.adjs[adj] = struct{}{}
		}
	}
	dst.stats.TotalTraces += s.stats.TotalTraces
	dst.stats.DiscardedTraces += s.stats.DiscardedTraces
	dst.stats.RemovedHops += s.stats.RemovedHops
}

// finish finalises the store — merged with every run spilled to sink,
// when there are any — into evidence sharing no storage with it. sink
// is nil for an in-memory collector.
func (s *evidenceStore) finish(sink *spillSink) (*Evidence, error) {
	if sink != nil {
		if err := sink.failed(); err != nil {
			return nil, err
		}
	}
	keys := s.adjs.appendSorted(make([]uint64, 0, s.adjs.len()), 0)
	adjs := unpackAdjs(make([]trace.Adjacency, 0, len(keys)), keys)
	all := s.addrs.appendSorted(make([]inet.Addr, 0, s.addrs.len()), 0)
	var ev *Evidence
	if sink == nil || !sink.spilled() {
		ev = &Evidence{AllAddrs: all, Adjacencies: adjs, Stats: s.stats}
		ev.Stats.DistinctAddrs = len(all)
		ev.Stats.RetainedAddrs = s.addrs.count(flagRetained)
	} else {
		ret := s.addrs.appendSorted(nil, flagRetained)
		var err error
		if ev, err = sink.mergeEvidence(adjs, all, ret, s.stats); err != nil {
			return nil, err
		}
	}
	ev.Monitors = monitorEvidence(s.monitors)
	return ev, nil
}

// collectorSpill is the spill handle both collectors expose; sink is
// nil for an in-memory collector.
type collectorSpill struct{ sink *spillSink }

// SpillStats snapshots the out-of-core counters; zero for an in-memory
// collector.
func (c collectorSpill) SpillStats() SpillStats {
	if c.sink == nil {
		return SpillStats{}
	}
	return c.sink.Stats()
}

// Close releases the collector's spill files. Only needed in
// out-of-core mode; the collector must not be used afterwards.
func (c collectorSpill) Close() error {
	if c.sink == nil {
		return nil
	}
	return c.sink.close()
}

// mustEvidence is Evidence over Finish: the in-memory path cannot fail,
// so an error can only be a spill failure.
func mustEvidence(ev *Evidence, err error) *Evidence {
	if err != nil {
		panic("core: spill merge failed: " + err.Error())
	}
	return ev
}

// Collector accumulates Evidence incrementally: feed it traces one at a
// time (Add sanitises per §4.1) and it never retains them. Use it to
// stream arbitrarily large corpora from disk. It is the
// ParallelCollector's evidence store driven from the caller's
// goroutine. With a SpillConfig (see NewCollectorSpill) the store
// spills sorted runs to columnar disk segments under a memory budget
// and Finish merges them back — byte-identical to the in-memory result.
type Collector struct {
	collectorSpill
	store evidenceStore
}

// NewCollector returns an empty in-memory collector.
func NewCollector() *Collector {
	return &Collector{store: newEvidenceStore()}
}

// NewCollectorSpill returns a collector that keeps its resident dedup
// state under cfg's budget by spilling sorted columnar runs to disk
// (DESIGN.md §11). Finish (or Evidence) merges the runs back with
// bounded memory; Close removes the spill files. A disabled cfg (zero
// value) yields a plain in-memory collector.
func NewCollectorSpill(cfg SpillConfig) *Collector {
	c := NewCollector()
	if cfg.enabled() {
		c.sink = newSpillSink(cfg)
		c.store.sp = newSpiller(c.sink)
		c.store.budget = cfg.MemBudget
	}
	return c
}

// TrackMonitors enables per-monitor evidence attribution: finalised
// evidence carries Evidence.Monitors, the sorted per-vantage-point view
// the snapshot query index is built from. Call it before the first Add;
// attribution stays in memory even on a spilling collector.
func (c *Collector) TrackMonitors() {
	if c.store.monitors == nil {
		c.store.monitors = make(map[string]*monitorAcc)
	}
}

// Add sanitises one trace (§4.1) and accumulates its evidence. It
// reports whether the trace was retained.
func (c *Collector) Add(t trace.Trace) bool { return c.store.add(t) }

// Traces returns how many traces the collector has seen.
func (c *Collector) Traces() int { return c.store.stats.TotalTraces }

// Evidence finalises the collector (see Finish). On a spilling
// collector prefer Finish — Evidence panics if the external merge
// fails (the in-memory path cannot fail).
func (c *Collector) Evidence() *Evidence { return mustEvidence(c.Finish()) }

// Finish finalises the collector, merging any spilled runs with the
// in-memory residue. The collector remains usable afterwards (spilled
// runs stay on disk and rejoin later merges); the returned evidence
// shares no storage with the collector. Errors are only possible in
// out-of-core mode: a spill write that failed during ingest, or an
// unreadable/corrupt segment at merge time.
func (c *Collector) Finish() (*Evidence, error) { return c.store.finish(c.sink) }

// collectTrace is the per-trace step every collector shares: it
// sanitises t (§4.1), counts it in stats, flags its responding
// addresses in addrs, and — when the trace is retained — returns its
// adjacencies in scratch (reused, truncated first).
func collectTrace(t trace.Trace, addrs *flatTable[inet.Addr], stats *trace.Stats,
	scratch []trace.Adjacency) ([]trace.Adjacency, bool) {
	stats.TotalTraces++
	clean, res := trace.Sanitize(t)
	stats.RemovedHops += res.RemovedHops
	// Sanitize replaces a removed hop with a null hop at the same index,
	// so clean and t stay aligned: a hop is retained iff its trace
	// survives and it still responds in clean.
	for i, h := range t.Hops {
		if h.Responded() {
			f := flagSeen
			if !res.Discarded && clean.Hops[i].Responded() {
				f |= flagRetained
			}
			addrs.put(h.Addr, f)
		}
	}
	if res.Discarded {
		stats.DiscardedTraces++
		return scratch[:0], false
	}
	return trace.Adjacencies(clean, scratch[:0]), true
}

// packAdj packs an adjacency as First<<32|Second: packed keys sort in
// the canonical (First, Second) order.
func packAdj(a trace.Adjacency) uint64 { return uint64(a.First)<<32 | uint64(a.Second) }

// unpackAdjs appends the adjacencies of packed keys to dst.
func unpackAdjs(dst []trace.Adjacency, keys []uint64) []trace.Adjacency {
	for _, k := range keys {
		dst = append(dst, trace.Adjacency{First: inet.Addr(k >> 32), Second: inet.Addr(uint32(k))})
	}
	return dst
}

// adjacencyCmp orders adjacencies by (First, Second) — the canonical
// order of Evidence.Adjacencies.
func adjacencyCmp(a, b trace.Adjacency) int {
	if c := cmp.Compare(a.First, b.First); c != 0 {
		return c
	}
	return cmp.Compare(a.Second, b.Second)
}

// addrCmp orders addresses numerically — the order of spilled address
// runs.
func addrCmp(a, b inet.Addr) int { return cmp.Compare(a, b) }
