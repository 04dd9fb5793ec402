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
	AllAddrs    inet.AddrSet
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
	for name, acc := range m {
		adjs := make([]trace.Adjacency, 0, len(acc.adjs))
		for adj := range acc.adjs {
			adjs = append(adjs, adj)
		}
		slices.SortFunc(adjs, adjacencyCmp)
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

// EvidenceFrom distils a sanitised in-memory dataset.
func EvidenceFrom(s *trace.Sanitized) *Evidence {
	c := NewCollector()
	c.addSanitized(s)
	return c.Evidence()
}

// Collector accumulates Evidence incrementally: feed it traces one at a
// time (Add sanitises per §4.1) and it never retains them. Use it to
// stream arbitrarily large corpora from disk. With a SpillConfig (see
// NewCollectorSpill) the dedup structures spill to columnar disk
// segments under a memory budget and Finish merges them back —
// byte-identical to the in-memory result.
type Collector struct {
	addrs       addrFlags
	adjacencies map[trace.Adjacency]struct{}
	stats       trace.Stats
	scratch     []trace.Adjacency

	// sortScratch is the reusable key-extraction/sort buffer of the
	// in-memory Evidence path; the returned evidence never aliases it.
	sortScratch []trace.Adjacency

	// monitors is the opt-in per-vantage-point attribution (see
	// TrackMonitors); nil when tracking is off. Attribution never
	// spills: it is bounded by monitors × their unique adjacencies and
	// exists to feed a query index, not the algorithm.
	monitors map[string]*monitorAcc

	// spill is non-nil when out-of-core mode is enabled.
	spill *spiller
}

// NewCollector returns an empty in-memory collector.
func NewCollector() *Collector {
	return &Collector{
		addrs:       make(addrFlags),
		adjacencies: make(map[trace.Adjacency]struct{}),
	}
}

// NewCollectorSpill returns a collector that keeps its resident dedup
// state under cfg's budget by spilling sorted columnar runs to disk
// (DESIGN.md §11). Finish (or Evidence) merges the runs back with
// bounded memory; Close removes the spill files. A disabled cfg (zero
// value) yields a plain in-memory collector.
func NewCollectorSpill(cfg SpillConfig) *Collector {
	c := NewCollector()
	if cfg.enabled() {
		c.spill = newSpiller(newSpillSink(cfg))
	}
	return c
}

// TrackMonitors enables per-monitor evidence attribution: finalised
// evidence carries Evidence.Monitors, the sorted per-vantage-point view
// the snapshot query index is built from. Call it before the first Add;
// attribution stays in memory even on a spilling collector.
func (c *Collector) TrackMonitors() {
	if c.monitors == nil {
		c.monitors = make(map[string]*monitorAcc)
	}
}

// Add sanitises one trace (§4.1) and accumulates its evidence. It
// reports whether the trace was retained.
func (c *Collector) Add(t trace.Trace) bool {
	var kept bool
	c.scratch, kept = collectTrace(t, c.addrs, &c.stats, c.scratch)
	if !kept {
		return false
	}
	for _, adj := range c.scratch {
		c.adjacencies[adj] = struct{}{}
	}
	if c.monitors != nil {
		recordMonitor(c.monitors, t.Monitor, c.scratch)
	}
	c.maybeSpill()
	return true
}

// maybeSpill flushes dedup structures to disk when the configured
// budget is crossed. Flushed structures restart empty (fresh maps, so
// the buckets are actually released); anything unflushed — including
// after a write failure — stays in memory and correctness is
// unaffected.
func (c *Collector) maybeSpill() {
	sp := c.spill
	if sp == nil {
		return
	}
	cfg := sp.sink.cfg
	if n := cfg.RunEntries; n > 0 {
		if len(c.adjacencies) >= n && sp.flushAdjSet(c.adjacencies) {
			c.adjacencies = make(map[trace.Adjacency]struct{})
		}
		if len(c.addrs) >= n && sp.flushAddrFlags(c.addrs) {
			c.addrs = make(addrFlags)
		}
		return
	}
	est := int64(len(c.adjacencies))*adjEntryCost + int64(len(c.addrs))*addrEntryCost
	if est <= cfg.MemBudget {
		return
	}
	if sp.flushAdjSet(c.adjacencies) {
		c.adjacencies = make(map[trace.Adjacency]struct{})
	}
	if sp.flushAddrFlags(c.addrs) {
		c.addrs = make(addrFlags)
	}
}

// addSanitized ingests an already-sanitised dataset without re-running
// the sanitiser.
func (c *Collector) addSanitized(s *trace.Sanitized) {
	for a := range s.AllAddrs {
		c.addrs[a] |= flagSeen
	}
	for _, t := range s.Retained {
		c.scratch = trace.Adjacencies(t, c.scratch[:0])
		for _, adj := range c.scratch {
			c.adjacencies[adj] = struct{}{}
		}
		if c.monitors != nil {
			recordMonitor(c.monitors, t.Monitor, c.scratch)
		}
		for _, h := range t.Hops {
			if h.Responded() {
				c.addrs[h.Addr] |= flagSeen | flagRetained
			}
		}
	}
	c.stats = s.Stats
}

// Traces returns how many traces the collector has seen.
func (c *Collector) Traces() int { return c.stats.TotalTraces }

// Evidence finalises the collector. The collector remains usable; the
// returned adjacency slice is sorted for determinism, and the address
// set is a snapshot copy so later Adds cannot mutate returned evidence.
// On a spilling collector prefer Finish — Evidence panics if the
// external merge fails (the in-memory path cannot fail).
func (c *Collector) Evidence() *Evidence {
	ev, err := c.Finish()
	if err != nil {
		panic("core: spill merge failed: " + err.Error())
	}
	return ev
}

// Finish finalises the collector, merging any spilled runs with the
// in-memory residue. The collector remains usable afterwards (spilled
// runs stay on disk and rejoin later merges); the returned evidence
// shares no storage with the collector. Errors are only possible in
// out-of-core mode: a spill write that failed during ingest, or an
// unreadable/corrupt segment at merge time.
func (c *Collector) Finish() (*Evidence, error) {
	if c.spill == nil || !c.spill.sink.spilled() {
		if c.spill != nil {
			if err := c.spill.sink.failed(); err != nil {
				return nil, err
			}
		}
		return c.evidenceInMemory(), nil
	}
	adjRes := c.sortedAdjResidue()
	allRes, retRes := c.addrs.sortedRuns(nil, nil)
	ev, err := c.spill.sink.mergeEvidence(
		[][]trace.Adjacency{adjRes},
		[][]inet.Addr{allRes}, [][]inet.Addr{retRes},
		c.stats)
	if err != nil {
		return nil, err
	}
	ev.Monitors = monitorEvidence(c.monitors)
	return ev, nil
}

// SpillStats snapshots the out-of-core counters; zero for an in-memory
// collector.
func (c *Collector) SpillStats() SpillStats {
	if c.spill == nil {
		return SpillStats{}
	}
	return c.spill.sink.Stats()
}

// Close releases the collector's spill files. Only needed in
// out-of-core mode; the collector must not be used afterwards.
func (c *Collector) Close() error {
	if c.spill == nil {
		return nil
	}
	return c.spill.sink.close()
}

// evidenceInMemory is the spill-free finalisation. The key extraction
// and sort run in a scratch buffer reused across calls; the returned
// slice is a fresh exact-size copy, preserving the no-aliasing
// contract.
func (c *Collector) evidenceInMemory() *Evidence {
	c.sortScratch = c.sortScratch[:0]
	for adj := range c.adjacencies {
		c.sortScratch = append(c.sortScratch, adj)
	}
	slices.SortFunc(c.sortScratch, adjacencyCmp)
	adjs := make([]trace.Adjacency, len(c.sortScratch))
	copy(adjs, c.sortScratch)
	all, retained := c.addrs.evidenceSet()
	stats := c.stats
	stats.DistinctAddrs = len(all)
	stats.RetainedAddrs = retained
	return &Evidence{
		AllAddrs:    all,
		Adjacencies: adjs,
		Stats:       stats,
		Monitors:    monitorEvidence(c.monitors),
	}
}

// sortedAdjResidue snapshots the in-memory adjacency residue as a
// sorted slice for the external merge, through the reused scratch.
func (c *Collector) sortedAdjResidue() []trace.Adjacency {
	c.sortScratch = c.sortScratch[:0]
	for adj := range c.adjacencies {
		c.sortScratch = append(c.sortScratch, adj)
	}
	slices.SortFunc(c.sortScratch, adjacencyCmp)
	return c.sortScratch
}

// addrFlags is a collector's address evidence: one entry per address
// seen on any trace, flagged flagSeen, with flagRetained added once the
// address responds on a trace that survives sanitisation. AllAddrs is
// the key set and the retained count is the flagRetained population,
// so each hop costs one map operation where two address sets cost two.
type addrFlags map[inet.Addr]uint8

const (
	flagSeen uint8 = 1 << iota
	flagRetained
)

// collectTrace is the per-trace step every collector shares: it
// sanitises t (§4.1), counts it in stats, flags its responding
// addresses in flags, and — when the trace is retained — returns its
// adjacencies in scratch (reused, truncated first).
func collectTrace(t trace.Trace, flags addrFlags, stats *trace.Stats,
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
			flags[h.Addr] |= f
		}
	}
	if res.Discarded {
		stats.DiscardedTraces++
		return scratch[:0], false
	}
	return trace.Adjacencies(clean, scratch[:0]), true
}

// merge ORs src's flags into f.
func (f addrFlags) merge(src addrFlags) {
	for a, fl := range src {
		f[a] |= fl
	}
}

// evidenceSet returns the finalised AllAddrs set (a fresh map) and the
// number of retained addresses.
func (f addrFlags) evidenceSet() (inet.AddrSet, int) {
	set := make(inet.AddrSet, len(f))
	retained := 0
	for a, fl := range f {
		set[a] = struct{}{}
		if fl&flagRetained != 0 {
			retained++
		}
	}
	return set, retained
}

// sortedRuns splits f into the two sorted address runs of the spill
// format — every address (streamAll) and the retained ones (streamRet)
// — appending to all and ret from length zero.
func (f addrFlags) sortedRuns(all, ret []inet.Addr) ([]inet.Addr, []inet.Addr) {
	all, ret = all[:0], ret[:0]
	for a, fl := range f {
		all = append(all, a)
		if fl&flagRetained != 0 {
			ret = append(ret, a)
		}
	}
	slices.Sort(all)
	slices.Sort(ret)
	return all, ret
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
