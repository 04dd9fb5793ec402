package core

import (
	"runtime"
	"sync"

	"mapit/internal/trace"
)

// traceBatchSize is how many traces travel to a sanitise worker at
// once, amortising channel overhead across the per-trace work.
const traceBatchSize = 256

// ParallelCollector is a concurrent Collector: traces fan out in
// batches to sanitise workers, each of which owns an evidence store —
// a flat address table and a flat adjacency set. When the pipeline
// drains, every worker merges its store into the collector's
// persistent one (smaller tables into larger), and Finish extracts and
// sorts the packed keys. The union of the workers' stores does not
// depend on which worker saw which trace, so the evidence — and every
// Stats field — is byte-identical to what the serial Collector
// produces for the same traces, in any worker configuration.
//
// With a SpillConfig (NewParallelCollectorSpill), each worker flushes
// both of its tables as sorted runs to its own columnar disk segment
// once it crosses its share of the budget (MemBudget/workers), and
// again when it retires; finalisation becomes a bounded-memory external
// merge — still byte-identical, for any spill threshold, worker count,
// or segment size (DESIGN.md §11).
//
// Add and Evidence must be called from a single goroutine; the
// concurrency is internal. Like Collector, the collector remains usable
// after Evidence (the pipeline restarts lazily on the next Add).
type ParallelCollector struct {
	collectorSpill
	workers int
	added   int

	// store is the persistent evidence; workers merge into it under mu
	// when they retire.
	mu    sync.Mutex
	store evidenceStore

	// Live pipeline; nil between Evidence() and the next Add.
	tracesCh chan []trace.Trace
	wg       sync.WaitGroup
	batch    []trace.Trace
}

// NewParallelCollector returns an empty collector with the given
// concurrency; workers < 1 means runtime.GOMAXPROCS(0).
func NewParallelCollector(workers int) *ParallelCollector {
	return NewParallelCollectorSpill(workers, SpillConfig{})
}

// NewParallelCollectorSpill returns a collector that keeps its resident
// dedup state under cfg's budget by spilling columnar runs to disk. A
// disabled cfg (zero value) yields the plain in-memory collector.
func NewParallelCollectorSpill(workers int, cfg SpillConfig) *ParallelCollector {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &ParallelCollector{workers: workers, store: newEvidenceStore()}
	if cfg.enabled() {
		c.sink = newSpillSink(cfg)
	}
	return c
}

// TrackMonitors enables per-monitor evidence attribution (see
// Collector.TrackMonitors). It must be called before the first Add of a
// pipeline run — workers snapshot the setting when they start.
func (c *ParallelCollector) TrackMonitors() {
	if c.tracesCh != nil {
		panic("core: TrackMonitors called on a running ParallelCollector")
	}
	if c.store.monitors == nil {
		c.store.monitors = make(map[string]*monitorAcc)
	}
}

// Add enqueues one trace for sanitisation (§4.1) and evidence
// accumulation. Unlike Collector.Add it does not report retention — the
// trace may still be in flight; Evidence().Stats carries the counts.
func (c *ParallelCollector) Add(t trace.Trace) {
	c.start()
	c.added++
	c.batch = append(c.batch, t)
	if len(c.batch) >= traceBatchSize {
		c.tracesCh <- c.batch
		c.batch = make([]trace.Trace, 0, traceBatchSize)
	}
}

// Traces returns how many traces have been enqueued.
func (c *ParallelCollector) Traces() int { return c.added }

// start spins up the pipeline if it is not already running.
func (c *ParallelCollector) start() {
	if c.tracesCh != nil {
		return
	}
	c.tracesCh = make(chan []trace.Trace, 2*c.workers)
	for w := 0; w < c.workers; w++ {
		c.wg.Add(1)
		go c.sanitizeWorker()
	}
}

// drain flushes the pending batch and retires the pipeline, leaving
// everything collected in the persistent store.
func (c *ParallelCollector) drain() {
	if c.tracesCh == nil {
		return
	}
	if len(c.batch) > 0 {
		c.tracesCh <- c.batch
		c.batch = nil
	}
	close(c.tracesCh)
	c.wg.Wait()
	c.tracesCh = nil
}

// sanitizeWorker consumes trace batches into a worker-local store. At
// retirement the store merges into the persistent one — in out-of-core
// mode after flushing to the worker's spill segment, so the persistent
// store stays empty. A failed flush (sticky sink error) falls through
// to the merge: finalisation reports the error, and the data is not
// silently lost meanwhile.
func (c *ParallelCollector) sanitizeWorker() {
	defer c.wg.Done()
	w := newEvidenceStore()
	if c.store.monitors != nil {
		w.monitors = make(map[string]*monitorAcc)
	}
	if c.sink != nil {
		w.sp = newSpiller(c.sink)
		w.budget = c.sink.cfg.MemBudget / int64(c.workers)
	}
	for batch := range c.tracesCh {
		for _, t := range batch {
			w.add(t)
		}
	}
	if w.sp != nil {
		w.spillAll()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w.mergeInto(&c.store)
}

// Evidence drains the pipeline and finalises the collected evidence.
// On a spilling collector prefer Finish — Evidence panics if the
// external merge fails (the in-memory path cannot fail).
func (c *ParallelCollector) Evidence() *Evidence { return mustEvidence(c.Finish()) }

// Finish drains the pipeline and finalises the collected evidence —
// in out-of-core mode through a k-way merge of every spilled run with
// the in-memory residue. The collector remains usable afterwards.
func (c *ParallelCollector) Finish() (*Evidence, error) {
	c.drain()
	return c.store.finish(c.sink)
}
