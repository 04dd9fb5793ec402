package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mapit/internal/core"
	"mapit/internal/eval"
	"mapit/internal/snapshot"
	"mapit/internal/trace"
)

// spillBudget is batch-spill's collector memory budget: small enough
// that the large corpus spills several segment files and needs an
// external merge.
const spillBudget = 1 << 20

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 15

// minPasses keeps a short run from reporting a median of one pass, or a
// tail of fewer than three blocks (see tailBlock).
const minPasses = 3 * tailBlock

// largeCorpus is the batch and lookup workloads' input: the large world
// (eval.LargeEnvConfig) serialised as MTRC v4.
type largeCorpus struct {
	*world
	corpus []byte
}

func genLarge(seed int64) (*largeCorpus, error) {
	w, err := genWorld(eval.LargeEnvConfig(), seed)
	if err != nil {
		return nil, err
	}
	corpus, err := encodeV4(w.ds.Traces)
	if err != nil {
		return nil, err
	}
	return &largeCorpus{world: w, corpus: corpus}, nil
}

// passResult is what one pass through the batch pipeline produced.
type passResult struct {
	dur   time.Duration // wall time minus stolen time (see stolen)
	ev    *core.Evidence
	res   *core.Result
	spill core.SpillStats
}

// pipelinePass takes corpus bytes to a swapped snapshot the way the
// mapit CLI and mapitd's start-up load do: Ingestor.Ingest and Finish,
// RunEvidence, snapshot.Build, Handle.Swap. With a tracer it records a
// span around each of those calls under one root span.
func pipelinePass(t *tracer, run string, corpus []byte, cfg core.Config, opt core.IngestOptions, h *snapshot.Handle) (passResult, error) {
	clock := startUnstolen()
	root := t.begin(run, 0, "pass")
	ing := core.NewIngestor(opt)
	defer ing.Close()

	sp := t.begin(run, root.id, "core.ingest")
	_, err := ing.Ingest(bytes.NewReader(corpus))
	sp.end()
	if err != nil {
		return passResult{}, fmt.Errorf("ingest: %w", err)
	}
	sp = t.begin(run, root.id, "core.finish")
	ev, err := ing.Finish()
	sp.end()
	if err != nil {
		return passResult{}, fmt.Errorf("finish: %w", err)
	}
	c := cfg
	c.DecodeStats = ing.DecodeStats()
	spill := ing.SpillStats()
	c.SpillStats = &spill
	sp = t.begin(run, root.id, "core.run")
	res, err := core.RunEvidence(ev, c)
	sp.end()
	if err != nil {
		return passResult{}, fmt.Errorf("inference: %w", err)
	}
	sp = t.begin(run, root.id, "snapshot.build")
	snap := snapshot.Build(res, ev)
	sp.end()
	sp = t.begin(run, root.id, "snapshot.swap")
	h.Swap(snap)
	sp.end()
	root.end()
	return passResult{dur: clock.elapsed(), ev: ev, res: res, spill: spill}, nil
}

// decodeOnly times the decoder alone: core.DecodeTraces into a sink
// that drops every trace.
func decodeOnly(t *tracer, run string, corpus []byte) (int, error) {
	sp := t.begin(run, 0, "trace.decode")
	defer sp.end()
	return core.DecodeTraces(bytes.NewReader(corpus), trace.DecodeOptions{Permissive: true},
		func(trace.Trace) error { return nil })
}

// runBatch is the batch and batch-spill workload: repeated passes of
// the large corpus through the batch pipeline, each pass's inference set
// checked against the reference digest.
func runBatch(o opts, spill bool) (*report, error) {
	t0 := time.Now()
	in, err := genLarge(o.seed)
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	cfg, setupS, err := repeatSetup(setupRepeats, false, func() (core.Config, error) {
		return parseMeta(in.meta, o.workers)
	}, nil)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in.ds.Traces, cfg)
	if err != nil {
		return nil, err
	}
	nTraces := len(in.ds.Traces)
	in.ds = nil // only the reference needed the in-memory traces

	ingOpt := core.IngestOptions{Workers: o.workers}
	if spill {
		ingOpt.Spill = core.SpillConfig{Dir: filepath.Join(o.outDir, "spill"), MemBudget: spillBudget}
		if err := os.MkdirAll(ingOpt.Spill.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	var h snapshot.Handle
	rep := newReport()
	rep.note("%s: %d traces, %d-byte v4 corpus, %d inferred addresses; inputs %.1fs, reference %.1fs",
		o.workload, nTraces, len(in.corpus), len(ref.hits), genS, time.Since(t0).Seconds()-genS)

	// check counts one pass: failed if the pipeline returned an error or
	// an inference set that differs from the reference. It returns the
	// pipeline error only; a wrong pass still took its time.
	check := func(p passResult, err error) (passResult, error) {
		if err == nil && digest(p.res.Inferences) != ref.digest {
			rep.count(fmt.Errorf("pass inference digest differs from the reference"))
			return p, nil
		}
		rep.count(err)
		return p, err
	}

	// One untimed pass warms the allocator and the code paths.
	if _, err := check(pipelinePass(nil, "warmup", in.corpus, cfg, ingOpt, &h)); err != nil {
		return nil, err
	}

	var (
		untraced, traced sample // pass seconds
		allocMB, gcs     sample
		tr               *tracer
		last             passResult
		decodeMS         sample
	)
	if o.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		runtime.GC()
		rc := readRuntimeCounters()
		p, err := check(pipelinePass(nil, fmt.Sprintf("pass-%d", i), in.corpus, cfg, ingOpt, &h))
		delta := readRuntimeCounters().since(rc)
		if err != nil {
			continue
		}
		untraced = append(untraced, p.dur.Seconds())
		allocMB = append(allocMB, float64(delta.allocBytes)/(1<<20))
		gcs = append(gcs, float64(delta.gcCycles))
		last = p
		if !o.trace {
			continue
		}
		// Traced runs alternate untraced and traced passes, so the
		// tracing overhead is measured under the same conditions.
		runtime.GC()
		run := fmt.Sprintf("traced-%d", i)
		if p, err = check(pipelinePass(tr, run, in.corpus, cfg, ingOpt, &h)); err != nil {
			continue
		}
		traced = append(traced, p.dur.Seconds())
		last = p
		start := time.Now()
		if _, err := decodeOnly(tr, run, in.corpus); err != nil {
			return nil, err
		}
		decodeMS = append(decodeMS, time.Since(start).Seconds()*1000)
	}
	if len(untraced) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}

	if !o.trace {
		peak, err := heapProbe(func() error {
			_, err := check(pipelinePass(nil, "heap-probe", in.corpus, cfg, ingOpt, &h))
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = setupS
		rep.metrics["ops_per_s"] = float64(nTraces) / untraced.median()
		rep.metrics["op_p50_ms"] = untraced.median() * 1000
		rep.metrics["op_tail_ms"] = untraced.blockMaxMedian(tailBlock) * 1000
		rep.metrics["peak_heap_mb"] = peak
		rep.note("passes: n=%d p50=%.1fms p90=%.1fms, median of the slowest of each %d in a row %.1fms",
			len(untraced), untraced.median()*1000, untraced.percentile(90)*1000, tailBlock, untraced.blockMaxMedian(tailBlock)*1000)
		return rep, nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	m := rep.metrics
	m["trace.decode_ms"] = decodeMS.median()
	pipelineLayers(m, self)
	passCounts(m, last)
	m["runtime.alloc_mb"] = allocMB.median()
	m["runtime.gc_cycles"] = gcs.median()
	layers := m["core.ingest_ms"] + m["core.finish_ms"] + m["core.run_ms"] + m["snapshot.build_ms"] + m["snapshot.swap_us"]/1000
	m["trace.coverage_frac"] = layers / (untraced.median() * 1000)
	m["trace.overhead_frac"] = traced.median()/untraced.median() - 1
	m["trace.spans"] = float64(len(spans))
	rep.note("traced passes: n=%d untraced p50=%.1fms traced p50=%.1fms harness self p50=%.3fms",
		len(traced), untraced.median()*1000, traced.median()*1000, medianSelf(self, "pass", time.Millisecond))
	return rep, writeSpans(tr, o)
}

// tailBlock is how many consecutive passes op_tail_ms takes the slowest
// of; it reports the median of those block maxima, about the 84th
// percentile of passes. A run holds only about 25 passes, and its p90
// moved with bursts of load from other tenants that slowed a few
// passes in a row: the median over blocks is not moved by one or two
// slow blocks.
const tailBlock = 4

// pipelineLayers fills the median self times of the calls pipelinePass
// makes.
func pipelineLayers(m map[string]float64, self map[string][]time.Duration) {
	m["core.ingest_ms"] = medianSelf(self, "core.ingest", time.Millisecond)
	m["core.finish_ms"] = medianSelf(self, "core.finish", time.Millisecond)
	m["core.run_ms"] = medianSelf(self, "core.run", time.Millisecond)
	m["snapshot.build_ms"] = medianSelf(self, "snapshot.build", time.Millisecond)
	m["snapshot.swap_us"] = medianSelf(self, "snapshot.swap", time.Microsecond)
}

// passCounts fills the volume and useful-work counters of one pass.
func passCounts(m map[string]float64, p passResult) {
	m["core.spill_files"] = float64(p.spill.Files)
	m["core.spilled_mb"] = float64(p.spill.SpilledBytes) / (1 << 20)
	m["core.spill_merges"] = float64(p.spill.Merges)
	resultCounts(m, p.res, p.ev)
}

// resultCounts fills the fixpoint and evidence counters.
func resultCounts(m map[string]float64, res *core.Result, ev *core.Evidence) {
	m["core.iterations"] = float64(res.Diag.Iterations)
	if res.Partition != nil {
		m["core.components"] = float64(res.Partition.Components)
		m["core.giant_share"] = res.Partition.GiantShare
	}
	m["core.inferences"] = float64(len(res.Inferences))
	m["core.sanitize_kept_frac"] = ev.Stats.RetainedTraceFraction()
	m["core.adjacencies"] = float64(len(ev.Adjacencies))
	m["core.addrs"] = float64(ev.Stats.DistinctAddrs)
}

func writeSpans(t *tracer, o opts) error {
	return t.write(filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed)))
}
