// Command e2ebench is the repository's end-to-end benchmark. It
// generates a workload's inputs from a seed, hands the program only the
// serialised inputs, runs the workload against the public entry points
// (core.Ingestor, core.RunEvidence, snapshot.Build, serve.Server over a
// real loopback socket), checks every output against an independent
// reference, and prints one JSON result line last on stdout.
//
//	e2ebench --workload batch|batch-spill|lookup|window --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, from spans recorded around each call
// into a layer and written to .bench_out/ when the run ends. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// all of them; what "op" is depends on the workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"core.ingest_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"core.spill_files", "count"},
	{"core.spilled_mb", "MB"},
	{"core.spill_merges", "count"},
	{"core.run_ms", "ms"},
	{"core.iterations", "count"},
	{"core.components", "count"},
	{"core.giant_share", "frac"},
	{"core.inferences", "count"},
	{"core.sanitize_kept_frac", "frac"},
	{"core.adjacencies", "count"},
	{"core.addrs", "count"},
	{"core.window_observe_ms", "ms"},
	{"core.window_advance_ms", "ms"},
	{"core.window_evidence_ms", "ms"},
	{"core.window_recompute_frac", "frac"},
	{"core.window_resident_traces", "count"},
	{"core.window_link_births", "count"},
	{"core.window_link_deaths", "count"},
	{"core.window_late_traces", "count"},
	{"snapshot.build_ms", "ms"},
	{"snapshot.swap_us", "us"},
	{"snapshot.lookup_ns", "ns"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.response_bytes", "bytes"},
	{"serve.ingest_ms", "ms"},
	{"http.lookup_overhead_us", "us"},
	{"http.lookup_p99_us", "us"},
	{"http.post_overhead_ms", "ms"},
	{"http.churn_lookup_p99_us", "us"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.coverage_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
	outDir   string // spans and spill files, inside the checkout
}

// report is what a workload run measured.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string // human-readable lines for stderr
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count tallies one checked operation.
func (r *report) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.note("FAILED: %v", err)
		}
	}
}

var workloads = map[string]func(opts) (*report, error){
	"batch":       func(o opts) (*report, error) { return runBatch(o, false) },
	"batch-spill": func(o opts) (*report, error) { return runBatch(o, true) },
	"lookup":      runLookup,
	"window":      runWindow,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o opts
	var seconds float64
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload to run: batch, batch-spill, lookup or window")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory for spans and spill files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = traced == 1
	o.workers = runtime.GOMAXPROCS(0)

	rep, err := fn(o)
	if err != nil {
		return err
	}
	if o.trace {
		return emit(rep, perLayer, false)
	}
	return emit(rep, endToEnd, true)
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name and unit on stderr and the JSON
// result as the last line of stdout. A workload must measure every
// end-to-end metric (required); a per-layer metric it did not reach
// reads 0.
func emit(rep *report, defs []metricDef, required bool) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && required {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %t\n", out.Attempted, out.Failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// repeatSetup runs set-up n times and returns the median duration and
// the last set-up's value; earlier values are released with drop. With
// unsteal, stolen time is subtracted; set-ups of a few milliseconds keep
// wall time, as the steal counter ticks in 10 ms steps.
func repeatSetup[T any](n int, unsteal bool, setup func() (T, error), drop func(T)) (T, float64, error) {
	var zero, cur T
	var times sample
	for i := 0; i < n; i++ {
		if i > 0 && drop != nil {
			drop(cur)
		}
		runtime.GC()
		clock := startUnstolen()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		d := time.Since(clock.start)
		if unsteal {
			d = clock.elapsed()
		}
		times = append(times, d.Seconds())
		cur = v
	}
	return cur, times.median(), nil
}
