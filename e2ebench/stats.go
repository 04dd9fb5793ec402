package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

// durations converts timings to the given unit (time.Millisecond etc.).
func durations(ds []time.Duration, unit time.Duration) sample {
	out := make(sample, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// percentile returns the p-th percentile (0..100) by linear
// interpolation between closest ranks; NaN for an empty sample.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.percentile(50) }

// blockMaxMedian splits s, in order, into blocks of k samples, drops a
// last incomplete block, and returns the median of the blocks' maxima;
// NaN when s holds fewer than k samples.
func (s sample) blockMaxMedian(k int) float64 {
	var maxima sample
	for i := 0; i+k <= len(s); i += k {
		maxima = append(maxima, slices.Max(s[i:i+k]))
	}
	return maxima.median()
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailPercentiles are the candidates tail considers, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest of tailPercentiles that has at least ten
// samples beyond it, its value, and the sample count; ok is false when
// no candidate qualifies (fewer than 20 samples).
func (s sample) tail() (p, value float64, n int, ok bool) {
	return tailOf(len(s), s.percentile)
}

// tailOf is tail over n samples whose percentiles pct computes.
func tailOf(n int, pct func(float64) float64) (p, value float64, _ int, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10-1e-9 { // tolerate rounding in 100-p
			return p, pct(p), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// beyond reports how many samples lie above the p-th percentile's rank.
func beyond(n int, p float64) float64 { return float64(n) * (100 - p) / 100 }

// runtimeCounters reads the cumulative allocation and GC counters from
// runtime/metrics, which does not stop the world.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (c runtimeCounters) since(prev runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: c.allocBytes - prev.allocBytes, gcCycles: c.gcCycles - prev.gcCycles}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap (as marked by the last GC) every few
// milliseconds until stopped, and keeps the largest value.
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	h.done.Wait()
	return max(float64(h.peak)/(1<<20), liveHeapMB())
}

// liveHeapMB is the heap the last GC cycle marked live, in MB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapProbe runs fn while another goroutine runs GC cycles back to back
// and reads the live heap after each, and returns the largest reading in
// MB. Sampling the live heap during a timed pass instead depends on when
// GC cycles happen to run, and moved by ±10% between runs of a batch
// pass; forcing the cycles makes the peak repeat within a few percent.
func heapProbe(fn func() error) (float64, error) {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := 0.0
		for {
			runtime.GC()
			peak = max(peak, liveHeapMB())
			select {
			case <-stop:
				done <- peak
				return
			default:
			}
		}
	}()
	err := fn()
	close(stop)
	return <-done, err
}

// stolen returns the CPU time the hypervisor has so far taken from this
// machine's CPUs (the steal column of /proc/stat), divided by the CPU
// count; 0 where /proc/stat has no steal column. On a shared virtual
// machine, time stolen while an operation runs delays it by about that
// share. A long operation's time is reported with it subtracted:
// measured over whole seconds, steal moved batch pass times by up to 40%
// from one run to the next, while pass times with it subtracted stayed
// within 5%.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	const userHZ = 100 // the unit of /proc/stat on every Linux ABI
	return time.Duration(ticks) * (time.Second / userHZ) / time.Duration(runtime.NumCPU())
}

// unstolen times an operation: wall time minus the time stolen meanwhile.
type unstolen struct {
	start time.Time
	stole time.Duration
}

func startUnstolen() unstolen { return unstolen{start: time.Now(), stole: stolen()} }

func (u unstolen) elapsed() time.Duration { return time.Since(u.start) - (stolen() - u.stole) }
