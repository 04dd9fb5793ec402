package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantOK bool
	}{
		{10000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		s := make(sample, tc.n)
		for i := range s {
			s[i] = float64(tc.n - i) // unsorted on purpose
		}
		p, v, n, ok := s.tail()
		if p != tc.wantP || ok != tc.wantOK || n != tc.n {
			t.Errorf("n=%d: tail = p%g n=%d ok=%t, want p%g n=%d ok=%t", tc.n, p, n, ok, tc.wantP, tc.n, tc.wantOK)
			continue
		}
		if ok {
			if above := tc.n - int(v); above < 10 {
				t.Errorf("n=%d: p%g = %g leaves %d samples above it", tc.n, p, v, above)
			}
		}
	}
	if got := (sample{1, 2, 3, 4}).percentile(50); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestBlockMaxMedianIgnoresOneSlowBlock(t *testing.T) {
	// Three blocks of two with maxima 5, 100 and 7, then an incomplete
	// block that is dropped.
	s := sample{5, 1, 100, 90, 2, 7, 1000}
	if got := s.blockMaxMedian(2); got != 7 {
		t.Errorf("blockMaxMedian(2) = %g, want 7", got)
	}
	if got := s.blockMaxMedian(8); !math.IsNaN(got) {
		t.Errorf("blockMaxMedian over fewer samples than a block = %g, want NaN", got)
	}
}

// testReference knows one inferred address and nothing else.
func testReference() (*reference, inet.Addr, inet.Addr) {
	hit := inet.Addr(10<<24 | 1)
	miss := inet.Addr(254<<24 | 7)
	ref := &reference{byAddr: map[inet.Addr][]wireInference{
		hit: {{Addr: hit.String(), Direction: "forward", Local: 100, Connected: 200}},
	}, hits: []inet.Addr{hit}}
	return ref, hit, miss
}

func TestWrongLookupBodyIsCountedAsFailed(t *testing.T) {
	ref, hit, miss := testReference()
	reqs := []request{newRequest([]inet.Addr{hit, miss})}
	good, _ := json.Marshal([]wireLookup{
		{Addr: hit.String(), Inferences: ref.byAddr[hit]},
		{Addr: miss.String(), Inferences: []wireInference{}},
	})
	wrong, _ := json.Marshal([]wireLookup{
		{Addr: hit.String(), Inferences: []wireInference{{Addr: hit.String(), Direction: "forward", Local: 100, Connected: 300}}},
		{Addr: miss.String(), Inferences: []wireInference{}},
	})
	v := newVerifier(ref, reqs)
	if err := v.remember(0, http.StatusOK, good); err != nil {
		t.Fatalf("correct body rejected: %v", err)
	}

	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		failed bool
	}{
		{"correct", http.StatusOK, good, false},
		{"wrong inference", http.StatusOK, wrong, true},
		{"missing record", http.StatusOK, []byte(`[{"addr":"10.0.0.1","inferences":[]}]`), true},
		{"not json", http.StatusOK, []byte(`oops`), true},
		{"unexpected status", http.StatusServiceUnavailable, good, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write(tc.body)
			}))
			defer srv.Close()
			c := newClient(1)
			defer c.CloseIdleConnections()
			st := newLoopStats(time.Now(), 0)
			lookupLoop(st, c, nil, "", srv.URL, reqs, 0, 3, 0, v.check, nil)
			rep := newReport()
			st.addTo(rep)
			wantFailed := int64(0)
			if tc.failed {
				wantFailed = 3
			}
			if rep.attempted != 3 || rep.failed != wantFailed {
				t.Fatalf("attempted %d failed %d, want 3 and %d", rep.attempted, rep.failed, wantFailed)
			}
		})
	}

	// A transport error is a failure too.
	st := newLoopStats(time.Now(), 0)
	lookupLoop(st, newClient(1), nil, "", "http://127.0.0.1:1", reqs, 0, 1, 0, v.check, nil)
	rep := newReport()
	st.addTo(rep)
	if rep.failed != 1 {
		t.Fatalf("transport error: failed %d, want 1", rep.failed)
	}
}

func TestSplitBatchesPutsEveryTraceInOneTimeOrderedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var traces []trace.Trace
	now := int64(1_700_000_000)
	for i := 0; i < 5000; i++ {
		now += int64(rng.Intn(3)) // many ties, some gaps
		if rng.Intn(500) == 0 {
			now += 600 // an empty stretch
		}
		traces = append(traces, trace.Trace{Monitor: "m", Dst: inet.Addr(i + 1), Time: now})
	}
	const width = 60
	batches, err := splitBatches(traces, width)
	if err != nil {
		t.Fatal(err)
	}
	var joined []trace.Trace
	t0 := traces[0].Time
	prevSlot := int64(-1)
	for i, b := range batches {
		if len(b) == 0 {
			t.Fatalf("batch %d is empty", i)
		}
		slot := (b[0].Time - t0) / width
		if slot <= prevSlot {
			t.Fatalf("batch %d starts in slot %d after slot %d", i, slot, prevSlot)
		}
		for _, tr := range b {
			if (tr.Time-t0)/width != slot {
				t.Fatalf("batch %d holds a trace at %d outside its slot %d", i, tr.Time, slot)
			}
		}
		prevSlot = slot
		joined = append(joined, b...)
	}
	if !slices.EqualFunc(joined, traces, func(a, b trace.Trace) bool { return a.Dst == b.Dst && a.Time == b.Time }) {
		t.Fatalf("batches hold %d traces, not the %d inputs in order", len(joined), len(traces))
	}

	traces[10].Time = traces[9].Time - 1
	if _, err := splitBatches(traces, width); err == nil {
		t.Fatal("an unsorted stream was accepted")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	if got := self["pass"]; len(got) != 1 || got[0] != 50 {
		t.Fatalf("pass self time %v, want [50ns]", got)
	}
	if got := self["b"]; got[0] != 30 {
		t.Fatalf("leaf self time %v, want [30ns]", got)
	}
	var tr *tracer
	if d := tr.begin("r", 0, "x").end(); d < 0 || d > time.Second {
		t.Fatalf("untraced span timed %v", d)
	}
}

// TestBenchmarkJSONNamesWhatTheProgramReports holds BENCHMARK.json at
// the repository root to the metrics and workloads this program has.
func TestBenchmarkJSONNamesWhatTheProgramReports(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the program has %d", names, len(workloads))
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.json), len(tc.defs))
			continue
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", tc.kind, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}

func TestHistPercentilesWithinBucketWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h hist
	var exact sample
	for i := 0; i < 200000; i++ {
		// Lookup-like latencies: a 50-70 µs body and a long tail.
		d := time.Duration(50_000 + rng.Intn(20_000))
		if rng.Intn(100) == 0 {
			d = time.Duration(rng.ExpFloat64() * float64(2*time.Millisecond))
		}
		h.add(d)
		exact = append(exact, float64(d)/float64(time.Microsecond))
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
		got, want := h.percentile(p, time.Microsecond), exact.percentile(p)
		if math.Abs(got-want) > want/histSub+0.001 {
			t.Errorf("p%g = %.3fus, exact %.3fus: off by more than one bucket", p, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 63, 64, 127, 128, 1000, 1 << 20, 1<<36 + 12345} {
		idx, lo, width := histBucket(v)
		blo, bwidth := histBounds(idx)
		if lo != blo || width != bwidth || v < lo || v >= lo+width {
			t.Errorf("value %d: bucket %d [%d,+%d), bounds say [%d,+%d)", v, idx, lo, width, blo, bwidth)
		}
	}
}
