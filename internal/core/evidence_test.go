package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mapit/internal/inet"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// The streaming collector must produce exactly the evidence — and
// therefore exactly the result — of the in-memory path.
func TestCollectorEquivalence(t *testing.T) {
	ip2as := table(
		"109.105.0.0/16=2603", "198.71.0.0/16=11537",
		"64.57.0.0/16=11537", "199.109.0.0/16=3754",
	)
	traces := []trace.Trace{
		tr("109.105.98.10", "198.71.45.2"),
		tr("109.105.98.10", "198.71.46.180"),
		tr("109.105.98.10", "199.109.5.1"),
		tr("64.57.28.1", "199.109.5.1"),
		tr("1.1.1.1", "2.2.2.2", "1.1.1.1"), // cycle, discarded
	}
	// In-memory path.
	s := sanitized(traces...)
	want, err := Run(s, Config{IP2AS: ip2as, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Streaming path.
	c := NewCollector()
	retained := 0
	for _, tc := range traces {
		if c.Add(tc) {
			retained++
		}
	}
	if retained != 4 || c.Traces() != 5 {
		t.Fatalf("retained=%d traces=%d", retained, c.Traces())
	}
	ev := c.Evidence()
	if ev.Stats.DiscardedTraces != 1 || ev.Stats.DistinctAddrs != len(ev.AllAddrs) {
		t.Fatalf("stats = %+v", ev.Stats)
	}
	got, err := RunEvidence(ev, Config{IP2AS: ip2as, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Inferences, got.Inferences) {
		t.Fatalf("streaming path diverges:\n want %v\n got  %v", want.Inferences, got.Inferences)
	}
}

// Duplicate adjacencies collapse: feeding the same trace many times
// yields identical evidence (the paper's Ns are sets, §3.2).
func TestCollectorDedup(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Add(tr("1.1.1.1", "2.2.2.2"))
	}
	ev := c.Evidence()
	if len(ev.Adjacencies) != 1 {
		t.Fatalf("adjacencies = %d", len(ev.Adjacencies))
	}
	if ev.Stats.TotalTraces != 100 {
		t.Fatalf("stats = %+v", ev.Stats)
	}
}

// Monitor attribution: opt-in, retained-traces only, deduplicated per
// monitor, identical between serial and parallel collectors, and absent
// when tracking is off.
func TestCollectorTrackMonitors(t *testing.T) {
	traces := []trace.Trace{
		trace.NewTrace("ark1", ip("192.0.3.255"), ip("1.1.1.1"), ip("2.2.2.2")),
		trace.NewTrace("ark1", ip("192.0.3.255"), ip("1.1.1.1"), ip("2.2.2.2")), // duplicate adjacency
		trace.NewTrace("ark1", ip("192.0.3.255"), ip("2.2.2.2"), ip("3.3.3.3")),
		trace.NewTrace("ark2", ip("192.0.3.255"), ip("1.1.1.1"), ip("2.2.2.2")),
		trace.NewTrace("ark2", ip("192.0.3.255"), ip("4.4.4.4"), ip("5.5.5.5"), ip("4.4.4.4")), // cycle: discarded
	}

	c := NewCollector()
	c.TrackMonitors()
	for _, tc := range traces {
		c.Add(tc)
	}
	ev := c.Evidence()
	want := []MonitorEvidence{
		{Monitor: "ark1", Traces: 3, Adjacencies: []trace.Adjacency{
			{First: ip("1.1.1.1"), Second: ip("2.2.2.2")},
			{First: ip("2.2.2.2"), Second: ip("3.3.3.3")},
		}},
		{Monitor: "ark2", Traces: 1, Adjacencies: []trace.Adjacency{
			{First: ip("1.1.1.1"), Second: ip("2.2.2.2")},
		}},
	}
	if !reflect.DeepEqual(ev.Monitors, want) {
		t.Fatalf("serial monitors:\n got  %+v\n want %+v", ev.Monitors, want)
	}

	for _, workers := range []int{1, 2, 8} {
		pc := NewParallelCollector(workers)
		pc.TrackMonitors()
		for _, tc := range traces {
			pc.Add(tc)
		}
		pev := pc.Evidence()
		if !reflect.DeepEqual(pev.Monitors, want) {
			t.Fatalf("parallel workers=%d monitors:\n got  %+v\n want %+v", workers, pev.Monitors, want)
		}
	}

	// The reference builder carries no attribution.
	if EvidenceFrom(sanitized(traces...)).Monitors != nil {
		t.Fatal("EvidenceFrom tracked monitors")
	}

	// Off by default.
	off := NewCollector()
	for _, tc := range traces {
		off.Add(tc)
	}
	if off.Evidence().Monitors != nil {
		t.Fatal("monitors tracked without TrackMonitors")
	}
}

// Workers must not change results: the parallel scan is a pure
// optimisation (§4.4.5 determinism).
func TestWorkersDeterminism(t *testing.T) {
	ip2as := table(
		"109.105.0.0/16=2603", "198.71.0.0/16=11537",
		"64.57.0.0/16=11537", "199.109.0.0/16=3754",
		"192.73.48.0/24=3807", "62.115.0.0/16=1299",
		"4.68.0.0/16=3356", "91.200.0.0/16=51159",
	)
	s := sanitized(
		tr("109.105.98.10", "198.71.45.2"),
		tr("109.105.98.10", "198.71.46.180"),
		tr("109.105.98.10", "199.109.5.1"),
		tr("64.57.28.1", "199.109.5.1"),
		tr("198.71.45.1", "198.71.46.196", "192.73.48.124"),
		tr("198.71.45.2", "198.71.46.196", "192.73.48.120"),
		tr("62.115.0.1", "4.68.110.186", "91.200.0.1"),
		tr("62.115.0.5", "4.68.110.186", "91.200.0.5"),
	)
	want, err := Run(s, Config{IP2AS: ip2as, F: 0.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8, 64} {
		got, err := Run(s, Config{IP2AS: ip2as, F: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Inferences, got.Inferences) {
			t.Fatalf("Workers=%d diverges", workers)
		}
		if want.Diag != got.Diag {
			t.Fatalf("Workers=%d diagnostics diverge: %+v vs %+v", workers, want.Diag, got.Diag)
		}
	}
}

// TestEvidenceBuildersAgree: the map-based reference EvidenceFrom, the
// serial Collector and the ParallelCollector at 1, 2 and 8 workers
// build identical Evidence on two generator worlds whose corpora
// include discarded traces — after the first half of the corpus and
// again after the rest, on the same collectors (Add→Finish→Add→Finish).
func TestEvidenceBuildersAgree(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		gen := topo.SmallGenConfig()
		gen.Seed = seed
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.Seed = 100 + seed
		tc.DestsPerMonitor = 2000
		ds := w.GenTraces(tc)
		half := &trace.Dataset{Traces: ds.Traces[:len(ds.Traces)/2]}

		serial := NewCollector()
		pars := []*ParallelCollector{NewParallelCollector(1), NewParallelCollector(2), NewParallelCollector(8)}
		feed := func(traces []trace.Trace) {
			for _, tc := range traces {
				serial.Add(tc)
				for _, p := range pars {
					p.Add(tc)
				}
			}
		}
		check := func(stage string, want *Evidence) {
			t.Helper()
			if want.Stats.DiscardedTraces == 0 {
				t.Fatalf("seed %d %s: no discarded traces, the comparison misses the discard path", seed, stage)
			}
			if got := serial.Evidence(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: Collector evidence diverges from EvidenceFrom (stats %+v vs %+v)",
					seed, stage, got.Stats, want.Stats)
			}
			for i, p := range pars {
				if got := p.Evidence(); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s: ParallelCollector #%d evidence diverges from EvidenceFrom (stats %+v vs %+v)",
						seed, stage, i, got.Stats, want.Stats)
				}
			}
		}
		feed(half.Traces)
		check("first half", EvidenceFrom(half.Sanitize()))
		feed(ds.Traces[len(half.Traces):])
		check("whole corpus", EvidenceFrom(ds.Sanitize()))
	}
}

// TestRunEvidenceCallerAddrs: RunEvidence on caller-built Evidence
// whose AllAddrs are shuffled, or repeat entries, returns the Result of
// the ascending form — partitioned under the exhaustive auditor and
// monolithic — and leaves the caller's slice as it was.
func TestRunEvidenceCallerAddrs(t *testing.T) {
	ev, cfg := islandEvidence(t, 23, 3)
	cfg.Audit = exhaustiveChecker()
	rng := rand.New(rand.NewSource(7))
	shuffled := slices.Clone(ev.AllAddrs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	duplicated := append(slices.Clone(ev.AllAddrs), ev.AllAddrs[:len(ev.AllAddrs)/3]...)
	rng.Shuffle(len(duplicated), func(i, j int) { duplicated[i], duplicated[j] = duplicated[j], duplicated[i] })
	// Ascending but with repeats: the only flaw is an equal neighbour.
	repeats := slices.Clone(ev.AllAddrs)
	for i := 0; i < len(ev.AllAddrs); i += 7 {
		repeats = append(repeats, ev.AllAddrs[i])
	}
	slices.Sort(repeats)

	for _, partitioned := range []bool{true, false} {
		cfg.DisablePartition = !partitioned
		want, err := RunEvidence(ev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if partitioned && (want.Partition == nil || want.Partition.Fallback != "") {
			t.Fatalf("island evidence did not partition: %s", want.Partition.String())
		}
		for label, addrs := range map[string][]inet.Addr{
			"shuffled": shuffled, "duplicated": duplicated, "ascending with repeats": repeats,
		} {
			label = fmt.Sprintf("%s partitioned=%v", label, partitioned)
			before := slices.Clone(addrs)
			got, err := RunEvidence(&Evidence{AllAddrs: addrs, Adjacencies: ev.Adjacencies, Stats: ev.Stats}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label, want, got)
			if got.Diag.AuditViolations != 0 {
				t.Errorf("%s: %d audit violations: %s", label, got.Diag.AuditViolations, got.Audit)
			}
			if !slices.Equal(addrs, before) {
				t.Errorf("%s: RunEvidence modified the caller's AllAddrs", label)
			}
		}
	}
}

// collectorAllocCeiling bounds the allocations of one ParallelCollector
// pass (Workers=2, Add every trace, then Evidence) over the default
// world's corpus (76.8k traces). 2234 allocations per pass measured on
// linux/amd64; the collector with Go maps and shard owners made 3963.
// The ceiling is that measurement plus 10%, so a Go map creeping back
// onto the per-hop path fails the plain test run.
const collectorAllocCeiling = 2420

func TestCollectorAllocCeiling(t *testing.T) {
	w := topo.Generate(topo.DefaultGenConfig())
	ds := w.GenTraces(topo.DefaultTraceConfig())
	allocs := testing.AllocsPerRun(3, func() {
		c := NewParallelCollector(2)
		for _, tc := range ds.Traces {
			c.Add(tc)
		}
		if len(c.Evidence().Adjacencies) == 0 {
			t.Fatal("no evidence collected")
		}
	})
	t.Logf("ParallelCollector pass over %d traces: %.0f allocs (ceiling %d)", len(ds.Traces), allocs, collectorAllocCeiling)
	if allocs > collectorAllocCeiling {
		t.Errorf("ParallelCollector pass allocates %.0f times, ceiling %d", allocs, collectorAllocCeiling)
	}
}
