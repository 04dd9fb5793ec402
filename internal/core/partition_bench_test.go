package core

import (
	"runtime"
	"testing"

	"mapit/internal/bgp"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// BenchmarkFixpointPartitioned times the component-partitioned engine
// against the monolithic loop (DisablePartition) on two corpus shapes:
// islands (several disjoint worlds merged — the decomposition's best
// case, components run concurrently across the worker pool) and giant
// (one connected world — the adversarial case, where partitioning must
// cost no more than a union-find sweep before falling back). Unlike the
// BenchmarkFixpoint pair above, the timed region is the whole engine
// (state build included): the partitioned path builds per-component
// states, so a fixpoint-only timing would not compare like with like.
//
// CI runs these with -benchtime=1x as a smoke test and snapshots the
// numbers to BENCH_fixpoint.json (see internal/tools/benchjson).

func BenchmarkFixpointPartitioned(b *testing.B) {
	shapes := []struct {
		name    string
		islands int
	}{
		{"islands", 6},
		{"giant", 1},
	}
	for _, shape := range shapes {
		for _, tc := range []struct {
			name    string
			disable bool
		}{
			{"partitioned", false},
			{"monolithic", true},
		} {
			b.Run(shape.name+"/"+tc.name, func(b *testing.B) {
				ev, cfg := benchIslandEvidence(shape.islands)
				cfg.Workers = runtime.GOMAXPROCS(0)
				cfg.DisablePartition = tc.disable
				cfg.freeze()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := RunEvidence(ev, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchIslandEvidence merges n disjoint default-sized worlds (see
// topo.GenConfig.Island) into one corpus.
func benchIslandEvidence(n int) (*Evidence, Config) {
	var traces []trace.Trace
	var anns []bgp.Announcement
	for k := 0; k < n; k++ {
		gen := topo.SmallGenConfig()
		gen.Seed = 41 + int64(k)
		gen.Island = k
		w := topo.Generate(gen)
		tcfg := topo.DefaultTraceConfig()
		tcfg.Seed = 141 + int64(k)
		tcfg.DestsPerMonitor = 600
		traces = append(traces, w.GenTraces(tcfg).Traces...)
		anns = append(anns, w.Announcements...)
	}
	d := &trace.Dataset{Traces: traces}
	return EvidenceFrom(d.Sanitize()), Config{IP2AS: bgp.NewTable(anns), F: 0.5}
}

// runEvidenceAllocCeiling bounds the allocations of one partitioned
// RunEvidence over the islands corpus of BenchmarkFixpointPartitioned
// at two workers. The run state is built from sorted slices with no
// address-keyed maps; 17.6k allocations per run measured on linux/amd64
// (25.7k when every component built its own address maps). The ceiling
// is that measurement plus 10%, so a per-component map creeping back
// fails the plain test run.
const runEvidenceAllocCeiling = 19300

func TestRunEvidenceAllocCeiling(t *testing.T) {
	ev, cfg := benchIslandEvidence(6)
	cfg.Workers = 2
	cfg.freeze()
	allocs := testing.AllocsPerRun(3, func() {
		r, err := RunEvidence(ev, cfg)
		if err != nil || r.Partition == nil || r.Partition.Fallback != "" {
			t.Fatalf("islands run did not partition: %v, %s", err, r.Partition.String())
		}
	})
	t.Logf("RunEvidence islands/partitioned: %.0f allocs/run (ceiling %d)", allocs, runEvidenceAllocCeiling)
	if allocs > runEvidenceAllocCeiling {
		t.Errorf("RunEvidence islands/partitioned allocates %.0f times per run, ceiling %d",
			allocs, runEvidenceAllocCeiling)
	}
}
