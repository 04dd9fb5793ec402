package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mapit/internal/bgp"
	"mapit/internal/inet"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// evidence builds an Evidence directly from address strings and
// (first, second) adjacency pairs.
func evidence(addrs []string, adjs ...[2]string) *Evidence {
	ev := &Evidence{}
	for _, a := range addrs {
		ev.AllAddrs = append(ev.AllAddrs, ip(a))
	}
	for _, adj := range adjs {
		ev.Adjacencies = append(ev.Adjacencies, trace.Adjacency{First: ip(adj[0]), Second: ip(adj[1])})
	}
	return ev
}

// compAddrs renders a component's observed addresses as a sorted set for
// comparison.
func compAddrs(in runInput) map[string]bool {
	m := make(map[string]bool, len(in.addrs))
	for _, a := range in.addrs {
		m[a.String()] = true
	}
	return m
}

func TestPartitionEvidenceClosure(t *testing.T) {
	set := func(addrs ...string) map[string]bool {
		m := make(map[string]bool, len(addrs))
		for _, a := range addrs {
			m[a] = true
		}
		return m
	}
	cases := []struct {
		name string
		ev   *Evidence
		// want lists the expected components as observed-address sets, in
		// scheduling order (largest first, min address on ties).
		want []map[string]bool
	}{
		{
			// Two adjacency chains with no shared /30 block stay apart.
			name: "disjoint-chains-split",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.4.1", "10.1.0.1", "10.1.4.1"},
				[2]string{"10.0.0.1", "10.0.4.1"},
				[2]string{"10.1.0.1", "10.1.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.4.1"),
				set("10.1.0.1", "10.1.4.1"),
			},
		},
		{
			// §4.2: two addresses of one aligned /30 block are one
			// component even with no adjacency between them —
			// InferOtherSide couples them.
			name: "block-mates-merge",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.0.2", "10.0.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.0.2"),
				set("10.0.4.1"),
			},
		},
		{
			// The phantom shared other side: .1 and .3 both claim the
			// unobserved .2 as their /30 mate, so their (otherwise
			// disjoint) neighbourhoods must merge.
			name: "phantom-other-side-merges-neighbourhoods",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.0.3", "10.8.0.1", "10.9.0.1"},
				[2]string{"10.0.0.1", "10.9.0.1"},
				[2]string{"10.0.0.3", "10.8.0.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.0.3", "10.8.0.1", "10.9.0.1"),
			},
		},
		{
			// §4.2 p2p subnet mates: a /31 pair and a /30 pair each land
			// in one component.
			name: "p2p-subnet-mates",
			ev: evidence(
				[]string{"10.0.0.0", "10.0.0.1", "10.1.0.1", "10.1.0.2"},
			),
			want: []map[string]bool{
				set("10.0.0.0", "10.0.0.1"),
				set("10.1.0.1", "10.1.0.2"),
			},
		},
		{
			// An IXP LAN address observed between two member routers
			// bridges them into one component (the multipoint fabric is
			// plain adjacency transitivity).
			name: "ixp-lan-bridges",
			ev: evidence(
				[]string{"10.0.0.1", "185.1.0.10", "10.1.0.1"},
				[2]string{"10.0.0.1", "185.1.0.10"},
				[2]string{"185.1.0.10", "10.1.0.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "185.1.0.10", "10.1.0.1"),
			},
		},
		{
			// Org-merged sibling ASes trade traffic across a shared
			// border interface; the adjacency chain keeps all their
			// addresses together.
			name: "org-siblings-one-component",
			ev: evidence(
				[]string{"20.0.0.1", "20.1.0.1", "20.2.0.1"},
				[2]string{"20.0.0.1", "20.1.0.1"},
				[2]string{"20.1.0.1", "20.2.0.1"},
			),
			want: []map[string]bool{
				set("20.0.0.1", "20.1.0.1", "20.2.0.1"),
			},
		},
		{
			// An adjacency endpoint outside the observed universe still
			// glues: 10.0.4.1 (unobserved) chains 10.0.0.1 to its block
			// mate 10.0.4.2.
			name: "external-endpoint-glues",
			ev: evidence(
				[]string{"10.0.0.1", "10.0.4.2", "10.3.0.1"},
				[2]string{"10.0.0.1", "10.0.4.1"},
			),
			want: []map[string]bool{
				set("10.0.0.1", "10.0.4.2"),
				set("10.3.0.1"),
			},
		},
		{
			// Scheduling order: sizes descending, minimum address
			// ascending on equal sizes.
			name: "largest-first-min-addr-ties",
			ev: evidence(
				[]string{"10.0.0.1", "10.4.0.1", "10.4.4.1", "10.2.0.1", "10.2.4.1", "10.4.8.1"},
				[2]string{"10.4.0.1", "10.4.4.1"},
				[2]string{"10.4.4.1", "10.4.8.1"},
				[2]string{"10.2.0.1", "10.2.4.1"},
			),
			want: []map[string]bool{
				set("10.4.0.1", "10.4.4.1", "10.4.8.1"),
				set("10.2.0.1", "10.2.4.1"),
				set("10.0.0.1"),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comps := partitionEvidence(inputOf(tc.ev))
			if len(tc.want) == 1 {
				// A single component is reported as nil: everything
				// merged, and the caller would fall back without
				// materialising sub-evidence.
				if comps != nil {
					t.Fatalf("got %d components, want the single-component nil", len(comps))
				}
				return
			}
			if len(comps) != len(tc.want) {
				t.Fatalf("got %d components, want %d", len(comps), len(tc.want))
			}
			adjTotal := 0
			for i, comp := range comps {
				if got := compAddrs(comp); !reflect.DeepEqual(got, tc.want[i]) {
					t.Errorf("component %d: got %v, want %v", i, got, tc.want[i])
				}
				adjTotal += len(comp.adjs)
				for _, adj := range comp.adjs {
					for _, a := range [2]inet.Addr{adj.First, adj.Second} {
						if slices.Contains(tc.ev.AllAddrs, a) && !slices.Contains(comp.addrs, a) {
							t.Errorf("component %d: adjacency endpoint %v crosses the boundary", i, a)
						}
					}
				}
			}
			if adjTotal != len(tc.ev.Adjacencies) {
				t.Errorf("components hold %d adjacencies, evidence has %d", adjTotal, len(tc.ev.Adjacencies))
			}
		})
	}
}

// islandEvidence merges nIslands disjoint small worlds into one corpus
// (see topo.GenConfig.Island) and returns the evidence plus a config
// over the merged origin table.
func islandEvidence(t testing.TB, seed int64, nIslands int) (*Evidence, Config) {
	var traces []trace.Trace
	var anns []bgp.Announcement
	for k := 0; k < nIslands; k++ {
		gen := topo.SmallGenConfig()
		gen.Seed = seed + int64(k)
		gen.Island = k
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.Seed = seed + 100 + int64(k)
		tc.DestsPerMonitor = 150
		traces = append(traces, w.GenTraces(tc).Traces...)
		anns = append(anns, w.Announcements...)
	}
	d := &trace.Dataset{Traces: traces}
	return EvidenceFrom(d.Sanitize()), Config{IP2AS: bgp.NewTable(anns), F: 0.5}
}

// TestComponentElectionInputsMatchGlobal is the closure quickcheck: for
// every observed address of every component, the component-local run
// state must present exactly the election inputs the global state does —
// neighbour sets, other side, base mapping, IXP flag. If any input
// crossed a component boundary the restriction would differ.
func TestComponentElectionInputsMatchGlobal(t *testing.T) {
	ev, cfg := islandEvidence(t, 11, 2)
	cfg.freeze()
	global := newRunState(&cfg, inputOf(ev))
	comps := partitionEvidence(inputOf(ev))
	if len(comps) < 2 {
		t.Fatalf("island evidence produced %d components, want >= 2", len(comps))
	}
	for ci, comp := range comps {
		st := newRunState(&cfg, comp)
		for _, a := range st.addrs {
			if !reflect.DeepEqual(st.neighbors(Half{a, Forward}), global.neighbors(Half{a, Forward})) {
				t.Fatalf("component %d: N_F(%v) diverges from global", ci, a)
			}
			if !reflect.DeepEqual(st.neighbors(Half{a, Backward}), global.neighbors(Half{a, Backward})) {
				t.Fatalf("component %d: N_B(%v) diverges from global", ci, a)
			}
			li, gi := st.addrIdx(a), global.addrIdx(a)
			lo, lok := st.otherAt(li)
			gl, gok := global.otherAt(gi)
			if lo != gl || lok != gok {
				t.Fatalf("component %d: otherSide(%v) = %v, global %v",
					ci, a, lo, gl)
			}
			if st.baseAS(a) != global.baseAS(a) {
				t.Fatalf("component %d: baseAS(%v) diverges from global", ci, a)
			}
			if st.idx.ixpA[li] != global.idx.ixpA[gi] {
				t.Fatalf("component %d: ixpAddr(%v) diverges from global", ci, a)
			}
		}
	}
}

// TestPartitionSingleGiantFallback is the adversarial case: evidence
// that is one connected chain must fall back to the monolithic engine
// (there is nothing to schedule) and produce the same result as an
// explicit DisablePartition run.
func TestPartitionSingleGiantFallback(t *testing.T) {
	var addrs []string
	var adjs [][2]string
	for i := 0; i < 40; i++ {
		addrs = append(addrs, fmt.Sprintf("10.%d.0.1", i))
		if i > 0 {
			adjs = append(adjs, [2]string{addrs[i-1], addrs[i]})
		}
	}
	ev := evidence(addrs, adjs...)
	cfg := Config{IP2AS: table("10.0.0.0/8=100"), F: 0.5}

	r, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partition == nil || r.Partition.Fallback != "single-component" {
		t.Fatalf("Partition = %s, want single-component fallback", r.Partition.String())
	}
	if r.Partition.Components != 1 || r.Partition.GiantShare != 1 {
		t.Errorf("Partition = %+v, want one component holding everything", r.Partition)
	}

	cfg.DisablePartition = true
	mono, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Partition != nil {
		t.Errorf("DisablePartition run carries PartitionInfo %+v", mono.Partition)
	}
	assertSameResult(t, "giant vs DisablePartition", mono, r)
}

// assertSameResult compares the differential-visible fields of two
// Results (Partition and Audit are schedule observability, not output).
func assertSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Inferences, b.Inferences) {
		t.Errorf("%s: inferences diverge (%d vs %d)", label, len(a.Inferences), len(b.Inferences))
	}
	if a.Diag != b.Diag {
		t.Errorf("%s: diagnostics diverge:\n  %+v\n  %+v", label, a.Diag, b.Diag)
	}
	if !reflect.DeepEqual(a.ProbeSuggestions, b.ProbeSuggestions) {
		t.Errorf("%s: probe suggestions diverge", label)
	}
}

// TestPartitionedMultiIslandByteIdentical is the headline property: a
// merged multi-island corpus must decompose, run partitioned at every
// worker count, and reproduce the monolithic result byte for byte.
func TestPartitionedMultiIslandByteIdentical(t *testing.T) {
	ev, cfg := islandEvidence(t, 3, 2)

	mono := cfg
	mono.DisablePartition = true
	want, err := RunEvidence(ev, mono)
	if err != nil {
		t.Fatal(err)
	}
	if want.Partition != nil {
		t.Errorf("DisablePartition run carries PartitionInfo %+v", want.Partition)
	}

	for _, workers := range []int{1, 2, 4} {
		pcfg := cfg
		pcfg.Workers = workers
		r, err := RunEvidence(ev, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition == nil || r.Partition.Fallback != "" {
			t.Fatalf("workers=%d: partitioned run fell back: %s", workers, r.Partition.String())
		}
		if r.Partition.Components < 2 {
			t.Fatalf("workers=%d: %d components, want >= 2", workers, r.Partition.Components)
		}
		if r.Partition.Replays != 0 {
			t.Errorf("workers=%d: %d replays on a plain corpus", workers, r.Partition.Replays)
		}
		if len(r.Partition.Sizes) != r.Partition.Components ||
			len(r.Partition.Iterations) != r.Partition.Components {
			t.Errorf("workers=%d: ragged PartitionInfo %+v", workers, r.Partition)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", workers), want, r)
	}
}

// TestPartitionedStubAndProbeMerge drives the partitioned engine with
// the full input set — orgs, relationships, IXP directory — so the stub
// heuristic and probe suggestions run per component and merge.
func TestPartitionedStubAndProbeMerge(t *testing.T) {
	var traces []trace.Trace
	var anns []bgp.Announcement
	var cfgs []Config
	for k := 0; k < 2; k++ {
		gen := topo.SmallGenConfig()
		gen.Seed = 21 + int64(k)
		gen.Island = k
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.Seed = 121 + int64(k)
		tc.DestsPerMonitor = 150
		traces = append(traces, w.GenTraces(tc).Traces...)
		anns = append(anns, w.Announcements...)
		orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
		cfgs = append(cfgs, Config{Orgs: orgs, Rels: rels, IXP: dir})
	}
	// Orgs/Rels/IXP directories cannot be merged across worlds, so this
	// test runs with island 0's datasets: wrong values for island 1's
	// ASes are fine — both engines see the same wrong values.
	d := &trace.Dataset{Traces: traces}
	ev := EvidenceFrom(d.Sanitize())
	cfg := cfgs[0]
	cfg.IP2AS = bgp.NewTable(anns)
	cfg.F = 0.5
	cfg.Workers = 4

	r, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partition == nil || r.Partition.Fallback != "" {
		t.Fatalf("partitioned run fell back: %s", r.Partition.String())
	}
	cfg.DisablePartition = true
	mono, err := RunEvidence(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "stub+probes", mono, r)
	if mono.Diag.StubInferences == 0 {
		t.Log("note: corpus produced no stub inferences (merge path still compared)")
	}
}

func TestHashAtAndRecAt(t *testing.T) {
	c := &compRun{
		hash0:   10,
		settled: true,
		recs: []iterRec{
			{hash: 20, addPasses: 3, removePasses: 2, quietDual: 5, dualSame: 12},
			{hash: 20, addPasses: 1, removePasses: 1, quietDual: 5, dualSame: 5},
		},
	}
	for k, want := range map[int]uint64{0: 10, 1: 20, 2: 20, 3: 20, 9: 20} {
		if got := c.hashAt(k); got != want {
			t.Errorf("hashAt(%d) = %d, want %d", k, got, want)
		}
	}
	ext := c.recAt(5)
	want := iterRec{hash: 20, addPasses: 1, removePasses: 1, quietDual: 5, dualSame: 5}
	if ext != want {
		t.Errorf("recAt(5) = %+v, want %+v", ext, want)
	}
	if got := c.recAt(1); got != c.recs[0] {
		t.Errorf("recAt(1) = %+v, want the recorded iteration", got)
	}
	// DisableRemoveStep components settle with removePasses 0 and the
	// extension must carry that through.
	c2 := &compRun{hash0: 1, settled: true, recs: []iterRec{{hash: 2, addPasses: 1, removePasses: 0}}}
	if got := c2.recAt(3).removePasses; got != 0 {
		t.Errorf("extension removePasses = %d, want 0 under DisableRemoveStep", got)
	}

	if !c.stateAligned(1) || !c.stateAligned(2) || !c.stateAligned(5) {
		t.Error("settled component must align with any T at or past its settle point")
	}
	if c.stateAligned(0) {
		t.Error("settled component aligned with T before its settle point")
	}
	capped := &compRun{hash0: 1, recs: []iterRec{{hash: 2}, {hash: 3}}}
	if !capped.stateAligned(2) || capped.stateAligned(1) || capped.stateAligned(3) {
		t.Error("capped component must align only with its exact stop iteration")
	}
}

func TestAlignIterations(t *testing.T) {
	// A settles after iteration 3 (its no-op), B after iteration 2. The
	// summed fingerprint first repeats at k=3 — exactly where the
	// monolithic run would stop.
	a := &compRun{hash0: 10, settled: true, recs: []iterRec{{hash: 20}, {hash: 30}, {hash: 30}}}
	b := &compRun{hash0: 1, settled: true, recs: []iterRec{{hash: 2}, {hash: 2}}}
	if T := alignIterations([]*compRun{a, b}, 50); T != 3 {
		t.Errorf("T = %d, want 3", T)
	}
	// A component oscillating between two states makes the global sum
	// cycle: B settles after iteration 2, so the sum at k=3 (osc back at
	// 6, B frozen) first repeats the k=1 sum.
	osc := &compRun{hash0: 5, recs: []iterRec{{hash: 6}, {hash: 5}, {hash: 6}}}
	if T := alignIterations([]*compRun{osc, b}, 50); T != 3 {
		t.Errorf("oscillating T = %d, want 3", T)
	}
	// No repeat within the bound: the cap wins.
	grow := &compRun{hash0: 0, recs: []iterRec{{hash: 1}, {hash: 2}, {hash: 3}, {hash: 4}}}
	if T := alignIterations([]*compRun{grow}, 3); T != 3 {
		t.Errorf("capped T = %d, want 3", T)
	}
}

func TestMergeDiagnosticsQuietDualTopUp(t *testing.T) {
	// Component A runs 3 add passes in iteration 1; component B runs 1
	// and holds 2 stable same-org duals. The monolithic engine would
	// re-count B's duals on each of A's surplus passes: 2 + 2*2 = 6,
	// plus A's own 4.
	a := &compRun{
		st:      &runState{diag: Diagnostics{Interfaces: 7}, n31: 3},
		settled: true,
		recs: []iterRec{
			{hash: 1, addPasses: 3, removePasses: 1, dualSame: 4, quietDual: 0},
			{hash: 1, addPasses: 1, removePasses: 1}, // the settling no-op
		},
	}
	b := &compRun{
		st:      &runState{diag: Diagnostics{Interfaces: 5}, n31: 1},
		settled: true,
		recs:    []iterRec{{hash: 2, addPasses: 1, removePasses: 1, dualSame: 2, quietDual: 2}},
	}
	d := mergeDiagnostics([]*compRun{a, b}, 1, 16)
	if d.AddPasses != 3 || d.RemovePasses != 1 {
		t.Errorf("passes = (%d, %d), want (3, 1)", d.AddPasses, d.RemovePasses)
	}
	if d.DualSameAS != 10 {
		t.Errorf("DualSameAS = %d, want 10 (4 + 2 + 2 surplus passes x 2 quiet duals)", d.DualSameAS)
	}
	if d.Interfaces != 12 {
		t.Errorf("Interfaces = %d, want 12", d.Interfaces)
	}
	if d.Slash31Fraction != 0.25 {
		t.Errorf("Slash31Fraction = %v, want 0.25 (4 of 16)", d.Slash31Fraction)
	}
	if d.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1", d.Iterations)
	}

	// Extending past both settle points: every further iteration is two
	// quiet passes, topping up only B's stable duals.
	d2 := mergeDiagnostics([]*compRun{a, b}, 3, 16)
	if d2.AddPasses != 5 || d2.RemovePasses != 3 {
		t.Errorf("extended passes = (%d, %d), want (5, 3)", d2.AddPasses, d2.RemovePasses)
	}
	if d2.DualSameAS != 14 {
		t.Errorf("extended DualSameAS = %d, want 14", d2.DualSameAS)
	}
}

func TestReplayComponent(t *testing.T) {
	ev := evidence(
		[]string{"10.0.0.1", "10.0.0.2", "10.0.4.1", "10.0.4.2"},
		[2]string{"10.0.0.1", "10.0.4.1"},
		[2]string{"10.0.4.1", "10.0.0.1"},
	)
	cfg := Config{IP2AS: table("10.0.0.0/16=100", "10.0.4.0/24=200"), F: 0.5}
	cfg.freeze()
	c := &compRun{in: inputOf(ev), cfg: cfg}
	c.st = newRunState(&c.cfg, c.in)
	c.hash0, c.recs, c.settled = c.st.fixpointTraced()
	if len(c.recs) == 0 {
		t.Fatal("no iterations traced")
	}
	final := c.st.stateHash()

	replayComponent(c, len(c.recs))
	if !c.replayed {
		t.Error("replayed flag not set")
	}
	if got := c.st.stateHash(); got != final {
		t.Errorf("replayed state hash %d, want %d", got, final)
	}
}

func TestForEachComponent(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var hits [100]int32
		forEachComponent(workers, len(hits), func(i int) { hits[i]++ })
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, n)
			}
		}
	}
	forEachComponent(4, 0, func(int) { t.Fatal("callback on empty range") })
}

func TestPartitionInfoString(t *testing.T) {
	var nilInfo *PartitionInfo
	if got := nilInfo.String(); got != "off" {
		t.Errorf("nil String() = %q, want off", got)
	}
	if got := (&PartitionInfo{Fallback: "single-component"}).String(); got != "fallback=single-component" {
		t.Errorf("fallback String() = %q", got)
	}
	info := &PartitionInfo{
		Components: 3, GiantShare: 0.5, Iterations: []int{3, 2, 2},
		SizeHistogram: []int{0, 1, 2},
	}
	want := "components=3 giant_share=0.500 replays=0 iterations=[3 2 2] size_hist=[2^0:0 2^1:1 2^2:2]"
	if got := info.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// checkComponentInputs asserts the shape partitionEvidence promises for
// its component inputs: each address window ascends and is
// capacity-clipped (an append to one reallocates instead of writing
// into the next window of the shared flat array), the windows are
// disjoint and their union is exactly the observed set, every
// adjacency lands in exactly one component, and an observed adjacency
// endpoint lies in its adjacency's component.
func checkComponentInputs(t *testing.T, label string, in runInput, comps []runInput) {
	t.Helper()
	var union []inet.Addr
	adjs := 0
	for ci, c := range comps {
		if !slices.IsSorted(c.addrs) || len(slices.Compact(slices.Clone(c.addrs))) != len(c.addrs) {
			t.Errorf("%s: component %d addresses are not ascending and unique", label, ci)
		}
		if cap(c.addrs) != len(c.addrs) || cap(c.adjs) != len(c.adjs) {
			t.Errorf("%s: component %d windows not capacity-clipped (addrs %d/%d, adjs %d/%d)",
				label, ci, len(c.addrs), cap(c.addrs), len(c.adjs), cap(c.adjs))
		}
		union = append(union, c.addrs...)
		adjs += len(c.adjs)
		for _, adj := range c.adjs {
			for _, a := range [2]inet.Addr{adj.First, adj.Second} {
				if _, obs := slices.BinarySearch(in.addrs, a); obs && !slices.Contains(c.addrs, a) {
					t.Errorf("%s: component %d adjacency endpoint %v crosses the boundary", label, ci, a)
				}
			}
		}
	}
	slices.Sort(union)
	if !slices.Equal(union, in.addrs) {
		t.Errorf("%s: components cover %d addresses, observed set has %d (or they differ)",
			label, len(union), len(in.addrs))
	}
	if adjs != len(in.adjs) {
		t.Errorf("%s: components hold %d adjacencies, input has %d", label, adjs, len(in.adjs))
	}
	// Appending to each window must leave every other window intact.
	before := make([][]inet.Addr, len(comps))
	for ci, c := range comps {
		before[ci] = slices.Clone(c.addrs)
	}
	for ci := range comps {
		_ = append(comps[ci].addrs, ^inet.Addr(0))
		_ = append(comps[ci].adjs, trace.Adjacency{})
	}
	for ci, c := range comps {
		if !slices.Equal(c.addrs, before[ci]) {
			t.Fatalf("%s: an append to a neighbouring window overwrote component %d", label, ci)
		}
	}
}

// TestPartitionComponentInputs checks the component windows on island
// evidence, and the degenerate inputs: no evidence at all, and evidence
// of isolated addresses only (every /30 block its own component).
func TestPartitionComponentInputs(t *testing.T) {
	ev, _ := islandEvidence(t, 11, 3)
	in := inputOf(ev)
	comps := partitionEvidence(in)
	if len(comps) < 3 {
		t.Fatalf("island evidence produced %d components, want >= 3", len(comps))
	}
	checkComponentInputs(t, "islands", in, comps)

	if comps := partitionEvidence(inputOf(evidence(nil))); comps != nil {
		t.Errorf("empty evidence partitioned into %d components, want nil", len(comps))
	}

	var singles []string
	for i := 0; i < 9; i++ {
		singles = append(singles, fmt.Sprintf("10.%d.0.1", 9-i))
	}
	in = inputOf(evidence(singles))
	comps = partitionEvidence(in)
	if len(comps) != len(singles) {
		t.Fatalf("all-singleton evidence: %d components, want %d", len(comps), len(singles))
	}
	checkComponentInputs(t, "singletons", in, comps)
	for i, c := range comps {
		// Equal sizes: scheduling falls back to ascending address.
		if len(c.addrs) != 1 || c.addrs[0] != in.addrs[i] || len(c.adjs) != 0 {
			t.Errorf("singleton component %d = %v, want [%v]", i, c.addrs, in.addrs[i])
		}
	}
	for _, workers := range []int{1, 2} {
		cfg := Config{IP2AS: table("10.0.0.0/8=100"), F: 0.5, Workers: workers}
		r, err := RunEvidence(evidence(singles), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition == nil || r.Partition.Components != len(singles) || len(r.Inferences) != 0 {
			t.Errorf("workers=%d: singleton run = %d inferences, partition %s",
				workers, len(r.Inferences), r.Partition.String())
		}
		r, err = RunEvidence(evidence(nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition == nil || r.Partition.Fallback != "single-component" ||
			r.Partition.Components != 0 || len(r.Inferences) != 0 {
			t.Errorf("workers=%d: empty run = %d inferences, partition %+v",
				workers, len(r.Inferences), r.Partition)
		}
	}
}

// TestPartitionOutsideEndpointsSound runs caller-built evidence whose
// adjacency endpoints partly lie outside AllAddrs, with the adjacencies
// in no particular order: the partition must still cover the observed
// set with closed components, and the partitioned engine must match the
// monolithic one with a clean exhaustive audit.
func TestPartitionOutsideEndpointsSound(t *testing.T) {
	ev, cfg := islandEvidence(t, 17, 3)
	sorted := inputOf(ev).addrs
	caller := &Evidence{}
	for i, a := range sorted {
		if i%5 != 2 { // every fifth address observed only as an endpoint
			caller.AllAddrs = append(caller.AllAddrs, a)
		}
	}
	caller.Adjacencies = slices.Clone(ev.Adjacencies)
	rand.New(rand.NewSource(3)).Shuffle(len(caller.Adjacencies), func(i, j int) {
		caller.Adjacencies[i], caller.Adjacencies[j] = caller.Adjacencies[j], caller.Adjacencies[i]
	})

	in := inputOf(caller)
	comps := partitionEvidence(in)
	if len(comps) < 2 {
		t.Fatalf("caller evidence produced %d components, want >= 2", len(comps))
	}
	checkComponentInputs(t, "outside-endpoints", in, comps)

	cfg.Audit = exhaustiveChecker()
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		cfg.DisablePartition = false
		r, err := RunEvidence(caller, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition == nil || r.Partition.Fallback != "" {
			t.Fatalf("workers=%d: partitioned run fell back: %s", workers, r.Partition.String())
		}
		if r.Diag.AuditViolations != 0 {
			t.Errorf("workers=%d: %d audit violations: %s", workers, r.Diag.AuditViolations, r.Audit)
		}
		cfg.DisablePartition = true
		mono, err := RunEvidence(caller, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(mono.Inferences) == 0 {
			t.Fatal("caller evidence produced no inferences: the comparison is vacuous")
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", workers), mono, r)
	}
}
