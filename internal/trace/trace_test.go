package trace

import (
	"math/rand/v2"
	"testing"
	"time"

	"mapit/internal/inet"
)

func ip(s string) inet.Addr { return inet.MustParseAddr(s) }

func TestHasCycle(t *testing.T) {
	cases := []struct {
		name  string
		addrs []string
		want  bool
	}{
		{"no cycle", []string{"1.1.1.1", "2.2.2.2", "3.3.3.3"}, false},
		{"cycle separated by one", []string{"1.1.1.1", "2.2.2.2", "1.1.1.1"}, true},
		{"cycle separated by two", []string{"1.1.1.1", "2.2.2.2", "3.3.3.3", "1.1.1.1"}, true},
		{"immediate repeat is not a cycle", []string{"1.1.1.1", "1.1.1.1", "2.2.2.2"}, false},
		{"trailing repeats not a cycle", []string{"1.1.1.1", "2.2.2.2", "2.2.2.2", "2.2.2.2"}, false},
		{"null hop between repeats not a separator", []string{"1.1.1.1", "", "1.1.1.1"}, false},
		{"null hop plus real separator", []string{"1.1.1.1", "", "2.2.2.2", "1.1.1.1"}, true},
		{"empty", nil, false},
	}
	for _, c := range cases {
		var addrs []inet.Addr
		for _, s := range c.addrs {
			if s == "" {
				addrs = append(addrs, 0)
			} else {
				addrs = append(addrs, ip(s))
			}
		}
		tr := NewTrace("m", ip("9.9.9.9"), addrs...)
		if got := HasCycle(tr); got != c.want {
			t.Errorf("%s: HasCycle = %v; want %v", c.name, got, c.want)
		}
	}
}

// hasCycleMap is the original map-based cycle check, kept as the
// reference HasCycle must agree with.
func hasCycleMap(t Trace) bool {
	lastSeen := make(map[inet.Addr]int, len(t.Hops))
	respIdx := 0
	for _, h := range t.Hops {
		if !h.Responded() {
			continue
		}
		if prev, ok := lastSeen[h.Addr]; ok && respIdx-prev > 1 {
			return true
		}
		lastSeen[h.Addr] = respIdx
		respIdx++
	}
	return false
}

// randomCycleTrace draws a trace over a small address pool so repeats
// are common: null hops, immediate repeats (A A), true cycles (A B A,
// A * B A), and — for the long lengths — more than cycleScanMax
// responding hops, so the sorted fallback is exercised too.
func randomCycleTrace(rng *rand.Rand) Trace {
	var n, pool int
	switch rng.IntN(3) {
	case 0:
		n, pool = rng.IntN(12), 1+rng.IntN(6)
	case 1:
		n, pool = rng.IntN(70), 1+rng.IntN(100)
	default:
		n, pool = cycleScanMax+rng.IntN(200), cycleScanMax+rng.IntN(400)
	}
	// Long traces are built mostly distinct so that some of them get
	// past cycleScanMax runs before (or without) their first repeat.
	distinct := n > cycleScanMax && rng.IntN(2) == 0
	addrs := make([]inet.Addr, n)
	for i := range addrs {
		switch {
		case rng.IntN(8) == 0:
			// null hop
		case i > 0 && rng.IntN(5) == 0:
			addrs[i] = addrs[i-1] // immediate repeat (or another null)
		case distinct:
			addrs[i] = inet.Addr(0x01000000 + uint32(i))
		default:
			addrs[i] = inet.Addr(0x01000000 + uint32(rng.IntN(pool)))
		}
	}
	if distinct && n > 2 && rng.IntN(2) == 0 {
		// Plant one late cycle: a copy of an early address.
		addrs[n-1-rng.IntN(n/4+1)] = addrs[rng.IntN(n/4+1)]
	}
	return NewTrace("m", ip("9.9.9.9"), addrs...)
}

func TestHasCycleMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var cycles, long, longCycles int
	for i := 0; i < 20000; i++ {
		tr := randomCycleTrace(rng)
		got, want := HasCycle(tr), hasCycleMap(tr)
		if got != want {
			t.Fatalf("trace %d %v: HasCycle = %v; map reference = %v", i, tr.Addrs(), got, want)
		}
		responding := 0
		for _, h := range tr.Hops {
			if h.Responded() {
				responding++
			}
		}
		if want {
			cycles++
		}
		if responding > cycleScanMax {
			long++
			if want {
				longCycles++
			}
		}
	}
	// The draw must cover both outcomes on both paths.
	if cycles == 0 || cycles == 20000 || long == 0 || longCycles == 0 || longCycles == long {
		t.Fatalf("degenerate draw: cycles=%d long=%d longCycles=%d", cycles, long, longCycles)
	}
}

// TestHasCycleLongTraceCheap bounds the worst case: a 1024-hop trace of
// distinct addresses must take the sorted fallback (one allocation),
// not a quadratic scan or a map.
func TestHasCycleLongTraceCheap(t *testing.T) {
	addrs := make([]inet.Addr, 1024)
	for i := range addrs {
		addrs[i] = inet.Addr(0x0a000000 ^ uint32(i)*2654435761)
	}
	tr := NewTrace("m", ip("9.9.9.9"), addrs...)
	if HasCycle(tr) {
		t.Fatal("distinct 1024-hop trace reported as a cycle")
	}
	if allocs := testing.AllocsPerRun(20, func() { HasCycle(tr) }); allocs > 1 {
		t.Errorf("HasCycle on a 1024-hop trace allocates %v times; want <= 1", allocs)
	}
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		HasCycle(tr)
	}
	// A sort of 1024 addresses is tens of microseconds; the quadratic
	// scan it replaces would be ~half a million comparisons.
	if per := time.Since(start) / reps; per > 2*time.Millisecond {
		t.Errorf("HasCycle on a 1024-hop trace takes %v; want < 2ms", per)
	}
}

// TestSanitizeCleanTraceAllocFree pins the batch hot path: sanitising a
// trace with no quoted-TTL=0 hop and at most cycleScanMax responding
// hops allocates nothing.
func TestSanitizeCleanTraceAllocFree(t *testing.T) {
	addrs := make([]inet.Addr, cycleScanMax)
	for i := range addrs {
		addrs[i] = inet.Addr(0x01000000 + uint32(i))
	}
	addrs[10] = 0
	addrs[11] = addrs[12]
	tr := NewTrace("m", ip("9.9.9.9"), addrs...)
	allocs := testing.AllocsPerRun(100, func() {
		if _, res := Sanitize(tr); res.Discarded {
			t.Fatal("clean trace discarded")
		}
	})
	if allocs != 0 {
		t.Errorf("Sanitize of a clean trace allocates %v times; want 0", allocs)
	}
}

func TestSanitizeQuotedTTL(t *testing.T) {
	tr := NewTrace("m", ip("9.9.9.9"), ip("1.1.1.1"), ip("2.2.2.2"), ip("3.3.3.3"))
	tr.Hops[1].QuotedTTL = 0
	clean, res := Sanitize(tr)
	if res.Discarded || res.RemovedHops != 1 {
		t.Fatalf("res = %+v", res)
	}
	if clean.Hops[1].Responded() {
		t.Error("quoted-TTL=0 hop should become a null hop")
	}
	// Original trace untouched (copy-on-write).
	if !tr.Hops[1].Responded() {
		t.Error("input trace mutated")
	}
	// No adjacency across the removed hop.
	adj := Adjacencies(clean, nil)
	if len(adj) != 0 {
		t.Errorf("adjacencies across removed hop: %v", adj)
	}
}

func TestSanitizeDiscardsCycles(t *testing.T) {
	tr := NewTrace("m", ip("9.9.9.9"), ip("1.1.1.1"), ip("2.2.2.2"), ip("1.1.1.1"))
	_, res := Sanitize(tr)
	if !res.Discarded {
		t.Error("cycle trace not discarded")
	}
	// Removing a quoted-TTL=0 hop can eliminate the cycle.
	tr2 := NewTrace("m", ip("9.9.9.9"), ip("1.1.1.1"), ip("2.2.2.2"), ip("1.1.1.1"))
	tr2.Hops[2].QuotedTTL = 0
	clean, res := Sanitize(tr2)
	if res.Discarded {
		t.Error("cycle formed only by a removed hop should not discard")
	}
	if len(clean.Hops) != 3 {
		t.Errorf("hops = %d", len(clean.Hops))
	}
}

func TestAdjacencies(t *testing.T) {
	tr := NewTrace("m", ip("9.9.9.9"),
		ip("1.1.1.1"), ip("2.2.2.2"), 0, ip("3.3.3.3"), ip("3.3.3.3"), ip("4.4.4.4"),
		ip("10.0.0.1"), ip("5.5.5.5"))
	adj := Adjacencies(tr, nil)
	want := []Adjacency{
		{ip("1.1.1.1"), ip("2.2.2.2")},
		{ip("3.3.3.3"), ip("4.4.4.4")},
		// 4.4.4.4 -> 10.0.0.1 skipped (private), 10.0.0.1 -> 5.5.5.5 skipped.
	}
	if len(adj) != len(want) {
		t.Fatalf("adjacencies = %v", adj)
	}
	for i := range want {
		if adj[i] != want[i] {
			t.Errorf("adj[%d] = %v; want %v", i, adj[i], want[i])
		}
	}
}

func TestDatasetSanitizeStats(t *testing.T) {
	d := &Dataset{Traces: []Trace{
		NewTrace("m1", ip("9.9.9.1"), ip("1.1.1.1"), ip("2.2.2.2")),
		NewTrace("m1", ip("9.9.9.2"), ip("1.1.1.1"), ip("3.3.3.3"), ip("1.1.1.1")), // cycle
		NewTrace("m2", ip("9.9.9.3"), ip("2.2.2.2"), ip("4.4.4.4")),
	}}
	s := d.Sanitize()
	if s.Stats.TotalTraces != 3 || s.Stats.DiscardedTraces != 1 {
		t.Fatalf("stats = %+v", s.Stats)
	}
	if len(s.Retained) != 2 {
		t.Fatalf("retained = %d", len(s.Retained))
	}
	// 3.3.3.3 appears only in the discarded trace: counted in AllAddrs
	// (needed for the §4.2 heuristic) but not in RetainedAddrs.
	if !s.AllAddrs.Contains(ip("3.3.3.3")) {
		t.Error("AllAddrs must include discarded-trace addresses")
	}
	if s.Stats.DistinctAddrs != 4 || s.Stats.RetainedAddrs != 3 {
		t.Errorf("addr stats = %+v", s.Stats)
	}
	if f := s.Stats.RetainedAddrFraction(); f != 0.75 {
		t.Errorf("RetainedAddrFraction = %v", f)
	}
	if f := s.Stats.RetainedTraceFraction(); f < 0.66 || f > 0.67 {
		t.Errorf("RetainedTraceFraction = %v", f)
	}
	if got := len(s.Adjacencies()); got != 2 {
		t.Errorf("adjacencies = %d", got)
	}
	var zero Stats
	if zero.RetainedAddrFraction() != 0 || zero.RetainedTraceFraction() != 0 {
		t.Error("zero stats fractions should be 0")
	}
}

func TestTraceAddrs(t *testing.T) {
	tr := NewTrace("m", ip("9.9.9.9"), ip("1.1.1.1"), 0, ip("2.2.2.2"))
	addrs := tr.Addrs()
	if len(addrs) != 3 || addrs[0] != ip("1.1.1.1") || addrs[1] != 0 || addrs[2] != ip("2.2.2.2") {
		t.Errorf("Addrs = %v", addrs)
	}
}
