package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// synthTraces builds a deterministic corpus large enough to exercise the
// batching and table-growth paths: a mix of clean traces, quoted-TTL-0
// hops, null hops, immediate repeats and interface cycles.
func synthTraces(n int) []trace.Trace {
	rng := rand.New(rand.NewSource(42))
	addr := func() inet.Addr { return inet.Addr(0x08000000 + rng.Intn(1<<16)) }
	traces := make([]trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		hops := make([]trace.Hop, 0, 8)
		for j := 0; j < 3+rng.Intn(6); j++ {
			h := trace.Hop{Addr: addr(), QuotedTTL: 1}
			switch rng.Intn(12) {
			case 0:
				h.Addr = 0 // null hop
			case 1:
				h.QuotedTTL = 0 // buggy forwarder, removed by §4.1
			case 2:
				if len(hops) > 0 {
					h.Addr = hops[len(hops)-1].Addr // immediate repeat
				}
			case 3:
				if len(hops) > 1 {
					h.Addr = hops[0].Addr // likely interface cycle
				}
			}
			hops = append(hops, h)
		}
		traces = append(traces, trace.Trace{
			Monitor: fmt.Sprintf("mon-%d", rng.Intn(8)),
			Dst:     addr(),
			Hops:    hops,
		})
	}
	return traces
}

// The parallel collector must produce byte-identical evidence to the
// serial collector for any worker count.
func TestParallelCollectorEquivalence(t *testing.T) {
	traces := synthTraces(3000)
	serial := NewCollector()
	for _, tc := range traces {
		serial.Add(tc)
	}
	want := serial.Evidence()
	for _, workers := range []int{1, 2, 3, 8} {
		par := NewParallelCollector(workers)
		for _, tc := range traces {
			par.Add(tc)
		}
		if par.Traces() != len(traces) {
			t.Fatalf("workers=%d: Traces() = %d, want %d", workers, par.Traces(), len(traces))
		}
		got := par.Evidence()
		if !reflect.DeepEqual(want.Adjacencies, got.Adjacencies) {
			t.Fatalf("workers=%d: adjacency slices differ (%d vs %d entries)",
				workers, len(want.Adjacencies), len(got.Adjacencies))
		}
		if want.Stats != got.Stats {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, want.Stats, got.Stats)
		}
		if !reflect.DeepEqual(want.AllAddrs, got.AllAddrs) {
			t.Fatalf("workers=%d: address sets differ", workers)
		}
	}
}

// Like the serial collector, the parallel collector stays usable after
// Evidence: the pipeline restarts and later snapshots include both the
// old and the new traces.
func TestParallelCollectorIncremental(t *testing.T) {
	traces := synthTraces(1200)
	par := NewParallelCollector(4)
	serial := NewCollector()
	for _, tc := range traces[:600] {
		par.Add(tc)
		serial.Add(tc)
	}
	first := par.Evidence()
	if want := serial.Evidence(); !reflect.DeepEqual(want.Adjacencies, first.Adjacencies) {
		t.Fatal("first snapshot diverges from serial")
	}
	for _, tc := range traces[600:] {
		par.Add(tc)
		serial.Add(tc)
	}
	second := par.Evidence()
	want := serial.Evidence()
	if !reflect.DeepEqual(want.Adjacencies, second.Adjacencies) || want.Stats != second.Stats {
		t.Fatal("second snapshot diverges from serial")
	}
	if len(first.Adjacencies) >= len(second.Adjacencies) {
		t.Fatalf("second snapshot (%d adjacencies) should extend the first (%d)",
			len(second.Adjacencies), len(first.Adjacencies))
	}
}

// Evidence snapshots must be insulated from later Adds: the returned
// address set is a copy, not a view of the live collector (regression
// test for the AllAddrs aliasing bug).
func TestEvidenceSnapshotIsolation(t *testing.T) {
	c := NewCollector()
	c.Add(tr("1.1.1.1", "2.2.2.2"))
	ev := c.Evidence()
	before := len(ev.AllAddrs)
	c.Add(tr("3.3.3.3", "4.4.4.4"))
	if len(ev.AllAddrs) != before {
		t.Fatalf("snapshot AllAddrs grew from %d to %d after a later Add", before, len(ev.AllAddrs))
	}
	if slices.Contains(ev.AllAddrs, inet.MustParseAddr("3.3.3.3")) {
		t.Fatal("snapshot AllAddrs sees addresses added after Evidence()")
	}

	p := NewParallelCollector(2)
	p.Add(tr("1.1.1.1", "2.2.2.2"))
	pev := p.Evidence()
	before = len(pev.AllAddrs)
	p.Add(tr("3.3.3.3", "4.4.4.4"))
	p.Evidence()
	if len(pev.AllAddrs) != before {
		t.Fatal("parallel snapshot AllAddrs mutated by a later Add")
	}
}
