package core

import (
	"slices"
	"testing"

	"mapit/internal/inet"
)

// TestNeighborListsCapacityClipped guards the flat backing arrays of
// N_F and N_B: every list is sorted, unique and capacity-clipped, so an
// append to one address's list reallocates instead of writing into the
// next address's list. The lists must also reproduce the evidence
// adjacencies exactly.
func TestNeighborListsCapacityClipped(t *testing.T) {
	ev, cfg := islandEvidence(t, 11, 2)
	cfg.freeze()
	st := newRunState(&cfg, ev)
	if len(st.addrs) < 2 {
		t.Fatalf("universe of %d addresses; want a real topology", len(st.addrs))
	}
	members := 0
	for _, dir := range []Direction{Forward, Backward} {
		var lists [][]inet.Addr
		for _, a := range st.addrs {
			list := st.neighbors(Half{Addr: a, Dir: dir})
			if cap(list) != len(list) {
				t.Fatalf("%v %v: cap %d != len %d", a, dir, cap(list), len(list))
			}
			if !slices.IsSorted(list) || len(slices.Compact(slices.Clone(list))) != len(list) {
				t.Fatalf("%v %v: list %v not sorted and unique", a, dir, list)
			}
			if len(list) > 0 {
				lists = append(lists, list)
			}
			members += len(list)
		}
		if len(lists) < 2 {
			t.Fatalf("%v: %d non-empty lists; want at least 2", dir, len(lists))
		}
		// Non-empty lists sit back to back in the flat array, in
		// address order: appending to one must not touch the next.
		for k := 0; k+1 < len(lists); k++ {
			next := slices.Clone(lists[k+1])
			_ = append(lists[k], ^inet.Addr(0))
			if !slices.Equal(lists[k+1], next) {
				t.Fatalf("%v: append to list %d overwrote list %d: %v, was %v",
					dir, k, k+1, lists[k+1], next)
			}
		}
	}
	if members != 2*len(ev.Adjacencies) {
		t.Errorf("lists hold %d members; want 2 per adjacency (%d)", members, 2*len(ev.Adjacencies))
	}
	for _, adj := range ev.Adjacencies {
		if _, ok := slices.BinarySearch(st.neighbors(Half{Addr: adj.First, Dir: Forward}), adj.Second); !ok {
			t.Fatalf("%v missing from N_F(%v)", adj.Second, adj.First)
		}
		if _, ok := slices.BinarySearch(st.neighbors(Half{Addr: adj.Second, Dir: Backward}), adj.First); !ok {
			t.Fatalf("%v missing from N_B(%v)", adj.First, adj.Second)
		}
	}
	if got := st.neighbors(Half{Addr: ^inet.Addr(0), Dir: Forward}); got != nil {
		t.Errorf("neighbors outside the universe = %v; want nil", got)
	}
}
