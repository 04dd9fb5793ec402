package core

import (
	"fmt"
	"math/rand"
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
	st := newRunState(&cfg, inputOf(ev))
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

// checkPairOtherSides runs the sorted-slice §4.2 pairing over observed
// and compares it with inet.InferOtherSide over an AddrSet. The address
// universe handed to pairOtherSides is every member of every touched
// /30 block except every third observed address, so it holds
// unobserved addresses, which must stay unpaired, and misses observed
// ones, as an interface universe misses addresses with no adjacency.
// It also checks baseUniverse against a sorted union of the addresses
// and their paired other sides.
func checkPairOtherSides(t *testing.T, label string, observed []inet.Addr) {
	t.Helper()
	set := inet.NewAddrSet(observed)
	sorted := make([]inet.Addr, 0, len(set))
	for a := range set {
		sorted = append(sorted, a)
	}
	slices.Sort(sorted)
	var addrs []inet.Addr
	for i, a := range sorted {
		if i > 0 && a>>2 == sorted[i-1]>>2 {
			continue // block already added
		}
		for k := inet.Addr(0); k < 4; k++ {
			addrs = append(addrs, a&^3|k)
		}
	}
	for i := 2; i < len(sorted); i += 3 {
		j, _ := slices.BinarySearch(addrs, sorted[i])
		addrs = slices.Delete(addrs, j, j+1)
	}

	other, paired, n31 := pairOtherSides(sorted, addrs)
	union := slices.Clone(addrs)
	for i := range addrs {
		if paired[i] {
			union = append(union, other[i])
		}
	}
	slices.Sort(union)
	if got := baseUniverse(addrs, other, paired); !slices.Equal(got, slices.Compact(union)) {
		t.Errorf("%s: base universe %v, want the sorted union %v", label, got, union)
	}
	want31 := 0
	for a := range set {
		if inet.InferOtherSide(a, set).Kind == inet.PtP31 {
			want31++
		}
	}
	if n31 != want31 {
		t.Errorf("%s: /31 count %d, InferOtherSide says %d", label, n31, want31)
	}
	for i, a := range addrs {
		if !set.Contains(a) {
			if paired[i] {
				t.Errorf("%s: unobserved %v paired with %v", label, a, other[i])
			}
			continue
		}
		if want := inet.InferOtherSide(a, set).Other; !paired[i] || other[i] != want {
			t.Errorf("%s: other side of %v = %v (paired %v), InferOtherSide says %v",
				label, a, other[i], paired[i], want)
		}
	}
}

// TestPairOtherSidesMatchesInferOtherSide is the differential test of
// the sorted-slice §4.2 other side against inet.InferOtherSide.
func TestPairOtherSidesMatchesInferOtherSide(t *testing.T) {
	block := func(base inet.Addr, mask int) []inet.Addr {
		var out []inet.Addr
		for k := 0; k < 4; k++ {
			if mask&(1<<k) != 0 {
				out = append(out, base|inet.Addr(k))
			}
		}
		return out
	}
	first, last := inet.Addr(0), ^inet.Addr(0)&^3 // 0.0.0.0/30, 255.255.255.252/30
	mid := inet.MustParseAddr("10.0.0.0")
	// Every presence pattern of one block — each low-2-bit position,
	// network and broadcast each present and absent — alone, at the
	// extremes of the address space, and as the first and last block of
	// a longer slice.
	for mask := 1; mask < 16; mask++ {
		for _, base := range []inet.Addr{first, mid, last} {
			checkPairOtherSides(t, fmt.Sprintf("%v/mask=%04b", base, mask), block(base, mask))
		}
		inner := append(block(mid, 0b0110), block(mid+4, 0b1111)...)
		edges := append(append(block(first, mask), inner...), block(last, mask)...)
		checkPairOtherSides(t, fmt.Sprintf("edges/mask=%04b", mask), edges)
	}
	// Random sets dense in /30 blocks: runs of consecutive blocks, each
	// with a random non-empty presence pattern.
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		var observed []inet.Addr
		for b := 0; b < 1+rng.Intn(6); b++ {
			start := inet.Addr(rng.Uint32()) &^ 3
			switch rng.Intn(8) {
			case 0:
				start = first
			case 1:
				start = last - 4*inet.Addr(rng.Intn(3))
			}
			for k := inet.Addr(0); k < inet.Addr(1+rng.Intn(8)); k++ {
				base := start + 4*k
				if base < start { // wrapped past 255.255.255.255
					break
				}
				observed = append(observed, block(base, 1+rng.Intn(15))...)
			}
		}
		checkPairOtherSides(t, fmt.Sprintf("random/%d", round), observed)
	}
}
