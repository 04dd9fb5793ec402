package core

import (
	"cmp"

	"mapit/internal/inet"
)

// ProbeSuggestion marks an interface half that looks like an inter-AS
// boundary but lacks the evidence MAP-IT requires: its single neighbour
// belongs to a different organisation, yet |N| < 2 blocks a direct
// inference and the ISP guard blocks the stub heuristic. The paper's
// §5.4 names the remedy — "to try to expose more interface addresses by
// targeting the links with additional traces" — and these records are
// the targeting list: probe destinations beyond the interface (forward
// halves) or sources feeding it (backward halves) to raise |N|.
type ProbeSuggestion struct {
	// Addr and Dir identify the starving half.
	Addr inet.Addr
	Dir  Direction
	// Neighbor is the lone adjacent address.
	Neighbor inet.Addr
	// LocalAS and NeighborAS are the committed mappings on each side of
	// the suspected boundary.
	LocalAS, NeighborAS inet.ASN
}

// suggestProbes scans for single-neighbour halves whose lone neighbour
// crosses an organisation boundary and that carry no inference. It
// reads only the flat mirrors: neighbour lists and IXP flags by
// addrIdx, committed mappings and inference presence by halfIdx, and
// organisations by asnID. The scan walks halves in halfCmp order, so
// the output needs no sort.
func (st *runState) suggestProbes() []ProbeSuggestion {
	ix := &st.idx
	var out []ProbeSuggestion
	for ai := range st.addrs {
		if ix.ixpA[ai] {
			continue
		}
		for _, dir := range [2]Direction{Forward, Backward} {
			nbrs := st.nbrF[ai]
			if dir == Backward {
				nbrs = st.nbrB[ai]
			}
			if len(nbrs) != 1 {
				continue
			}
			hi := halfSlot(int32(ai), dir)
			if st.hasInferenceIdx(hi) || st.hasInferenceIdx(hi^1) {
				continue
			}
			ni := st.addrIdx(nbrs[0])
			if ix.ixpA[ni] {
				continue
			}
			nhi := halfSlot(ni, dir.Opposite())
			localID, nbrID := ix.mapID[hi], ix.mapID[nhi]
			if localID < 0 || nbrID < 0 {
				continue
			}
			if ix.orgOfASN[localID] == ix.orgOfASN[nbrID] {
				continue
			}
			if st.hasInferenceIdx(nhi) {
				continue // the boundary is already pinned from the far side
			}
			out = append(out, ProbeSuggestion{
				Addr: st.addrs[ai], Dir: dir, Neighbor: nbrs[0],
				LocalAS: ix.asnOf[localID], NeighborAS: ix.asnOf[nbrID],
			})
		}
	}
	return out
}

// probeCmp is the output order of Result.ProbeSuggestions, shared with
// the partitioned engine's merge.
func probeCmp(a, b ProbeSuggestion) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Dir, b.Dir)
}
