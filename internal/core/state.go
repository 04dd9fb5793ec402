package core

import (
	"slices"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// directInf is a direct inference record on one half (§4.4.1).
type directInf struct {
	local     inet.ASN // committed mapping of the half when inferred
	connected inet.ASN // AS_N
	// connectedID and localID are the intern ids of connected and local
	// (see internIndex; localID is -1 when unannounced), captured at
	// inference time so the §4.5 retention check and the §4.4.3/§4.4.4
	// resolutions compare dense org ids instead of walking the
	// union-find.
	connectedID int32
	localID     int32
	uncertain   bool
	stub        bool
}

// runState is the full mutable state of a MAP-IT run.
type runState struct {
	cfg *Config

	// Immutable after build.
	observed []inet.Addr // every address seen in any trace, ascending
	addrs    []inet.Addr // interface universe, sorted; index = addrIdx
	// nbrF / nbrB are N_F and N_B by addrIdx, each list sorted and
	// unique: capacity-clipped windows into one flat array per side
	// (see neighborLists).
	nbrF, nbrB [][]inet.Addr
	// otherA and paired are the §4.2 columns by addrIdx: otherA[i] is
	// the putative other side of addrs[i], valid when paired[i] — only
	// observed addresses are paired (see pairOtherSides).
	otherA []inet.Addr
	paired []bool
	// base holds the resolved base mappings of every address a run can
	// read one for (see baseColumns).
	base baseColumns

	// Inference state. overrides is the committed per-half IP2AS view;
	// mutations during a pass are buffered and applied at pass end so
	// every pass reads the previous pass's state (§4.4.5).
	direct    map[Half]*directInf
	indirect  map[Half]Half // half with indirect inference -> source half
	overrides map[Half]inet.ASN
	// severed marks addresses whose other-side pairing was dismissed as
	// incorrect by the divergent-other-sides rule (§4.4.3).
	severed map[inet.Addr]bool
	// inferredOnce suppresses re-inference on a half within one add
	// step: a direct inference can only be made once per add step,
	// which is what makes the add step converge (§4.4.5). Indexed by
	// halfIdx (inferences only ever land on eligible, indexed halves);
	// cleared by resetInferredOnce at the start of every iteration.
	inferredOnce []bool

	// hashSum is the §4.6 state fingerprint, maintained incrementally:
	// an order-independent sum (mod 2^64) of one strong per-entry hash
	// for every direct inference, indirect association, and override.
	// Addition forms a group, so every state-mutating funnel subtracts
	// the entry hash it replaces and adds the new one, and stateHash is
	// O(1) instead of three sorted map walks per iteration.
	// stateHashRecompute rebuilds it from scratch for verification.
	hashSum uint64

	// seenSet indexes the visited fingerprints for the §4.6 stopping
	// rule's O(1) membership test, so the rule costs O(iterations)
	// total instead of O(iterations²) when MaxIterations is raised for
	// long-running sweeps. Reused across fixpoint calls on one state.
	// (The visit-order slice that once shadowed it is gone: nothing
	// read it — membership is the whole test.)
	seenSet map[uint64]struct{}

	// n31 is the integer §4.2 /31 count behind diag.Slash31Fraction,
	// kept so a partitioned run can recompose the global fraction from
	// exact per-component numerators (floats do not sum).
	n31 int

	// lastPassDual is the DualSameAS delta of the most recent add
	// step's final (quiet) pass — the stable same-organisation dual
	// count the partitioned engine needs to reconstruct monolithic
	// diagnostics (see mergeDiagnostics).
	lastPassDual int

	// snapHash/snapSevered/snapInf memoise the last stage snapshot's
	// inference list (see StageSnapshot): consecutive hooks between
	// which neither the state fingerprint nor the severed set moved
	// reuse the list instead of rebuilding it.
	snapHash    uint64
	snapSevered int
	snapInf     []Inference

	// Incremental fixpoint machinery (see orgid.go / dirty.go): the
	// dense intern index elections run on, the dirty set the add and
	// remove steps drain, per-worker election scratch, and the reusable
	// pass buffers of directPass and removeStep.
	idx      internIndex
	dirty    dirtySet
	electScr []electScratch

	// Flat mirrors of the inference state above, indexed by halfIdx and
	// kept in lockstep by the setDirect/unsetDirect and
	// setIndirect/unsetIndirect funnels, so the per-pass scan and
	// resolution loops read arrays instead of hashing Half keys.
	// dirConnID[h] ≥ 0 iff h carries a direct inference (connected is
	// never unannounced); dirLocalID/dirStub/dirUnc mirror the record's
	// other fields. indirectSrc[h] is the halfIdx of the direct
	// inference backing h's indirect record (-1 when none; source
	// halves are always indexed even when the indirect key is not).
	// severedIdx mirrors st.severed by addrIdx.
	dirConnID   []int32
	dirLocalID  []int32
	dirStub     []bool
	dirUnc      []bool
	indirectSrc []int32
	severedIdx  []bool

	// directIdxs is the sorted halfIdx view of st.direct, maintained
	// incrementally: commits append (in sorted batches) to
	// directPending, removals flag directStale, and sortedDirectIdxs
	// compacts and merges on demand.
	directIdxs    []int32
	directPending []int32
	directMerge   []int32
	directStale   bool

	addShards      [][]pendingAdd
	addsBuf        []pendingAdd
	demoteShards   [][]int32
	demoteBuf      []int32
	purgeBuf       []Half
	resolveScratch []int32

	// infBlock is the live slab directInf records are carved from:
	// commits take the next slot instead of boxing a record per add,
	// which was the dominant in-fixpoint allocation. Records removed by
	// the remove step or resolutions are simply abandoned in place —
	// the waste is bounded by the total adds of one run, and the whole
	// slab dies with the runState.
	infBlock []directInf

	// auditor runs the runtime invariant audit at fixpoint step
	// boundaries; nil unless Config.Audit enabled auditing.
	auditor *runAuditor

	diag Diagnostics
}

// infSlabBlock is the slab granularity: appends never move live
// records because a full block is retired and a fresh one started.
const infSlabBlock = 512

// newDirectInf copies d into the slab and returns a stable pointer.
func (st *runState) newDirectInf(d directInf) *directInf {
	if len(st.infBlock) == cap(st.infBlock) {
		st.infBlock = make([]directInf, 0, infSlabBlock)
	}
	st.infBlock = append(st.infBlock, d)
	return &st.infBlock[len(st.infBlock)-1]
}

// runInput is what one run state is built from: the observed addresses
// as an ascending, duplicate-free slice and the unique adjacencies.
// RunEvidence sorts the observed set once (inputOf); the partitioner
// carves every component's input out of that one slice.
type runInput struct {
	addrs []inet.Addr
	adjs  []trace.Adjacency
}

// inputOf takes ev's observed set as the runInput's ascending slice:
// as is when it is already strictly ascending (every collector's
// output), else as a sorted, deduplicated copy — the caller's slice is
// never modified.
func inputOf(ev *Evidence) runInput {
	addrs := slices.Clip(ev.AllAddrs)
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			addrs = slices.Clone(addrs)
			slices.Sort(addrs)
			addrs = slices.Clip(slices.Compact(addrs))
			break
		}
	}
	return runInput{addrs: addrs, adjs: ev.Adjacencies}
}

// baseColumns are a run's resolved base mappings over its base-mapping
// universe: every interface address plus every paired other side,
// ascending. asn[i] is the IP2AS origin of addrs[i] (zero =
// unannounced) and ixp[i] its IXP flag. Each address is resolved once
// per run, and reads go by index or by binary search.
type baseColumns struct {
	addrs []inet.Addr
	asn   []inet.ASN
	ixp   []bool
}

func newRunState(cfg *Config, in runInput) *runState {
	// The inference maps are sized and made by buildIndex, once the
	// eligible-half count is known.
	st := &runState{
		cfg:      cfg,
		observed: in.addrs,
		severed:  make(map[inet.Addr]bool),
	}
	workers := cfg.workers()

	// Neighbour sets from the unique adjacencies (§4.3). Evidence
	// adjacencies arrive sorted by (First, Second) and deduplicated, so
	// N_F(a) is the run of Seconds under First a; N_B comes the same way
	// from one sorted reversed copy. Both sides work on pairs packed as
	// key<<32 | member. The forward sort only confirms the order every
	// collector already produces (pdqsort finishes sorted input in one
	// linear pass).
	fwd := make([]uint64, len(in.adjs))
	back := make([]uint64, len(in.adjs))
	for i, adj := range in.adjs {
		fwd[i] = uint64(adj.First)<<32 | uint64(adj.Second)
		back[i] = uint64(adj.Second)<<32 | uint64(adj.First)
	}
	slices.Sort(fwd)
	slices.Sort(back)

	// Interface universe: every address with a neighbour on either side
	// — the sorted union of the two sides' keys.
	st.addrs = appendPairKeys(make([]inet.Addr, 0, 2*len(in.adjs)), fwd)
	st.addrs = appendPairKeys(st.addrs, back)
	slices.Sort(st.addrs)
	st.addrs = slices.Clip(slices.Compact(st.addrs))
	st.diag.Interfaces = len(st.addrs)
	st.nbrF = neighborLists(fwd, st.addrs)
	st.nbrB = neighborLists(back, st.addrs)

	// §4.2 other sides, decided from the sorted observed slice.
	st.otherA, st.paired, st.n31 = pairOtherSides(in.addrs, st.addrs)
	if len(in.addrs) > 0 {
		st.diag.Slash31Fraction = float64(st.n31) / float64(len(in.addrs))
	}

	// Base mappings for every interface address plus its paired other
	// side. The LPM and IXP lookups are read-only (the sources are
	// frozen by RunEvidence) and dominate this phase, so they shard
	// into the index-aligned columns.
	b := &st.base
	b.addrs = baseUniverse(st.addrs, st.otherA, st.paired)
	b.asn = make([]inet.ASN, len(b.addrs))
	b.ixp = make([]bool, len(b.addrs))
	parallelChunks(len(b.addrs), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := b.addrs[i]
			b.asn[i] = st.baseLookup(a)
			b.ixp[i] = cfg.IXP.IsIXPAddr(a) || cfg.IXP.IsIXPASN(b.asn[i])
		}
	})

	// Eligible halves and the both-Ns overlap statistic. Chunks scan
	// disjoint ranges of the sorted address slice and are concatenated
	// in chunk order, so the half indexes emerge in halfCmp order,
	// exactly as the serial left-to-right scan produces them; the
	// diagnostics are sums.
	type eligiblePartial struct {
		halves                  []int32
		fwd, back, bothOverlaps int
	}
	parts := make([]eligiblePartial, numChunks(len(st.addrs), workers))
	parallelChunks(len(st.addrs), workers, func(w, lo, hi int) {
		p := &parts[w]
		for i := lo; i < hi; i++ {
			f, b := st.nbrF[i], st.nbrB[i]
			if len(f) >= 2 {
				p.halves = append(p.halves, halfSlot(int32(i), Forward))
				p.fwd++
			}
			if len(b) >= 2 {
				p.halves = append(p.halves, halfSlot(int32(i), Backward))
				p.back++
			}
			if len(f) > 0 && len(b) > 0 && sortedIntersect(f, b) {
				p.bothOverlaps++
			}
		}
	})
	for _, p := range parts {
		st.idx.halvesIdx = append(st.idx.halvesIdx, p.halves...)
		st.diag.EligibleForward += p.fwd
		st.diag.EligibleBackward += p.back
		st.diag.BothNsOverlap += p.bothOverlaps
	}
	st.buildIndex()
	if cfg.Audit.Enabled() {
		st.auditor = newRunAuditor(cfg.Audit)
	}
	return st
}

// baseLookup resolves a's base mapping through the configured source;
// zero means unannounced.
func (st *runState) baseLookup(a inet.Addr) inet.ASN {
	asn, _ := st.cfg.IP2AS.Lookup(a)
	return asn
}

// pairOtherSides applies the §4.2 heuristic (inet.InferOtherSide) to
// every address of addrs that appears in observed; both slices are
// ascending. An address's verdict depends only on which members of its
// aligned /30 block were observed, and block members are neighbours in
// a sorted slice, so one walk over the observed blocks decides every
// address without a set. Returns the other sides and paired flags
// aligned with addrs (unobserved addresses stay unpaired) and the /31
// count over all of observed.
func pairOtherSides(observed, addrs []inet.Addr) (other []inet.Addr, paired []bool, n31 int) {
	other = make([]inet.Addr, len(addrs))
	paired = make([]bool, len(addrs))
	j := 0
	for lo := 0; lo < len(observed); {
		block := observed[lo] >> 2
		hi := lo + 1
		for hi < len(observed) && observed[hi]>>2 == block {
			hi++
		}
		// seen has bit k set when the block member with low bits k was
		// observed; bits 0 and 3 are the /30 network and broadcast.
		var seen uint8
		for _, a := range observed[lo:hi] {
			seen |= 1 << (a & 3)
		}
		for _, a := range observed[lo:hi] {
			o := inet.Slash30Other(a)
			if !inet.IsSlash30Host(a) || seen&0b1001 != 0 {
				o = inet.Slash31Other(a)
				n31++
			}
			for j < len(addrs) && addrs[j] < a {
				j++
			}
			if j < len(addrs) && addrs[j] == a {
				other[j], paired[j] = o, true
			}
		}
		lo = hi
	}
	return other, paired, n31
}

// baseUniverse returns the sorted union of addrs (ascending) and the
// paired other sides. An other side lies in its address's aligned /30
// block, so the union is assembled one block at a time from a
// four-bit membership mask, without a global sort.
func baseUniverse(addrs, other []inet.Addr, paired []bool) []inet.Addr {
	out := make([]inet.Addr, 0, len(addrs)+len(addrs)/4)
	for lo := 0; lo < len(addrs); {
		block := addrs[lo] >> 2
		var members uint8
		hi := lo
		for ; hi < len(addrs) && addrs[hi]>>2 == block; hi++ {
			members |= 1 << (addrs[hi] & 3)
			if paired[hi] {
				members |= 1 << (other[hi] & 3)
			}
		}
		for k := inet.Addr(0); k < 4; k++ {
			if members&(1<<k) != 0 {
				out = append(out, block<<2|k)
			}
		}
		lo = hi
	}
	return out
}

// appendPairKeys appends the distinct keys of pairs packed as
// key<<32 | member and sorted, in ascending order.
func appendPairKeys(dst []inet.Addr, pairs []uint64) []inet.Addr {
	for i, p := range pairs {
		if i == 0 || p>>32 != pairs[i-1]>>32 {
			dst = append(dst, inet.Addr(p>>32))
		}
	}
	return dst
}

// neighborLists groups pairs packed as key<<32 | member, sorted and
// duplicate-free, into neighbour lists indexed like addrs, which is
// sorted and holds every key; addresses without pairs get a nil list.
// The members go into one flat array and every list is a window into
// it with its capacity clipped to its length, so an append to one list
// reallocates instead of overwriting the next.
func neighborLists(pairs []uint64, addrs []inet.Addr) [][]inet.Addr {
	flat := make([]inet.Addr, len(pairs))
	lists := make([][]inet.Addr, len(addrs))
	j := 0
	for lo := 0; lo < len(pairs); {
		key := inet.Addr(pairs[lo] >> 32)
		hi := lo
		for ; hi < len(pairs) && inet.Addr(pairs[hi]>>32) == key; hi++ {
			flat[hi] = inet.Addr(uint32(pairs[hi]))
		}
		for addrs[j] != key {
			j++
		}
		lists[j] = flat[lo:hi:hi]
		lo = hi
	}
	return lists
}

func sortedIntersect(a, b []inet.Addr) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// neighbors returns the half's neighbour set; nil outside the
// interface universe.
func (st *runState) neighbors(h Half) []inet.Addr {
	hi := st.halfIdx(h)
	switch {
	case hi < 0:
		return nil
	case h.Dir == Forward:
		return st.nbrF[hi>>1]
	default:
		return st.nbrB[hi>>1]
	}
}

// mapping returns the committed IP2AS view of a half: override if one is
// in force, otherwise the base BGP mapping. Zero means unannounced.
func (st *runState) mapping(h Half) inet.ASN {
	if asn, ok := st.overrides[h]; ok {
		return asn
	}
	return st.baseAS(h.Addr)
}

// baseAS returns a's base BGP mapping from the resolved columns; zero
// when unannounced or outside the base-mapping universe.
func (st *runState) baseAS(a inet.Addr) inet.ASN {
	if i, ok := slices.BinarySearch(st.base.addrs, a); ok {
		return st.base.asn[i]
	}
	return 0
}

// isObserved reports whether a appeared in any trace of the run.
func (st *runState) isObserved(a inet.Addr) bool {
	_, ok := slices.BinarySearch(st.observed, a)
	return ok
}

// otherAt returns the §4.2 other side of addrs[ai]; ok is false for an
// address that was never observed (an adjacency endpoint outside the
// observed set), which has no pairing.
func (st *runState) otherAt(ai int32) (other inet.Addr, ok bool) {
	return st.otherA[ai], st.paired[ai]
}

// otherHalf returns the opposite-direction half of the other side of h:
// the half that shares h's link and looks the same way along it (§3.2).
// Only halves inside the interface universe carry inference records,
// so only they have an other half.
func (st *runState) otherHalf(h Half) (Half, bool) {
	hi := st.halfIdx(h)
	if hi < 0 {
		return Half{}, false
	}
	o, ok := st.otherAt(hi >> 1)
	if !ok || st.severedIdx[hi>>1] {
		return Half{}, false
	}
	return Half{Addr: o, Dir: h.Dir.Opposite()}, true
}

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output bits all depend on all input bits. Composing two rounds over
// the packed entry fields gives each (tag, half, payload) tuple an
// effectively independent 64-bit hash, which is what makes the
// order-independent sum in hashSum collision-safe in practice.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entryHash fingerprints one state entry for hashSum. Tags keep the
// three record kinds (and the uncertain flag on direct inferences)
// from colliding: 1 = direct, 2 = direct uncertain, 3 = indirect
// (payload is the source address), 4 = override (payload is the ASN).
func entryHash(tag byte, h Half, payload uint32) uint64 {
	k := uint64(h.Addr)<<2 | uint64(h.Dir)<<1 | uint64(tag)<<40
	return mix64(mix64(k) + uint64(payload)*0x9e3779b97f4a7c15)
}

func directTag(uncertain bool) byte {
	if uncertain {
		return 2
	}
	return 1
}

// setDirect commits a direct inference, keeping the Half-keyed map
// (authoritative for hasInference and the result), the flat mirrors
// (what the scan and resolution loops read), and the hashSum
// fingerprint in lockstep. hi must be h's halfIdx; every inference
// lands on an eligible — therefore indexed — half.
func (st *runState) setDirect(h Half, hi int32, d *directInf) {
	if old, ok := st.direct[h]; ok {
		st.hashSum -= entryHash(directTag(old.uncertain), h, uint32(old.connected))
	}
	st.hashSum += entryHash(directTag(d.uncertain), h, uint32(d.connected))
	st.direct[h] = d
	st.dirConnID[hi] = d.connectedID
	st.dirLocalID[hi] = d.localID
	st.dirStub[hi] = d.stub
	st.dirUnc[hi] = d.uncertain
	if !st.cfg.DisableIncremental {
		st.directPending = append(st.directPending, hi)
	}
}

// unsetDirect removes a direct inference from the map and the mirrors.
func (st *runState) unsetDirect(h Half) {
	st.unsetDirectIdx(h, st.halfIdx(h))
}

// unsetDirectIdx is unsetDirect for callers that already hold h's index.
func (st *runState) unsetDirectIdx(h Half, hi int32) {
	old, ok := st.direct[h]
	if !ok {
		return
	}
	st.hashSum -= entryHash(directTag(old.uncertain), h, uint32(old.connected))
	delete(st.direct, h)
	if hi >= 0 {
		st.dirConnID[hi] = -1
		st.dirLocalID[hi] = -1
		st.dirStub[hi] = false
		st.dirUnc[hi] = false
		if !st.cfg.DisableIncremental {
			st.directStale = true
		}
	}
}

// setUncertain flips the §4.4.4 uncertain flag on hi's direct record,
// keeping the mirror and the fingerprint consistent. No-op when the
// flag is already set.
func (st *runState) setUncertain(hi int32) {
	if st.dirUnc[hi] {
		return
	}
	h := st.halfAt(hi)
	d := st.direct[h]
	st.hashSum -= entryHash(directTag(false), h, uint32(d.connected))
	st.hashSum += entryHash(directTag(true), h, uint32(d.connected))
	d.uncertain = true
	st.dirUnc[hi] = true
}

// setIndirect records an indirect inference association. The key half
// may be unindexed (a putative other side never seen adjacent to
// anything); the source is always an indexed direct-inference half.
func (st *runState) setIndirect(h, src Half) {
	st.setIndirectIdx(h, st.halfIdx(h), src, st.halfIdx(src))
}

// setIndirectIdx is setIndirect for callers that already hold the two
// half indexes (hi may be -1 for an unindexed key).
func (st *runState) setIndirectIdx(h Half, hi int32, src Half, srcIdx int32) {
	if old, ok := st.indirect[h]; ok {
		if old == src {
			return
		}
		st.hashSum -= entryHash(3, h, uint32(old.Addr))
	}
	st.hashSum += entryHash(3, h, uint32(src.Addr))
	st.indirect[h] = src
	if hi >= 0 {
		st.indirectSrc[hi] = srcIdx
	}
}

func (st *runState) unsetIndirect(h Half) {
	old, ok := st.indirect[h]
	if !ok {
		return
	}
	st.hashSum -= entryHash(3, h, uint32(old.Addr))
	delete(st.indirect, h)
	if hi := st.halfIdx(h); hi >= 0 {
		st.indirectSrc[hi] = -1
	}
}

// directScan returns the halves carrying direct inferences in halfCmp
// order — the iteration base of the §4.4.3/§4.4.4 resolutions and the
// remove step's full pass. The incremental engine reads the maintained
// index; with DisableIncremental the list is derived from the
// authoritative map on every call — a collection, sort, and allocation
// each time, which is exactly the cost profile of the pre-incremental
// engine the escape hatch preserves (and one of the costs the
// maintained index exists to remove).
func (st *runState) directScan() []int32 {
	if !st.cfg.DisableIncremental {
		return st.sortedDirectIdxs()
	}
	idxs := make([]int32, 0, len(st.direct))
	for h := range st.direct {
		idxs = append(idxs, st.halfIdx(h))
	}
	slices.Sort(idxs)
	return idxs
}

// sortedDirectIdxs returns the halves carrying direct inferences in
// halfCmp order. Removals since the last call are swept out (entries
// whose mirror went -1), then the pending additions — one sorted batch,
// because every committer appends in scan order and the next resolution
// stage drains before another batch starts — are merged in. A swept
// entry that was re-added in the same window survives via the merge
// dedup, never duplicated.
func (st *runState) sortedDirectIdxs() []int32 {
	if st.directStale {
		out := st.directIdxs[:0]
		for _, hi := range st.directIdxs {
			if st.dirConnID[hi] >= 0 {
				out = append(out, hi)
			}
		}
		st.directIdxs = out
		st.directStale = false
	}
	if len(st.directPending) > 0 {
		merged := st.directMerge[:0]
		a, b := st.directIdxs, st.directPending
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				merged = append(merged, a[i])
				i++
			case b[j] < a[i]:
				merged = append(merged, b[j])
				j++
			default:
				merged = append(merged, a[i])
				i++
				j++
			}
		}
		merged = append(merged, a[i:]...)
		merged = append(merged, b[j:]...)
		st.directMerge = st.directIdxs[:0]
		st.directIdxs = merged
		st.directPending = st.directPending[:0]
	}
	return st.directIdxs
}

// resetInferredOnce clears the once-per-add-step latch (§4.4.5); called
// at the top of every outer iteration.
func (st *runState) resetInferredOnce() {
	clear(st.inferredOnce)
}

// hasInferenceIdx is hasInference over the flat mirrors, for the loops
// that already hold a halfIdx.
func (st *runState) hasInferenceIdx(hi int32) bool {
	if st.dirConnID[hi] >= 0 {
		return true
	}
	src := st.indirectSrc[hi]
	return src >= 0 && st.dirConnID[src] >= 0
}

// recomputeOverride re-derives the committed override for h from its
// surviving inference records: its own direct inference, else the direct
// inference on its other side that made it indirect, else — under the
// WholeInterfaceUpdates ablation, whose commits mirror every direct
// update onto the opposite half — the direct inference on its opposite
// half. With no surviving source the override is cleared.
func (st *runState) recomputeOverride(h Half) {
	if d, ok := st.direct[h]; ok {
		st.setOverride(h, d.connected)
		return
	}
	if src, ok := st.indirect[h]; ok {
		if d, ok := st.direct[src]; ok {
			st.setOverride(h, d.connected)
			return
		}
	}
	if st.cfg.WholeInterfaceUpdates {
		if d, ok := st.direct[h.Opposite()]; ok {
			st.setOverride(h, d.connected)
			return
		}
	}
	st.clearOverride(h)
}

// discardDirect removes a direct inference and everything hanging off it:
// its IP2AS update, the indirect inference it induced on its other side
// (§4.4.2: "If the associated direct inference is discarded, the
// indirect inference is also discarded"), and — under the ablation that
// mirrors updates onto whole interfaces — the opposite half's mirrored
// override.
func (st *runState) discardDirect(h Half) {
	if _, ok := st.direct[h]; !ok {
		return
	}
	st.unsetDirect(h)
	st.recomputeOverride(h)
	if st.cfg.WholeInterfaceUpdates {
		st.recomputeOverride(h.Opposite())
	}
	if oh, ok := st.otherHalf(h); ok {
		if src, ok := st.indirect[oh]; ok && src == h {
			st.unsetIndirect(oh)
			st.recomputeOverride(oh)
		}
	}
}

// stateHash fingerprints the full inference state for the §4.6
// repeated-state stopping rule. The fingerprint is maintained by the
// mutation funnels (see hashSum), so reading it is free; the sum is
// order-independent, so serial and sharded runs — which commit in the
// same order anyway — and both fixpoint engines agree exactly.
func (st *runState) stateHash() uint64 {
	return st.hashSum
}

// stateHashRecompute rebuilds the fingerprint from the authoritative
// maps. Test hook: asserting it equals stateHash() after a run proves
// every mutation path kept hashSum in lockstep.
func (st *runState) stateHashRecompute() uint64 {
	var sum uint64
	for h, d := range st.direct {
		sum += entryHash(directTag(d.uncertain), h, uint32(d.connected))
	}
	for h, src := range st.indirect {
		sum += entryHash(3, h, uint32(src.Addr))
	}
	for h, asn := range st.overrides {
		sum += entryHash(4, h, uint32(asn))
	}
	return sum
}

// result builds the output snapshot from the current state.
func (st *runState) result() *Result {
	r := &Result{Diag: st.diag}
	out := make([]Inference, 0, len(st.direct)*2)
	indirectSeen := make(map[Half]bool)
	halves := make([]Half, 0, len(st.direct))
	for h := range st.direct {
		halves = append(halves, h)
	}
	slices.SortFunc(halves, halfCmp)
	for _, h := range halves {
		d := st.direct[h]
		ai := st.halfIdx(h) >> 1
		other, _ := st.otherAt(ai)
		inf := Inference{
			Addr:      h.Addr,
			Dir:       h.Dir,
			Local:     d.local,
			Connected: d.connected,
			OtherSide: other,
			Uncertain: d.uncertain,
			Stub:      d.stub,
		}
		out = append(out, inf)
		// The far side of the link is also an inter-AS link interface
		// connecting the same pair (§3.1, §4.4.2) — emit it as an
		// indirect record unless it carries its own direct inference.
		// Putative other sides that never appeared in any trace are
		// internal bookkeeping only: with the /30-vs-/31 heuristic
		// unconfirmed there is no observed interface to report.
		if oh, ok := st.otherHalf(h); ok && st.isObserved(oh.Addr) {
			if _, hasDirect := st.direct[oh]; !hasDirect && !indirectSeen[oh] && !st.idx.ixpA[ai] {
				indirectSeen[oh] = true
				out = append(out, Inference{
					Addr:      oh.Addr,
					Dir:       oh.Dir,
					Local:     d.connected,
					Connected: d.local,
					OtherSide: h.Addr,
					Uncertain: d.uncertain,
					Stub:      d.stub,
					Indirect:  true,
				})
			}
		}
	}
	slices.SortFunc(out, inferenceCmp)
	r.Inferences = out
	return r
}

// inferenceCmp is the output order of Result.Inferences: by half, the
// direct record before its indirect counterpart. Shared by result()
// and the partitioned engine's merge (component address sets are
// disjoint, so the order is total over any concatenation).
func inferenceCmp(a, b Inference) int {
	if c := halfCmp(Half{Addr: a.Addr, Dir: a.Dir}, Half{Addr: b.Addr, Dir: b.Dir}); c != 0 {
		return c
	}
	switch {
	case a.Indirect == b.Indirect:
		return 0
	case b.Indirect:
		return -1
	default:
		return 1
	}
}
