package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mapit/internal/audit"
	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Component-partitioned parallel fixpoint (DESIGN.md §12).
//
// The §4.4–§4.6 add/remove loop only couples interface halves through
// two channels: the §4.3 neighbour sets (every election input and every
// reverse dependency follows a trace adjacency) and the §4.2 other-side
// pairing (InferOtherSide consults and returns only addresses inside
// the queried address's aligned four-address /30 block). Organisations
// and IXP membership pool *values* (ASNs, flags), never addresses, so
// they create no coupling between halves. Unioning addresses that (a)
// appear in one adjacency or (b) share an aligned /30 block therefore
// yields components that are provably closed under every read and
// write the fixpoint performs: each component can run its own add/
// remove loop on its own sub-evidence and the union of the final
// states is exactly the monolithic final state.
//
// The only global entanglement is the §4.6 stopping rule, which hashes
// the whole state. The per-entry fingerprints are value-space (halves,
// ASNs, addresses — never intern ids), so the monolithic fingerprint
// is the sum of the component fingerprints; the driver replays the
// monolithic rule over the recorded per-component hash traces to find
// the global stop iteration T, then reconstructs the monolithic
// diagnostics from per-iteration deltas (see mergeDiagnostics).

// PartitionInfo describes the component decomposition of a run.
// Attached to Result.Partition; excluded from differential comparison
// (it describes the schedule, not the inference).
type PartitionInfo struct {
	// Components is the number of closed inference components the
	// evidence split into (0 when the decomposition was skipped; see
	// Fallback).
	Components int
	// Sizes is the per-component observed-address count in execution
	// priority order (largest first).
	Sizes []int
	// Iterations is the per-component executed iteration count, aligned
	// with Sizes. Components stop at their own settle point, so entries
	// differ from the global Diagnostics.Iterations.
	Iterations []int
	// GiantShare is the fraction of observed addresses in the largest
	// component.
	GiantShare float64
	// SizeHistogram buckets components by size: entry k counts
	// components with 2^k ≤ observed addresses < 2^(k+1).
	SizeHistogram []int
	// Replays counts components re-executed from scratch to align with
	// the global stopping rule — reachable only through a hash-sum
	// collision or a cycling (never-settling) component.
	Replays int
	// Fallback names why the monolithic engine ran instead: "" when the
	// partitioned scheduler ran, "stage-hooks" when Config.OnStage
	// forced global snapshots, "single-component" when the evidence did
	// not decompose. (A DisablePartition run carries no PartitionInfo.)
	Fallback string
}

// unionFind is a classic weighted union-find with path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// partitionEvidence splits a run's input into closed inference
// components: addresses are unioned along every trace adjacency (the
// §4.3 channel) and across every shared aligned /30 block (the §4.2
// channel — InferOtherSide never consults or returns an address
// outside the queried block, so same-block union also captures two
// observed addresses claiming one unobserved other side). The node
// universe is the observed set plus any adjacency endpoint, so
// caller-built Evidence with endpoints outside AllAddrs still
// partitions soundly.
//
// Everything runs over slice indexes of the sorted node universe:
// endpoints resolve by binary search, and each component's input is a
// capacity-clipped window into one flat address array and one flat
// adjacency array, laid out in scheduling order. Returns one input per
// component in that order: observed-address count descending, minimum
// address ascending on ties. Component addresses stay ascending and
// component adjacencies keep the global order, so every per-component
// derived structure is the restriction of its global counterpart.
// Returns nil when the input is fewer than two components — the caller
// falls back to the monolithic engine, so no sub-input is materialised.
func partitionEvidence(in runInput) []runInput {
	// Endpoint node indexes, two per adjacency. In the common case every
	// endpoint is observed and the observed slice is the node universe;
	// otherwise the outside endpoints are merged in and the search is
	// redone over the widened universe.
	nodes := in.addrs
	ends := make([]int32, 2*len(in.adjs))
	var outside []inet.Addr
	var outsider []bool // by node; nil when every node is observed
	for k := range ends {
		a := adjEnd(in.adjs, k)
		i, ok := slices.BinarySearch(nodes, a)
		if !ok {
			outside = append(outside, a)
		}
		ends[k] = int32(i)
	}
	if outside != nil {
		slices.Sort(outside)
		outside = slices.Compact(outside)
		nodes = append(slices.Clone(in.addrs), outside...)
		slices.Sort(nodes)
		for k := range ends {
			i, _ := slices.BinarySearch(nodes, adjEnd(in.adjs, k))
			ends[k] = int32(i)
		}
		outsider = make([]bool, len(nodes))
		for _, a := range outside {
			i, _ := slices.BinarySearch(nodes, a)
			outsider[i] = true
		}
	}

	uf := newUnionFind(len(nodes))
	// §4.2 closure: all universe addresses in one aligned /30 block.
	// Consecutive entries of the sorted slice suffice — block members
	// are adjacent in address order.
	for i := 1; i < len(nodes); i++ {
		if nodes[i]>>2 == nodes[i-1]>>2 {
			uf.union(int32(i-1), int32(i))
		}
	}
	// §4.3 closure: both endpoints of every adjacency.
	for k := 0; k < len(ends); k += 2 {
		uf.union(ends[k], ends[k+1])
	}

	// Dense component ids, assigned in sorted-node order so component 0
	// holds the smallest root address (deterministic regardless of the
	// union order above). compOf first maps each root to its id.
	compOf := make([]int32, len(nodes))
	for i := range compOf {
		compOf[i] = -1
	}
	nComp := int32(0)
	for i := range nodes {
		r := uf.find(int32(i))
		if compOf[r] < 0 {
			compOf[r] = nComp
			nComp++
		}
		compOf[i] = compOf[r]
	}
	// The common adversarial shape — one giant connected component —
	// exits here, before any sub-input is materialised: a fallback run
	// pays only the union-find sweep, never an evidence copy.
	if nComp < 2 {
		return nil
	}

	// Observed-address and adjacency counts per component. A node is
	// observed unless it came from outside.
	observed := func(i int) bool { return outsider == nil || !outsider[i] }
	addrCount := make([]int32, nComp)
	adjCount := make([]int32, nComp)
	for i := range nodes {
		if observed(i) {
			addrCount[compOf[i]]++
		}
	}
	for k := 0; k < len(ends); k += 2 {
		adjCount[compOf[ends[k]]]++ // == compOf of Second: they are unioned
	}

	// Scheduling order: largest observed-address count first, minimum
	// address breaking ties. Component ids were assigned in ascending
	// min-address order, so a stable sort on size alone is exactly that
	// tie-break.
	order := make([]int32, nComp)
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(addrCount[b], addrCount[a])
	})

	// Carve the flat arrays in scheduling order, then scatter: nodes
	// ascend and adjacencies keep their order, so each window fills in
	// the order its restriction requires.
	addrFlat := make([]inet.Addr, len(in.addrs))
	adjFlat := make([]trace.Adjacency, len(in.adjs))
	comps := make([]runInput, nComp)
	addrAt := make([]int32, nComp) // next free slot per component
	adjAt := make([]int32, nComp)
	var ao, jo int32
	for rank, c := range order {
		comps[rank] = runInput{
			addrs: addrFlat[ao : ao+addrCount[c] : ao+addrCount[c]],
			adjs:  adjFlat[jo : jo+adjCount[c] : jo+adjCount[c]],
		}
		addrAt[c], adjAt[c] = ao, jo
		ao += addrCount[c]
		jo += adjCount[c]
	}
	for i, a := range nodes {
		if observed(i) {
			c := compOf[i]
			addrFlat[addrAt[c]] = a
			addrAt[c]++
		}
	}
	for k, adj := range in.adjs {
		c := compOf[ends[2*k]]
		adjFlat[adjAt[c]] = adj
		adjAt[c]++
	}
	return comps
}

// adjEnd returns endpoint k of adjs: k = 2i is adjacency i's First,
// k = 2i+1 its Second.
func adjEnd(adjs []trace.Adjacency, k int) inet.Addr {
	if k&1 == 0 {
		return adjs[k>>1].First
	}
	return adjs[k>>1].Second
}

// iterRec records the externally observable deltas of one component
// iteration: the post-iteration state fingerprint plus every
// pass-count and resolution-counter delta mergeDiagnostics needs to
// reconstruct the monolithic diagnostics.
type iterRec struct {
	hash                    uint64
	addPasses, removePasses int
	// quietDual is the DualSameAS delta of the iteration's final
	// (quiet) add pass — the component's stable same-organisation dual
	// count, which the monolithic run re-counts once per global add
	// pass even after this component stops changing.
	quietDual                         int
	dualSame, dualResolved, divergent int
	inverse, uncertain, demoted       int
}

// compRun is one component's execution.
type compRun struct {
	in      runInput
	cfg     Config
	st      *runState
	hash0   uint64
	recs    []iterRec
	settled bool
	// preStub / wantAtT support the partition-hash audit invariant:
	// the component fingerprint before the stub phase, and the traced
	// fingerprint at the global stop iteration it must equal.
	preStub  uint64
	wantAtT  uint64
	replayed bool
}

// fixpointTraced runs the component's own add/remove loop, recording
// one iterRec per iteration, until the component settles, MaxIterations
// is reached, or — under SinglePass — after the single add step. The
// settle test is the one-step case of the monolithic §4.6 rule: when an
// iteration's post-state fingerprint equals its pre-state fingerprint,
// the state did not move, and since an iteration is a deterministic
// function of the state it starts from, every subsequent iteration
// repeats the last one verbatim — covering both the plain no-op (one
// quiet add pass, one quiet remove pass) and the busy period-1 cycle
// where the add step keeps installing an inference the remove step
// keeps taking back. Longer cycles (state repeats a non-adjacent
// predecessor) do not settle; they run to the cap and are aligned by
// replay if the global stop lands mid-cycle.
func (st *runState) fixpointTraced() (hash0 uint64, recs []iterRec, settled bool) {
	cfg := st.cfg
	hash0 = st.stateHash()
	prev := hash0
	for iter := 1; iter <= cfg.maxIterations(); iter++ {
		st.diag.Iterations = iter
		before := st.diag
		st.resetInferredOnce()
		st.addStep(false)
		st.auditCheckpoint(auditStageAdd, iter)
		if !cfg.SinglePass {
			st.removeStep()
			st.auditCheckpoint(auditStageRemove, iter)
		}
		rec := iterRec{
			hash:         st.stateHash(),
			addPasses:    st.diag.AddPasses - before.AddPasses,
			removePasses: st.diag.RemovePasses - before.RemovePasses,
			quietDual:    st.lastPassDual,
			dualSame:     st.diag.DualSameAS - before.DualSameAS,
			dualResolved: st.diag.DualResolved - before.DualResolved,
			divergent:    st.diag.DivergentOtherSides - before.DivergentOtherSides,
			inverse:      st.diag.InverseDiscarded - before.InverseDiscarded,
			uncertain:    st.diag.UncertainPairs - before.UncertainPairs,
			demoted:      st.diag.Demoted - before.Demoted,
		}
		recs = append(recs, rec)
		if cfg.SinglePass {
			return hash0, recs, true
		}
		if rec.hash == prev {
			return hash0, recs, true
		}
		prev = rec.hash
	}
	return hash0, recs, false
}

// hashAt returns the component fingerprint after k global iterations:
// the recorded hash while the component was active, the (constant)
// settle-point hash afterwards.
func (c *compRun) hashAt(k int) uint64 {
	switch {
	case k <= 0:
		return c.hash0
	case k <= len(c.recs):
		return c.recs[k-1].hash
	default:
		return c.recs[len(c.recs)-1].hash
	}
}

// recAt returns the component's iteration-k record. Past the settle
// point the last iteration repeats verbatim (settling means the state
// stopped moving, and an iteration is a deterministic function of its
// start state), so the extension record is simply the last one: for a
// plain no-op that is one quiet add pass whose dual count equals
// quietDual; for a busy period-1 cycle it is the full recurring
// mutation-and-revert iteration.
func (c *compRun) recAt(k int) iterRec {
	if k <= len(c.recs) {
		return c.recs[k-1]
	}
	return c.recs[len(c.recs)-1]
}

// stateAligned reports whether the component's current state is the
// state after T global iterations: settled components froze at their
// settle point (their state covers every T from one before it), capped
// or cycling components are only aligned if T is exactly where they
// stopped.
func (c *compRun) stateAligned(T int) bool {
	if c.settled {
		return T >= len(c.recs)-1
	}
	return T == len(c.recs)
}

// alignIterations replays the monolithic §4.6 stopping rule over the
// component hash traces: the global fingerprint after k iterations is
// the sum of the component fingerprints (entry hashes are value-space
// and the components' entry sets are disjoint), so the monolithic run
// would stop at the first k whose sum repeats a previous sum.
func alignIterations(runs []*compRun, maxIter int) int {
	seen := make(map[uint64]struct{}, maxIter+1)
	var s uint64
	for _, c := range runs {
		s += c.hash0
	}
	seen[s] = struct{}{}
	for k := 1; k <= maxIter; k++ {
		s = 0
		for _, c := range runs {
			s += c.hashAt(k)
		}
		if _, repeated := seen[s]; repeated {
			return k
		}
		seen[s] = struct{}{}
	}
	return maxIter
}

// replayComponent re-executes a component from scratch for exactly T
// iterations. Only needed when the global stop iteration T falls
// before the component's recorded trajectory covers it — a hash-sum
// collision or a cycling component — so this path is pathological, not
// a steady-state cost. The replayed state carries the component's
// audit report (it audited the execution that produced the output).
func replayComponent(c *compRun, T int) {
	st := newRunState(&c.cfg, c.in)
	for iter := 1; iter <= T; iter++ {
		st.diag.Iterations = iter
		st.resetInferredOnce()
		st.addStep(false)
		st.auditCheckpoint(auditStageAdd, iter)
		if c.cfg.SinglePass {
			break
		}
		st.removeStep()
		st.auditCheckpoint(auditStageRemove, iter)
	}
	c.st = st
	c.replayed = true
}

// mergeDiagnostics reconstructs the monolithic diagnostics from the
// component traces. Build-time counters are plain sums over disjoint
// address sets. Loop counters follow from how a monolithic iteration k
// interleaves the components: its add step runs max_i a_i(k) passes
// (a settled or early-converged component simply has an empty dirty
// set for the surplus passes), its remove step max_i r_i(k) passes,
// and every resolution counter is a sum of per-component deltas —
// except DualSameAS, which re-counts each component's stable
// same-organisation duals once per surplus global pass (the rule
// counts retained duals every pass, changed or not), hence the
// quietDual top-up.
func mergeDiagnostics(runs []*compRun, T int, totalAddrs int) Diagnostics {
	var d Diagnostics
	n31 := 0
	for _, c := range runs {
		d.Interfaces += c.st.diag.Interfaces
		d.EligibleForward += c.st.diag.EligibleForward
		d.EligibleBackward += c.st.diag.EligibleBackward
		d.BothNsOverlap += c.st.diag.BothNsOverlap
		n31 += c.st.n31
	}
	if totalAddrs > 0 {
		d.Slash31Fraction = float64(n31) / float64(totalAddrs)
	}
	d.Iterations = T
	for k := 1; k <= T; k++ {
		maxA, maxR := 0, 0
		for _, c := range runs {
			r := c.recAt(k)
			maxA = max(maxA, r.addPasses)
			maxR = max(maxR, r.removePasses)
		}
		d.AddPasses += maxA
		d.RemovePasses += maxR
		for _, c := range runs {
			r := c.recAt(k)
			d.DualSameAS += r.dualSame + (maxA-r.addPasses)*r.quietDual
			d.DualResolved += r.dualResolved
			d.DivergentOtherSides += r.divergent
			d.InverseDiscarded += r.inverse
			d.UncertainPairs += r.uncertain
			d.Demoted += r.demoted
		}
	}
	return d
}

// forEachComponent drains [0, n) across a pool of worker goroutines
// pulling from a shared atomic queue: the next idle worker takes the
// next component, so islands backfill while large components are still
// running. Indexes are handed out in order, which with the largest-
// first component ordering is the scheduling policy of DESIGN.md §12.
func forEachComponent(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runPartitioned executes the component-partitioned engine over the
// evidence. It returns (nil, info) when the run must fall back to the
// monolithic engine: partitioning disabled, stage hooks requested
// (snapshots are defined on the global interleaving), or fewer than
// two components. Outputs are byte-identical to the monolithic engine
// for every worker count.
func runPartitioned(cfg *Config, in runInput) (*Result, *PartitionInfo) {
	if cfg.DisablePartition {
		return nil, nil
	}
	if cfg.OnStage != nil {
		return nil, &PartitionInfo{Fallback: "stage-hooks"}
	}

	ctx := context.Background()
	var comps []runInput
	pprof.Do(ctx, pprof.Labels("mapit_phase", "partition"), func(context.Context) {
		comps = partitionEvidence(in)
	})
	if comps == nil {
		info := &PartitionInfo{Fallback: "single-component"}
		if n := len(in.addrs); n > 0 {
			info.Components = 1
			info.Sizes = []int{n}
			info.GiantShare = 1
		}
		return nil, info
	}

	// Execute every component to its own stopping rule. The largest
	// component keeps the configured worker count for its internal
	// parallelChunks fan-out (it dominates the wall clock); islands run
	// their scans serially and instead fill the scheduler's workers.
	runs := make([]*compRun, len(comps))
	var (
		T       int
		replays int
		results []*Result
		probes  [][]ProbeSuggestion
	)
	pprof.Do(ctx, pprof.Labels("mapit_phase", "fixpoint"), func(context.Context) {
		forEachComponent(cfg.workers(), len(comps), func(i int) {
			c := &compRun{in: comps[i], cfg: *cfg}
			if i > 0 {
				c.cfg.Workers = 1
			}
			c.st = newRunState(&c.cfg, c.in)
			c.hash0, c.recs, c.settled = c.st.fixpointTraced()
			runs[i] = c
		})

		// Align with the global stopping rule, replaying the (in
		// practice nonexistent) components whose state ran past it.
		T = 1
		if !cfg.SinglePass {
			T = alignIterations(runs, cfg.maxIterations())
		}
		for _, c := range runs {
			c.wantAtT = c.hashAt(T)
			if !c.stateAligned(T) {
				replayComponent(c, T)
				replays++
			}
			c.preStub = c.st.stateHash()
		}

		// §4.8 stub heuristic and per-component output, overlapped the
		// same way as the main loop.
		results = make([]*Result, len(runs))
		probes = make([][]ProbeSuggestion, len(runs))
		forEachComponent(cfg.workers(), len(runs), func(i int) {
			st := runs[i].st
			st.stubHeuristic()
			st.auditCheckpoint(auditStageFinal, 0)
			results[i] = st.result()
			probes[i] = st.suggestProbes()
		})
	})

	r := &Result{}
	pprof.Do(ctx, pprof.Labels("mapit_phase", "merge"), func(context.Context) {
		mergeResults(cfg, in, runs, results, probes, r, T)
	})
	r.Partition = partitionInfo(len(in.addrs), runs, replays)
	return r, nil
}

// mergeResults combines the per-component outputs into the monolithic
// Result: concatenate and re-sort the disjoint inference and probe
// lists with the engine's own comparators (addresses are disjoint
// across components, so the order is total and deterministic),
// reconstruct the diagnostics, and merge the audit reports.
func mergeResults(cfg *Config, in runInput, runs []*compRun,
	results []*Result, probes [][]ProbeSuggestion, r *Result, T int) {
	total, ptotal := 0, 0
	for i := range results {
		total += len(results[i].Inferences)
		ptotal += len(probes[i])
	}
	r.Inferences = make([]Inference, 0, total)
	for _, res := range results {
		r.Inferences = append(r.Inferences, res.Inferences...)
	}
	slices.SortFunc(r.Inferences, inferenceCmp)
	if ptotal > 0 {
		r.ProbeSuggestions = make([]ProbeSuggestion, 0, ptotal)
		for _, p := range probes {
			r.ProbeSuggestions = append(r.ProbeSuggestions, p...)
		}
		slices.SortFunc(r.ProbeSuggestions, probeCmp)
	}
	r.Diag = mergeDiagnostics(runs, T, len(in.addrs))
	for _, c := range runs {
		r.Diag.StubInferences += c.st.diag.StubInferences
	}
	if cfg.Audit.Enabled() {
		rep := audit.NewReport(cfg.Audit.Mode)
		pa := newRunAuditor(cfg.Audit)
		auditPartitionInvariants(pa, in, runs)
		for _, c := range runs {
			rep.Merge(c.st.auditor.report, cfg.Audit.Cap())
		}
		rep.Merge(pa.report, cfg.Audit.Cap())
		rep.Sort()
		r.Audit = rep
		r.Diag.AuditViolations = rep.Total()
	}
}

// partitionInfo assembles the decomposition observability record.
func partitionInfo(total int, runs []*compRun, replays int) *PartitionInfo {
	info := &PartitionInfo{Components: len(runs), Replays: replays}
	for _, c := range runs {
		sz := len(c.in.addrs)
		info.Sizes = append(info.Sizes, sz)
		info.Iterations = append(info.Iterations, len(c.recs))
		bucket := bits.Len(uint(sz)) // size 0 → bucket 0
		if bucket > 0 {
			bucket--
		}
		for len(info.SizeHistogram) <= bucket {
			info.SizeHistogram = append(info.SizeHistogram, 0)
		}
		info.SizeHistogram[bucket]++
	}
	if total > 0 {
		info.GiantShare = float64(info.Sizes[0]) / float64(total)
	}
	return info
}

// String renders the one-line schedule summary mapit -stats prints.
func (p *PartitionInfo) String() string {
	if p == nil {
		return "off"
	}
	if p.Fallback != "" {
		return "fallback=" + p.Fallback
	}
	var b strings.Builder
	fmt.Fprintf(&b, "components=%d giant_share=%.3f replays=%d iterations=%v size_hist=[",
		p.Components, p.GiantShare, p.Replays, p.Iterations)
	for k, n := range p.SizeHistogram {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "2^%d:%d", k, n)
	}
	b.WriteByte(']')
	return b.String()
}
