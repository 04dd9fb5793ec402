package meta

import (
	"fmt"
	"slices"

	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// Metamorphic property drivers. Each takes a prepared Pipeline, applies
// one input transformation, reruns the full inference, and returns an
// error describing the first divergence from the expected relation
// (nil = property holds).

// CheckTraceOrderInvariance: shuffling the trace order changes nothing —
// evidence collection builds sets and the engine is deterministic in
// the evidence.
func CheckTraceOrderInvariance(pl *Pipeline, seed int64) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	perm := trace.Permute(pl.Env.Dataset, seed)
	got, err := core.Run(perm.Sanitize(), pl.Config())
	if err != nil {
		return err
	}
	if err := EqualResults(base, got); err != nil {
		return fmt.Errorf("trace-order permutation (seed %d): %w", seed, err)
	}
	return nil
}

// CheckMonitorRelabelInvariance: monitor names never feed the
// algorithm, so renaming every vantage point changes nothing.
func CheckMonitorRelabelInvariance(pl *Pipeline) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	relabeled := trace.RelabelMonitors(pl.Env.Dataset, func(m string) string {
		return "renamed-" + m + "-vp"
	})
	got, err := core.Run(relabeled.Sanitize(), pl.Config())
	if err != nil {
		return err
	}
	if err := EqualResults(base, got); err != nil {
		return fmt.Errorf("monitor relabeling: %w", err)
	}
	return nil
}

// CheckDuplicateIdempotence: ingesting every trace n times changes
// nothing — adjacency evidence deduplicates. Sanitisation statistics DO
// scale with the duplication, so the comparison reruns the baseline
// evidence through the same path and compares inference output plus
// the evidence itself rather than Stats-bearing diagnostics.
func CheckDuplicateIdempotence(pl *Pipeline, n int) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	dup := trace.Duplicate(pl.Env.Dataset, n)
	s := dup.Sanitize()
	evBase := core.EvidenceFrom(pl.Env.Sanitized)
	evDup := core.EvidenceFrom(s)
	if !slices.Equal(evBase.Adjacencies, evDup.Adjacencies) {
		return fmt.Errorf("duplicate x%d: adjacency evidence diverges (%d vs %d)",
			n, len(evBase.Adjacencies), len(evDup.Adjacencies))
	}
	if len(evBase.AllAddrs) != len(evDup.AllAddrs) {
		return fmt.Errorf("duplicate x%d: address universe diverges (%d vs %d)",
			n, len(evBase.AllAddrs), len(evDup.AllAddrs))
	}
	got, err := core.Run(s, pl.Config())
	if err != nil {
		return err
	}
	if !slices.Equal(base.Inferences, got.Inferences) ||
		!slices.Equal(base.ProbeSuggestions, got.ProbeSuggestions) {
		return fmt.Errorf("duplicate x%d: inference output diverges", n)
	}
	return nil
}

// CheckSubsetEvidenceMonotone: a trace subset yields an evidence subset
// — every address and adjacency distilled from a subsample must appear
// in the full dataset's evidence. (Inference-level monotonicity does
// NOT hold — removing evidence can flip elections either way — which is
// precisely why the property is stated at the evidence layer.)
func CheckSubsetEvidenceMonotone(pl *Pipeline, stride int) error {
	full := core.EvidenceFrom(pl.Env.Sanitized)
	for offset := 0; offset < stride; offset++ {
		sub := trace.Subsample(pl.Env.Dataset, stride, offset)
		ev := core.EvidenceFrom(sub.Sanitize())
		for _, a := range ev.AllAddrs {
			if _, ok := slices.BinarySearch(full.AllAddrs, a); !ok {
				return fmt.Errorf("subset 1/%d+%d: address %v not in full evidence", stride, offset, a)
			}
		}
		i := 0
		for _, adj := range ev.Adjacencies {
			// Both lists are sorted: a linear merge proves containment.
			for i < len(full.Adjacencies) && full.Adjacencies[i] != adj {
				i++
			}
			if i == len(full.Adjacencies) {
				return fmt.Errorf("subset 1/%d+%d: adjacency %v not in full evidence",
					stride, offset, adj)
			}
			i++
		}
	}
	return nil
}

// CheckASNRenumbering: applying one order-preserving ASN bijection to
// every public input (BGP paths, siblings, relationships, IXP ASNs)
// renumbers the output through the same bijection and changes nothing
// else. Order preservation matters: the election tie-break and the
// intern order both compare ASN values.
func CheckASNRenumbering(pl *Pipeline, seed int64) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	w := pl.Env.World
	m := topo.MonotoneASNMap(w.AllASNs(), seed)
	cfg := pl.Config()
	cfg.IP2AS = bgp.NewTable(topo.RemapAnnouncements(w.Announcements, m))
	cfg.Orgs = topo.RemapOrgs(pl.Env.Orgs, m)
	cfg.Rels = topo.RemapRels(pl.Env.Rels, m)
	cfg.IXP = topo.RemapIXP(pl.Env.IXP, m)
	got, err := core.Run(pl.Env.Sanitized, cfg)
	if err != nil {
		return err
	}

	want := make([]core.Inference, len(base.Inferences))
	for i, inf := range base.Inferences {
		if v, ok := m[inf.Local]; ok {
			inf.Local = v
		}
		if v, ok := m[inf.Connected]; ok {
			inf.Connected = v
		}
		want[i] = inf
	}
	if !slices.Equal(want, got.Inferences) {
		return fmt.Errorf("ASN renumbering (seed %d): inferences diverge (first mismatch %s)",
			seed, firstInferenceDiff(want, got.Inferences))
	}
	wantSug := make([]core.ProbeSuggestion, len(base.ProbeSuggestions))
	for i, s := range base.ProbeSuggestions {
		if v, ok := m[s.LocalAS]; ok {
			s.LocalAS = v
		}
		if v, ok := m[s.NeighborAS]; ok {
			s.NeighborAS = v
		}
		wantSug[i] = s
	}
	if !slices.Equal(wantSug, got.ProbeSuggestions) {
		return fmt.Errorf("ASN renumbering (seed %d): probe suggestions diverge", seed)
	}
	if base.Diag != got.Diag {
		return fmt.Errorf("ASN renumbering (seed %d): diagnostics diverge:\n  base: %+v\n  got:  %+v",
			seed, base.Diag, got.Diag)
	}
	return nil
}
