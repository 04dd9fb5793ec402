package core

import (
	"reflect"
	"slices"
	"testing"

	"mapit/internal/as2org"
	"mapit/internal/inet"
	"mapit/internal/relation"
	"mapit/internal/topo"
)

func TestProbeSuggestions(t *testing.T) {
	ip2as := table(
		"20.100.0.0/16=100",
		"20.105.0.0/16=600", // ISP with a customer
	)
	rels := relation.New()
	rels.AddTransit(600, 700)
	// A single-neighbour boundary toward an ISP: blocked for the stub
	// heuristic (§4.8 requires a stub), so it becomes a suggestion —
	// exactly the §5.4 case ("we do not trust a single address
	// belonging to an ISP").
	s := sanitized(
		tr("20.100.2.1", "20.105.0.1"),
	)
	r, err := Run(s, Config{IP2AS: ip2as, F: 0.5, Rels: rels})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HighConfidence()) != 0 {
		t.Fatalf("unexpected inferences: %v", r.HighConfidence())
	}
	var found bool
	for _, sug := range r.ProbeSuggestions {
		if sug.Addr == ip("20.100.2.1") && sug.Dir == Forward {
			found = true
			if sug.Neighbor != ip("20.105.0.1") || sug.LocalAS != 100 || sug.NeighborAS != 600 {
				t.Errorf("suggestion = %+v", sug)
			}
		}
	}
	if !found {
		t.Fatalf("missing suggestion; got %v", r.ProbeSuggestions)
	}
}

func TestProbeSuggestionsSkipInferred(t *testing.T) {
	ip2as := table(
		"20.100.0.0/16=100",
		"20.104.0.0/16=500",
	)
	rels := relation.New()
	rels.AddTransit(100, 500) // 500 is a stub: the heuristic fires
	s := sanitized(
		tr("20.100.1.1", "20.104.0.1"),
	)
	r, err := Run(s, Config{IP2AS: ip2as, F: 0.5, Rels: rels})
	if err != nil {
		t.Fatal(err)
	}
	if r.Diag.StubInferences != 1 {
		t.Fatal("stub inference expected")
	}
	for _, sug := range r.ProbeSuggestions {
		if sug.Addr == ip("20.100.1.1") {
			t.Errorf("inferred boundary still suggested: %+v", sug)
		}
	}
}

func TestProbeSuggestionsSkipSameOrg(t *testing.T) {
	ip2as := table(
		"20.100.0.0/16=100",
		"20.101.0.0/16=100", // same AS both sides
	)
	s := sanitized(tr("20.100.2.1", "20.101.0.1"))
	r, err := Run(s, Config{IP2AS: ip2as, F: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ProbeSuggestions) != 0 {
		t.Errorf("same-org adjacency suggested: %v", r.ProbeSuggestions)
	}
}

// suggestProbesRef is the map-based scan suggestProbes replaced, kept
// as its reference: inference presence through the Half-keyed maps
// (hasInference), committed mappings through mapping(), organisations
// through cfg.Orgs, and IXP flags resolved from the configured sources.
func suggestProbesRef(st *runState) []ProbeSuggestion {
	isIXP := func(a inet.Addr) bool {
		asn, _ := st.cfg.IP2AS.Lookup(a)
		return st.cfg.IXP.IsIXPAddr(a) || st.cfg.IXP.IsIXPASN(asn)
	}
	var out []ProbeSuggestion
	for _, a := range st.addrs {
		if isIXP(a) {
			continue
		}
		for _, dir := range [2]Direction{Forward, Backward} {
			h := Half{Addr: a, Dir: dir}
			nbrs := st.neighbors(h)
			if len(nbrs) != 1 {
				continue
			}
			if st.hasInference(h) || st.hasInference(h.Opposite()) {
				continue
			}
			n := nbrs[0]
			if isIXP(n) {
				continue
			}
			nh := Half{Addr: n, Dir: dir.Opposite()}
			localAS := st.mapping(h)
			nbrAS := st.mapping(nh)
			if localAS.IsZero() || nbrAS.IsZero() {
				continue
			}
			if st.cfg.Orgs.SameOrg(localAS, nbrAS) {
				continue
			}
			if st.hasInference(nh) {
				continue
			}
			out = append(out, ProbeSuggestion{
				Addr: a, Dir: dir, Neighbor: n,
				LocalAS: localAS, NeighborAS: nbrAS,
			})
		}
	}
	slices.SortFunc(out, probeCmp)
	return out
}

// TestSuggestProbesMatchesMapReference compares the flat suggestProbes
// with the map-based reference after full runs on generator worlds,
// across the configurations that change what it reads: no organisation
// data, sibling organisations spanning suggested boundaries (distinct
// ASNs, one organisation), an IXP directory, updates mirrored onto
// whole interfaces, and no stub heuristic (which leaves more
// single-neighbour halves uninferred).
func TestSuggestProbesMatchesMapReference(t *testing.T) {
	run := func(cfg Config, ev *Evidence) *runState {
		cfg.freeze()
		st := newRunState(&cfg, inputOf(ev))
		st.fixpoint()
		return st
	}
	total := 0
	for _, seed := range []int64{1, 2} {
		gen := topo.SmallGenConfig()
		gen.Seed = seed
		w := topo.Generate(gen)
		tc := topo.DefaultTraceConfig()
		tc.Seed = seed + 50
		tc.DestsPerMonitor = 150
		ev := EvidenceFrom(w.GenTraces(tc).Sanitize())
		orgs, rels, dir := w.PublicInputs(topo.DefaultNoiseConfig())
		base := Config{IP2AS: w.Table(), Orgs: orgs, Rels: rels, IXP: dir, F: 0.5, Workers: 2}
		siblings := as2org.New()
		for i, sug := range run(base, ev).suggestProbes() {
			if i%2 == 0 {
				siblings.AddSiblingPair(sug.LocalAS, sug.NeighborAS)
			}
		}
		variants := []struct {
			name string
			mut  func(*Config)
		}{
			{"default", func(*Config) {}},
			{"orgs-nil", func(c *Config) { c.Orgs = nil }},
			{"sibling-boundaries", func(c *Config) { c.Orgs = siblings }},
			{"no-ixp", func(c *Config) { c.IXP = nil }},
			{"whole-iface", func(c *Config) { c.WholeInterfaceUpdates = true }},
			{"no-stub", func(c *Config) { c.DisableStubHeuristic = true }},
			{"no-stub-no-rm", func(c *Config) { c.DisableStubHeuristic, c.DisableRemoveStep = true, true }},
		}
		for _, v := range variants {
			cfg := base
			v.mut(&cfg)
			st := run(cfg, ev)
			got, want := st.suggestProbes(), suggestProbesRef(st)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: flat scan gives %d suggestions, map reference %d",
					seed, v.name, len(got), len(want))
			}
			total += len(want)
		}
	}
	if total == 0 {
		t.Fatal("no world produced a probe suggestion: the comparison is vacuous")
	}
}
