package meta

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"

	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/trace"
)

// Differential oracles: independent implementations of one pipeline
// stage fed identical input, whose downstream Results must be
// byte-identical. Each returns nil when the implementations agree.

// equalEvidence compares two evidence distillations field by field.
func equalEvidence(label string, a, b *core.Evidence) error {
	if len(a.AllAddrs) != len(b.AllAddrs) {
		return fmt.Errorf("%s: address universes diverge (%d vs %d)",
			label, len(a.AllAddrs), len(b.AllAddrs))
	}
	if !slices.Equal(a.AllAddrs, b.AllAddrs) {
		return fmt.Errorf("%s: address universes diverge in content or order", label)
	}
	if !slices.Equal(a.Adjacencies, b.Adjacencies) {
		return fmt.Errorf("%s: adjacencies diverge (%d vs %d)",
			label, len(a.Adjacencies), len(b.Adjacencies))
	}
	return nil
}

// DiffIngest runs the three ingest paths — streaming serial collector,
// parallel collector, and batch sanitise-then-distil — over the
// same raw traces and requires identical evidence and identical
// downstream Results.
func DiffIngest(pl *Pipeline) error {
	d := pl.Env.Dataset

	serial := core.NewCollector()
	for _, tr := range d.Traces {
		serial.Add(tr)
	}
	evSerial := serial.Evidence()

	par := core.NewParallelCollector(8)
	for _, tr := range d.Traces {
		par.Add(tr)
	}
	evPar := par.Evidence()

	evBatch := core.EvidenceFrom(d.SanitizeParallel(4))

	if err := equalEvidence("serial vs parallel collector", evSerial, evPar); err != nil {
		return err
	}
	if err := equalEvidence("collector vs batch sanitise", evSerial, evBatch); err != nil {
		return err
	}

	cfg := pl.Config()
	rs, err := core.RunEvidence(evSerial, cfg)
	if err != nil {
		return err
	}
	rp, err := core.RunEvidence(evPar, cfg)
	if err != nil {
		return err
	}
	rb, err := core.RunEvidence(evBatch, cfg)
	if err != nil {
		return err
	}
	if err := EqualResults(rs, rp); err != nil {
		return fmt.Errorf("serial vs parallel collector: %w", err)
	}
	if err := EqualResults(rs, rb); err != nil {
		return fmt.Errorf("collector vs batch sanitise: %w", err)
	}
	return nil
}

// DiffSpill runs the out-of-core ingest against the in-memory reference
// over the same raw traces: every (budget, run-granularity, workers)
// configuration — drawn from a seeded rng so the matrix wanders across
// runs of the harness — must reproduce the in-memory evidence exactly,
// and the downstream Results must be byte-identical. The most
// aggressive configuration is additionally required to have actually
// spilled, so the oracle cannot pass vacuously through the in-memory
// fast path.
func DiffSpill(pl *Pipeline) error {
	d := pl.Env.Dataset

	mem := core.NewCollector()
	for _, tr := range d.Traces {
		mem.Add(tr)
	}
	evMem := mem.Evidence()
	base, err := core.RunEvidence(evMem, pl.Config())
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "mapit-diffspill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(pl.Seed ^ 0x5b1ca7))
	configs := []struct {
		label     string
		spill     core.SpillConfig
		mustSpill bool
	}{
		{"budget=1B", core.SpillConfig{Dir: dir, MemBudget: 1}, true},
		{"random-run-entries", core.SpillConfig{Dir: dir, RunEntries: 1 + rng.Intn(64)}, true},
		{"random-budget", core.SpillConfig{Dir: dir, MemBudget: 1 << (10 + rng.Intn(11))}, false},
	}
	workerCounts := []int{0, 1, 2 + rng.Intn(6)} // 0 = serial collector

	for _, tc := range configs {
		for _, workers := range workerCounts {
			label := fmt.Sprintf("spill %s workers=%d", tc.label, workers)
			var (
				add    func(trace.Trace)
				finish func() (*core.Evidence, error)
				stats  func() core.SpillStats
				close  func() error
			)
			if workers == 0 {
				c := core.NewCollectorSpill(tc.spill)
				add = func(t trace.Trace) { c.Add(t) }
				finish, stats, close = c.Finish, c.SpillStats, c.Close
			} else {
				c := core.NewParallelCollectorSpill(workers, tc.spill)
				add = func(t trace.Trace) { c.Add(t) }
				finish, stats, close = c.Finish, c.SpillStats, c.Close
			}
			for _, tr := range d.Traces {
				add(tr)
			}
			ev, err := finish()
			if err != nil {
				close()
				return fmt.Errorf("%s: %w", label, err)
			}
			if tc.mustSpill && stats().SpilledEntries == 0 {
				close()
				return fmt.Errorf("%s: configuration spilled nothing — oracle is vacuous", label)
			}
			if err := equalEvidence(label, evMem, ev); err != nil {
				close()
				return err
			}
			r, err := core.RunEvidence(ev, pl.Config())
			if err != nil {
				close()
				return err
			}
			if err := close(); err != nil {
				return fmt.Errorf("%s: close: %w", label, err)
			}
			if err := EqualResults(base, r); err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
		}
	}
	return nil
}

// DiffIncremental runs the incremental dirty-set engine against the
// full-rescan engine (DisableIncremental) and requires identical
// Results — the dirty set changes what is scanned, never what is
// inferred.
func DiffIncremental(pl *Pipeline) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	cfg := pl.Config()
	cfg.DisableIncremental = true
	full, err := core.Run(pl.Env.Sanitized, cfg)
	if err != nil {
		return err
	}
	if err := EqualResults(base, full); err != nil {
		return fmt.Errorf("incremental vs full rescan: %w", err)
	}
	return nil
}

// DiffPartition runs the component-partitioned fixpoint against the
// monolithic engine (DisablePartition) across worker counts (serial,
// two, NumCPU) and requires identical Results — partitioning changes
// the schedule, never the inference. The pipeline's own world is
// usually one connected component (an immediate fallback), so the
// oracle additionally drives a merged multi-island corpus (see
// IslandCorpus) and requires that the partitioned runs actually
// decomposed it into at least as many components as islands, keeping
// the check non-vacuous.
func DiffPartition(pl *Pipeline) error {
	base, err := pl.Baseline()
	if err != nil {
		return err
	}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, w := range workerCounts {
		for _, disable := range []bool{false, true} {
			cfg := pl.Config()
			cfg.Workers = w
			cfg.DisablePartition = disable
			r, err := core.Run(pl.Env.Sanitized, cfg)
			if err != nil {
				return err
			}
			if err := EqualResults(base, r); err != nil {
				return fmt.Errorf("partitioned=%v workers=%d vs baseline: %w", !disable, w, err)
			}
		}
	}

	const islands = 3
	ds, icfg := IslandCorpus(pl.Seed, islands)
	s := ds.Sanitize()
	var iBase *core.Result
	for _, w := range workerCounts {
		for _, disable := range []bool{false, true} {
			cfg := icfg
			cfg.Workers = w
			cfg.DisablePartition = disable
			r, err := core.Run(s, cfg)
			if err != nil {
				return err
			}
			if !disable {
				switch {
				case r.Partition == nil || r.Partition.Fallback != "":
					return fmt.Errorf("islands workers=%d: partitioned run fell back (%s) — oracle is vacuous",
						w, r.Partition.String())
				case r.Partition.Components < islands:
					return fmt.Errorf("islands workers=%d: %d components for %d islands — oracle is vacuous",
						w, r.Partition.Components, islands)
				}
			}
			if iBase == nil {
				iBase = r
			} else if err := EqualResults(iBase, r); err != nil {
				return fmt.Errorf("islands partitioned=%v workers=%d: %w", !disable, w, err)
			}
		}
	}
	return nil
}

// noFreeze hides the Freeze method of a bgp.Table so the engine cannot
// compile it: every lookup goes through the binary trie instead of the
// flat multibit form.
type noFreeze struct {
	t *bgp.Table
}

func (n noFreeze) Lookup(a inet.Addr) (inet.ASN, bool) { return n.t.Lookup(a) }

// DiffLPM answers every IP→AS resolution through the uncompiled binary
// trie and through the compiled multibit engine, and requires identical
// Results. Fresh tables are built from the world's announcements so the
// frozen Env table cannot leak into the trie arm.
func DiffLPM(pl *Pipeline) error {
	trie := bgp.NewTable(pl.Env.World.Announcements)
	compiled := bgp.NewTable(pl.Env.World.Announcements)
	compiled.Freeze()

	cfgTrie := pl.Config()
	cfgTrie.IP2AS = noFreeze{t: trie}
	cfgComp := pl.Config()
	cfgComp.IP2AS = compiled

	rt, err := core.Run(pl.Env.Sanitized, cfgTrie)
	if err != nil {
		return err
	}
	rc, err := core.Run(pl.Env.Sanitized, cfgComp)
	if err != nil {
		return err
	}
	if err := EqualResults(rt, rc); err != nil {
		return fmt.Errorf("trie vs compiled LPM: %w", err)
	}
	return nil
}

// DiffBinaryRoundTrip serialises the dataset through both binary
// layouts (monolithic v2 stream and blocked v3), reads each back
// serially and in parallel, and requires the decoded datasets and
// their downstream Results to match the in-memory original exactly.
func DiffBinaryRoundTrip(pl *Pipeline) error {
	d := pl.Env.Dataset
	base, err := pl.Baseline()
	if err != nil {
		return err
	}

	var mono, blocked bytes.Buffer
	if err := trace.WriteBinary(&mono, d); err != nil {
		return fmt.Errorf("write monolithic: %w", err)
	}
	if err := trace.WriteBinaryBlocks(&blocked, d, 64); err != nil {
		return fmt.Errorf("write blocked: %w", err)
	}

	decoded := map[string]*trace.Dataset{}
	if decoded["monolithic/serial"], err = trace.ReadBinary(bytes.NewReader(mono.Bytes())); err != nil {
		return fmt.Errorf("read monolithic: %w", err)
	}
	if decoded["blocked/serial"], err = trace.ReadBinary(bytes.NewReader(blocked.Bytes())); err != nil {
		return fmt.Errorf("read blocked: %w", err)
	}
	if decoded["blocked/parallel"], err = trace.ReadBinaryParallel(bytes.NewReader(blocked.Bytes()), 4); err != nil {
		return fmt.Errorf("read blocked parallel: %w", err)
	}

	for _, label := range []string{"monolithic/serial", "blocked/serial", "blocked/parallel"} {
		rd := decoded[label]
		if !reflect.DeepEqual(rd.Traces, d.Traces) {
			return fmt.Errorf("%s: decoded dataset diverges from original (%d vs %d traces)",
				label, len(rd.Traces), len(d.Traces))
		}
		r, err := core.Run(rd.Sanitize(), pl.Config())
		if err != nil {
			return err
		}
		if err := EqualResults(base, r); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
	}
	return nil
}
