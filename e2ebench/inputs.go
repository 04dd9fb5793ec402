package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"mapit"
	"mapit/internal/bgp"
	"mapit/internal/core"
	"mapit/internal/eval"
	"mapit/internal/topo"
	"mapit/internal/trace"
)

// meta is the serialised public metadata, in the text formats the mapit
// CLI and mapitd read from disk.
type meta struct {
	rib, orgs, rels, ixp []byte
}

// world is one workload's generated inputs. The program under test sees
// only the serialised bytes; ds stays with the benchmark for the
// reference checks.
type world struct {
	meta meta
	ds   *trace.Dataset
}

// genWorld generates a world and its traces from seed the way gentopo
// does: the topology from seed, the traceroute engine from seed+1 and
// the metadata noise from seed+2.
func genWorld(env eval.EnvConfig, seed int64) (*world, error) {
	gen := env.Gen
	gen.Seed = seed
	w := topo.Generate(gen)
	tc := env.Trace
	tc.Seed = seed + 1
	ds := w.GenTraces(tc)
	if tc.Timestamps {
		slices.SortStableFunc(ds.Traces, func(a, b trace.Trace) int {
			return cmpInt64(a.Time, b.Time)
		})
	}
	noise := env.Meta
	noise.Seed = seed + 2
	orgs, rels, dir := w.PublicInputs(noise)

	var m meta
	for _, f := range []struct {
		dst   *[]byte
		write func(io.Writer) error
	}{
		{&m.rib, func(wr io.Writer) error { return bgp.WriteRIB(wr, w.Announcements) }},
		{&m.orgs, orgs.Write},
		{&m.rels, rels.Write},
		{&m.ixp, dir.Write},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			return nil, fmt.Errorf("serialise metadata: %w", err)
		}
		*f.dst = buf.Bytes()
	}
	return &world{meta: m, ds: ds}, nil
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// encodeV4 serialises traces as an MTRC v4 block corpus.
func encodeV4(traces []trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := mapit.WriteTracesBinaryBlocksV4(&buf, &trace.Dataset{Traces: traces}, 0); err != nil {
		return nil, fmt.Errorf("encode v4 corpus: %w", err)
	}
	return buf.Bytes(), nil
}

// parseMeta is the metadata half of start-up: parse every input through
// the public readers and freeze the longest-prefix-match tables, as the
// mapit CLI and mapitd do before any trace is read.
func parseMeta(m meta, workers int) (core.Config, error) {
	table, err := mapit.ReadRIB(bytes.NewReader(m.rib))
	if err != nil {
		return core.Config{}, fmt.Errorf("read rib: %w", err)
	}
	table.Freeze()
	orgs, err := mapit.ReadOrgs(bytes.NewReader(m.orgs))
	if err != nil {
		return core.Config{}, fmt.Errorf("read orgs: %w", err)
	}
	rels, err := mapit.ReadRelationships(bytes.NewReader(m.rels))
	if err != nil {
		return core.Config{}, fmt.Errorf("read rels: %w", err)
	}
	dir, err := mapit.ReadIXP(bytes.NewReader(m.ixp))
	if err != nil {
		return core.Config{}, fmt.Errorf("read ixp: %w", err)
	}
	dir.Freeze()
	return core.Config{IP2AS: table, Orgs: orgs, Rels: rels, IXP: dir, F: 0.5, Workers: workers}, nil
}

// windowBatch is one slice of a time-sorted corpus, posted as one
// POST /v1/ingest body.
type windowBatch struct {
	traces []trace.Trace
	body   []byte // the traces as MTRC v4
	last   int64  // newest timestamp in the batch
}

// splitBatches cuts a time-sorted trace list into consecutive batches
// of width seconds, aligned on the first trace's timestamp. Empty
// intervals produce no batch.
func splitBatches(traces []trace.Trace, width int64) ([][]trace.Trace, error) {
	if len(traces) == 0 {
		return nil, nil
	}
	t0 := traces[0].Time
	var out [][]trace.Trace
	cur := int64(-1)
	for i, t := range traces {
		if i > 0 && t.Time < traces[i-1].Time {
			return nil, fmt.Errorf("trace %d is older than its predecessor (%d < %d)", i, t.Time, traces[i-1].Time)
		}
		if b := (t.Time - t0) / width; b != cur {
			cur = b
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], t)
	}
	return out, nil
}

// windowBatches splits and encodes a corpus into ingest bodies.
func windowBatches(traces []trace.Trace, width int64) ([]windowBatch, error) {
	parts, err := splitBatches(traces, width)
	if err != nil {
		return nil, err
	}
	out := make([]windowBatch, len(parts))
	for i, p := range parts {
		body, err := encodeV4(p)
		if err != nil {
			return nil, err
		}
		out[i] = windowBatch{traces: p, body: body, last: p[len(p)-1].Time}
	}
	return out, nil
}
