package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mapit/internal/inet"
	"mapit/internal/trace"
)

// ingestDataset builds a tiny timestamped corpus that survives
// sanitisation, for exercising every encoding the sniffing decoder
// accepts.
func ingestDataset() *trace.Dataset {
	t1 := trace.NewTrace("m", 0x08080808, 0x01010101, 0, 0x02020202)
	t1.Time = 1_700_000_000
	t2 := trace.NewTrace("n", 0x08080404, 0x01010102, 0x03030303)
	t2.Time = 1_700_000_060
	return &trace.Dataset{Traces: []trace.Trace{t1, t2}}
}

// TestDecodeTracesSniffing round-trips the corpus through every wire
// format and checks the sniffing loop delivers the same traces in
// stream order. Timestamps survive exactly where the format carries
// them (JSONL and MTRC v4) and come back zero elsewhere.
func TestDecodeTracesSniffing(t *testing.T) {
	ds := ingestDataset()
	encode := func(f func(*bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name  string
		data  []byte
		times bool // format carries timestamps
	}{
		{"text", encode(func(b *bytes.Buffer) error { return trace.Write(b, ds) }), false},
		{"jsonl", encode(func(b *bytes.Buffer) error { return trace.WriteJSON(b, ds) }), true},
		{"binary v2", encode(func(b *bytes.Buffer) error { return trace.WriteBinary(b, ds) }), false},
		{"binary v3", encode(func(b *bytes.Buffer) error { return trace.WriteBinaryBlocks(b, ds, 1) }), false},
		{"binary v4", encode(func(b *bytes.Buffer) error { return trace.WriteBinaryBlocksV4(b, ds, 1) }), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []trace.Trace
			n, err := DecodeTraces(bytes.NewReader(tc.data), trace.DecodeOptions{}, func(tr trace.Trace) error {
				got = append(got, tr)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != len(ds.Traces) || len(got) != len(ds.Traces) {
				t.Fatalf("decoded %d traces (callback saw %d), want %d", n, len(got), len(ds.Traces))
			}
			for i, tr := range got {
				want := ds.Traces[i]
				if tr.Monitor != want.Monitor || tr.Dst != want.Dst || !slices.Equal(tr.Hops, want.Hops) {
					t.Fatalf("trace %d: got %+v want %+v", i, tr, want)
				}
				wantTime := want.Time
				if !tc.times {
					wantTime = 0
				}
				if tr.Time != wantTime {
					t.Fatalf("trace %d: time %d, want %d", i, tr.Time, wantTime)
				}
			}
		})
	}
}

// TestDecodeTracesEmptyAndMalformed pins the sniffer's edge behaviour:
// inputs shorter than a magic fall through to the text parser, an
// empty stream is a valid empty corpus, and each branch surfaces its
// parser's error.
func TestDecodeTracesEmptyAndMalformed(t *testing.T) {
	n, err := DecodeTraces(strings.NewReader(""), trace.DecodeOptions{}, func(trace.Trace) error {
		t.Fatal("callback on empty input")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty input: n=%d err=%v", n, err)
	}
	if _, err := DecodeTraces(strings.NewReader("not|a|trace"), trace.DecodeOptions{}, nopTrace); err == nil {
		t.Fatal("malformed text accepted")
	}
	if _, err := DecodeTraces(strings.NewReader("{\"bad\": json"), trace.DecodeOptions{}, nopTrace); err == nil {
		t.Fatal("malformed JSONL accepted")
	}
}

func nopTrace(trace.Trace) error { return nil }

// TestDecodeTracesCallbackError pins that a callback error aborts the
// decode on both the streaming (binary) and whole-dataset (text)
// paths, is returned verbatim, and the count reflects deliveries.
func TestDecodeTracesCallbackError(t *testing.T) {
	ds := ingestDataset()
	boom := errors.New("boom")
	var v4 bytes.Buffer
	if err := trace.WriteBinaryBlocksV4(&v4, ds, 0); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := trace.Write(&text, ds); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"binary", v4.Bytes()}, {"text", text.Bytes()}} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			n, err := DecodeTraces(bytes.NewReader(tc.data), trace.DecodeOptions{}, func(trace.Trace) error {
				calls++
				if calls == 2 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if n != 1 || calls != 2 {
				t.Fatalf("n=%d calls=%d, want 1 delivered before the failing call", n, calls)
			}
		})
	}
}

// corruptV3Stream returns a two-block v3 stream with one payload byte
// flipped such that strict decodes fail with a typed corruption error
// while permissive decodes skip exactly one block and keep the other
// trace. The flip position is found by search so the helper stays
// valid if the encoding shifts.
func corruptV3Stream(t *testing.T) ([]byte, int) {
	t.Helper()
	ds := ingestDataset()
	var buf bytes.Buffer
	if err := trace.WriteBinaryBlocks(&buf, ds, 1); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := 5; pos < len(clean); pos++ {
		data := bytes.Clone(clean)
		data[pos] ^= 0xa5
		var ce *trace.CorruptError
		if _, err := trace.ReadBinaryOpts(bytes.NewReader(data), trace.DecodeOptions{}); !errors.As(err, &ce) {
			continue
		}
		var stats trace.DecodeStats
		got, err := trace.ReadBinaryOpts(bytes.NewReader(data), trace.DecodeOptions{Permissive: true, Stats: &stats})
		if err == nil && stats.BlocksSkipped == 1 && len(got.Traces) == len(ds.Traces)-1 {
			return data, len(ds.Traces)
		}
	}
	t.Fatal("no byte flip produced a skippable corrupt block")
	return nil, 0
}

// TestDecodeTracesCorruption pins strict-vs-permissive behaviour of
// the binary branch: strict surfaces a typed *trace.CorruptError;
// permissive skips the bad block, counts it in the caller's stats, and
// still delivers the clean remainder.
func TestDecodeTracesCorruption(t *testing.T) {
	data, total := corruptV3Stream(t)
	_, err := DecodeTraces(bytes.NewReader(data), trace.DecodeOptions{}, nopTrace)
	var ce *trace.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("strict: err = %v (%T), want *trace.CorruptError", err, err)
	}
	var stats trace.DecodeStats
	n, err := DecodeTraces(bytes.NewReader(data), trace.DecodeOptions{Permissive: true, Stats: &stats}, nopTrace)
	if err != nil {
		t.Fatalf("permissive: %v", err)
	}
	if n != total-1 {
		t.Fatalf("permissive delivered %d traces, want %d (one block skipped)", n, total-1)
	}
	if stats.BlocksSkipped != 1 || stats.TotalErrors() == 0 {
		t.Fatalf("permissive stats: %+v", stats)
	}
}

// TestIngestorLifecycle drives the full pipeline: mixed-format
// incremental ingest, monitor tracking, repeated finalisation over the
// growing union, decode-health accounting, and close.
func TestIngestorLifecycle(t *testing.T) {
	g := NewIngestor(IngestOptions{Workers: 2, TrackMonitors: true})
	defer g.Close()

	ds := ingestDataset()
	var text bytes.Buffer
	if err := trace.Write(&text, ds); err != nil {
		t.Fatal(err)
	}
	if n, err := g.Ingest(&text); err != nil || n != len(ds.Traces) {
		t.Fatalf("text ingest: n=%d err=%v", n, err)
	}
	ev, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats.TotalTraces != len(ds.Traces) {
		t.Fatalf("evidence covers %d traces, want %d", ev.Stats.TotalTraces, len(ds.Traces))
	}
	if len(ev.Monitors) == 0 {
		t.Fatal("TrackMonitors produced no monitor evidence")
	}

	// The ingestor stays usable after Finish: a second, binary batch
	// accumulates and the next Finish covers the union. A corrupt block
	// in permissive mode is skipped, not fatal, and lands in the
	// cumulative decode stats.
	data, total := corruptV3Stream(t)
	if n, err := g.Ingest(bytes.NewReader(data)); err != nil || n != total-1 {
		t.Fatalf("binary ingest: n=%d err=%v", n, err)
	}
	if g.Traces() != len(ds.Traces)+total-1 {
		t.Fatalf("Traces() = %d, want %d", g.Traces(), len(ds.Traces)+total-1)
	}
	ev2, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Stats.TotalTraces != g.Traces() {
		t.Fatalf("second finish covers %d traces, want %d", ev2.Stats.TotalTraces, g.Traces())
	}
	if st := g.DecodeStats(); st.BlocksSkipped != 1 || st.TotalErrors() == 0 {
		t.Fatalf("decode stats: %+v", *st)
	}
	if sp := g.SpillStats(); sp != (SpillStats{}) {
		t.Fatalf("in-memory ingest reported spill activity: %+v", sp)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestorStrict pins that strict mode turns block corruption into
// an ingest error while leaving previously collected evidence intact.
func TestIngestorStrict(t *testing.T) {
	g := NewIngestor(IngestOptions{Strict: true})
	defer g.Close()
	ds := ingestDataset()
	var v4 bytes.Buffer
	if err := trace.WriteBinaryBlocksV4(&v4, ds, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := g.Ingest(&v4); err != nil || n != len(ds.Traces) {
		t.Fatalf("clean ingest: n=%d err=%v", n, err)
	}
	data, _ := corruptV3Stream(t)
	prefix, wantErr := serialDecode(t, data, trace.DecodeOptions{})
	if wantErr == nil {
		t.Fatal("serial decode accepted the corrupt stream")
	}
	n, err := g.Ingest(bytes.NewReader(data))
	if err == nil {
		t.Fatal("strict ingest accepted corrupt stream")
	}
	if n != len(prefix) {
		t.Fatalf("failed ingest reports %d traces, want the %d before the corrupt block", n, len(prefix))
	}
	ev, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The failed batch leaves exactly its stream prefix collected.
	if want := len(ds.Traces) + len(prefix); ev.Stats.TotalTraces != want {
		t.Fatalf("evidence covers %d traces, want %d: %+v", ev.Stats.TotalTraces, want, ev.Stats)
	}
}

// serialDecode is the reference for the ordered block-parallel decode:
// a serial BinaryReader.Next loop, returning every trace it delivered
// before the stream ended or failed.
func serialDecode(t *testing.T, data []byte, opt trace.DecodeOptions) ([]trace.Trace, error) {
	t.Helper()
	r, err := trace.NewBinaryReaderOpts(bytes.NewReader(data), opt)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Trace
	for {
		tr, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, tr)
	}
}

// corruptMiddleV4 writes n random timestamped traces as a v4 stream of
// perBlock-trace blocks, gives block k's payload an unknown record kind,
// so that block alone fails to decode, and block k+2's timestamp column
// a negative delta, which fails that block as it is framed.
func corruptMiddleV4(t *testing.T, n, perBlock, k int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ds := &trace.Dataset{}
	for i := 0; i < n; i++ {
		hops := make([]inet.Addr, 1+rng.Intn(8))
		for j := range hops {
			hops[j] = inet.Addr(0x0a000000 + rng.Intn(1<<12))
		}
		tr := trace.NewTrace(fmt.Sprintf("m%d", rng.Intn(5)), inet.Addr(0x08000000+rng.Intn(1<<12)), hops...)
		tr.Time = 1_700_000_000 + int64(i)
		ds.Traces = append(ds.Traces, tr)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinaryBlocksV4(&buf, ds, perBlock); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pos := 5 // past the magic
	for b := 0; ; b++ {
		pos++             // frame kind
		var hdr [3]uint64 // payloadLen, traceCount, tsLen
		for i := range hdr {
			v, w := binary.Uvarint(data[pos:])
			if w <= 0 {
				t.Fatalf("block %d: bad frame header at %d", b, pos)
			}
			hdr[i], pos = v, pos+w
		}
		if b == k+2 {
			data[pos+5] = 0x01 // after the 5-byte base, a zigzag -1 delta
			return data
		}
		pos += int(hdr[2])
		if b == k {
			data[pos] = 0xee
		}
		pos += int(hdr[0])
	}
}

// TestDecodeTracesOrderedBlocks holds the ordered block-parallel decode
// to a serial BinaryReader.Next loop over a multi-block v4 corpus with
// one corrupt middle block, for several worker counts: permissive mode
// delivers the same trace sequence with identical DecodeStats; strict
// mode fails with the same error and DecodeStats after delivering
// exactly the blocks before the corrupt one, so the damaged column that
// framing read ahead to is not counted; an error from fn stops the
// decode at once and leaves no goroutine behind.
func TestDecodeTracesOrderedBlocks(t *testing.T) {
	const n, perBlock, bad = 200, 8, 12
	data := corruptMiddleV4(t, n, perBlock, bad)
	for _, workers := range []int{1, 2, 8} {
		for _, permissive := range []bool{true, false} {
			label := fmt.Sprintf("workers=%d permissive=%v", workers, permissive)
			var wantStats, gotStats trace.DecodeStats
			want, wantErr := serialDecode(t, data, trace.DecodeOptions{Permissive: permissive, Stats: &wantStats})
			var got []trace.Trace
			delivered, err := decodeTraces(bytes.NewReader(data), trace.DecodeOptions{Permissive: permissive, Stats: &gotStats},
				workers, func(tr trace.Trace) error {
					got = append(got, tr)
					return nil
				})
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("%s: err = %v, want %v", label, err, wantErr)
			}
			if !permissive && len(got) != bad*perBlock {
				t.Fatalf("%s: fn saw %d traces, want the %d of the blocks before the corrupt one", label, len(got), bad*perBlock)
			}
			if permissive && len(got) != n-2*perBlock {
				t.Fatalf("%s: fn saw %d traces, want %d", label, len(got), n-2*perBlock)
			}
			if delivered != len(got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: delivered %d traces, differing from the serial decode's %d", label, len(got), len(want))
			}
			if gotStats != wantStats {
				t.Fatalf("%s: stats\n  got  %+v\n  want %+v", label, gotStats, wantStats)
			}
		}

		baseline := runtime.NumGoroutine()
		stop := errors.New("stop")
		calls := 0
		delivered, err := decodeTraces(bytes.NewReader(data), trace.DecodeOptions{Permissive: true}, workers,
			func(trace.Trace) error {
				calls++
				if calls == 3*perBlock+5 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) || calls != 3*perBlock+5 || delivered != calls-1 {
			t.Fatalf("workers=%d: fn error: err=%v calls=%d delivered=%d", workers, err, calls, delivered)
		}
		// The decode has waited for its workers, but one that has just
		// run its deferred Done still counts until it exits.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after an aborted decode, %d before",
					workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
