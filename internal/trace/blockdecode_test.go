package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"mapit/internal/inet"
)

// referenceDecodeBlockPayload is the reader-based block decoder the
// slice decoder replaced: a nested strict v2 record reader over the
// payload, its error offsets shifted by base into the outer stream. The
// differential tests hold decodeBlockPayload to it byte for byte.
func referenceDecodeBlockPayload(payload []byte, base int64, blockIdx, count int) ([]Trace, *CorruptError) {
	cr := &countReader{r: bytes.NewReader(payload)}
	rd := &BinaryReader{
		br:       bufio.NewReaderSize(cr, max(16, min(len(payload), 1<<16))),
		cr:       cr,
		version:  2,
		stats:    DecodeOptions{}.sink(),
		blockIdx: blockIdx,
	}
	out := make([]Trace, 0, min(count, maxTraceCapHint))
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			ce := err.(*CorruptError)
			ce.Offset += base
			return nil, ce
		}
		out = append(out, t)
	}
}

// sameBlockDecode runs both block decoders over one payload and fails
// unless they return identical traces or an identical *CorruptError
// (offset, block, kind, class and cause text).
func sameBlockDecode(t *testing.T, label string, payload []byte, base int64, blockIdx, count int) {
	t.Helper()
	want, werr := referenceDecodeBlockPayload(payload, base, blockIdx, count)
	got, gerr := decodeBlockPayload(payload, base, blockIdx, count)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: reference err=%v, slice decoder err=%v", label, werr, gerr)
	}
	if werr != nil {
		if werr.Offset != gerr.Offset || werr.Block != gerr.Block || werr.Kind != gerr.Kind ||
			werr.Class != gerr.Class || werr.Error() != gerr.Error() {
			t.Fatalf("%s: errors differ:\n  reference %+v: %v\n  slice     %+v: %v", label, *werr, werr, *gerr, gerr)
		}
		if got != nil {
			t.Fatalf("%s: %d traces returned beside an error", label, len(got))
		}
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d traces, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: trace %d differs:\n  reference %+v\n  slice     %+v", label, i, want[i], got[i])
		}
	}
}

// randomBlockPayload encodes n random traces as one block payload: a mix
// of monitor names (one empty), hop counts from 0 up to maxHopCount, and
// every hop flag combination with arbitrary quoted TTLs.
func randomBlockPayload(rng *rand.Rand, n int) []byte {
	traces := make([]Trace, n)
	for i := range traces {
		nh := rng.Intn(30)
		if rng.Intn(50) == 0 {
			nh = rng.Intn(maxHopCount + 1)
		}
		hops := make([]Hop, nh)
		for j := range hops {
			hops[j] = Hop{QuotedTTL: 1}
			if rng.Intn(8) != 0 {
				hops[j].Addr = inet.Addr(rng.Uint32() | 1)
			}
			if rng.Intn(6) == 0 {
				hops[j].QuotedTTL = int8(rng.Intn(256))
			}
		}
		traces[i] = Trace{Monitor: fmt.Sprintf("mon-%d", rng.Intn(12))[:rng.Intn(6)], Dst: inet.Addr(rng.Uint32()), Hops: hops}
	}
	var buf bytes.Buffer
	if err := encodeTraces(&buf, traces, make(map[string]uint64)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestBlockDecoderMatchesReference holds the slice-native block decoder
// to the reader-based reference over every fault-injection corpus and
// corruption, random generated blocks (valid and with random bytes
// spliced in), and a small block truncated at every offset and
// bit-flipped at every bit.
func TestBlockDecoderMatchesReference(t *testing.T) {
	for _, c := range buildFaultCorpora(t) {
		// A v2 stream's body is one record stream, like a block payload
		// with stream-global monitor ids.
		regions := [][2]int{{5, len(c.raw)}}
		if c.name != "v2" {
			regions = regions[:0]
			for _, f := range walkFrames(t, c.raw) {
				regions = append(regions, [2]int{f.payloadOff, f.payloadOff + f.payloadLen})
			}
		}
		variants := append(corruptions(t, c), variant{"pristine", c.raw})
		for _, v := range variants {
			for i, reg := range regions {
				lo, hi := min(reg[0], len(v.data)), min(reg[1], len(v.data))
				sameBlockDecode(t, fmt.Sprintf("%s/%s/region%d", c.name, v.name, i), v.data[lo:hi], int64(lo), i, 16)
			}
		}
	}

	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := randomBlockPayload(rng, rng.Intn(40))
		sameBlockDecode(t, fmt.Sprintf("random%d", trial), p, int64(rng.Intn(1<<20)), trial, rng.Intn(50))
		if len(p) > 0 {
			junk := bytes.Clone(p)
			at := rng.Intn(len(junk))
			rng.Read(junk[at:min(len(junk), at+1+rng.Intn(12))])
			sameBlockDecode(t, fmt.Sprintf("random%d/junk@%d", trial, at), junk, 5, trial, 0)
		}
	}
	for trial := 0; trial < 200; trial++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		sameBlockDecode(t, fmt.Sprintf("bytes%d", trial), junk, 0, 0, 1)
	}
	// Varint edge cases: overlong, overflowing at the tenth byte, and
	// cut short at every length.
	over := bytes.Repeat([]byte{0xff}, 11)
	for _, v := range [][]byte{
		append([]byte{0}, over...),
		append([]byte{0}, append(bytes.Repeat([]byte{0x80}, 9), 0x02)...),
		append([]byte{0}, bytes.Repeat([]byte{0x80}, 10)...),
		append([]byte{0, 1, 'm', 1}, over...),
		append([]byte{0, 1, 'm', 1, 0, 9, 9, 9, 9}, over...),
	} {
		for cut := 0; cut <= len(v); cut++ {
			sameBlockDecode(t, fmt.Sprintf("varint %x", v[:cut]), v[:cut], 100, 3, 1)
		}
	}

	small := randomBlockPayload(rand.New(rand.NewSource(5)), 6)
	for cut := 0; cut <= len(small); cut++ {
		sameBlockDecode(t, fmt.Sprintf("small/truncate@%d", cut), small[:cut], 64, 1, 6)
	}
	for pos := range small {
		for bit := 0; bit < 8; bit++ {
			b := bytes.Clone(small)
			b[pos] ^= 1 << bit
			sameBlockDecode(t, fmt.Sprintf("small/bitflip@%d.%d", pos, bit), b, 64, 1, 6)
		}
	}
}

// FuzzBlockPayload feeds arbitrary bytes to both block decoders as a
// payload: they must agree on the traces or on the typed error.
func FuzzBlockPayload(f *testing.F) {
	f.Add(randomBlockPayload(rand.New(rand.NewSource(1)), 3))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 'm', 1, 0, 9, 9, 9, 9, 2, 3, 1, 2, 3, 4, 0x02})
	f.Add([]byte{1, 7, 9, 9, 9, 9, 0})                                       // monitor id out of range
	f.Add([]byte{0, 1, 'm', 1, 0, 9, 9, 9, 9, 0xff, 0xff, 0xff, 0xff, 0x7f}) // oversized hop count
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sameBlockDecode(t, "fuzz", payload, 17, 2, len(payload)/minTraceRecordBytes)
	})
}

// TestBlockDecoderSlabAliasing pins the ownership contract of the hop
// slab: every decoded trace's Hops is capacity-clipped, so appending to
// one trace's hops leaves the next trace intact, sanitisation's
// copy-on-write leaves the decoded input unmodified, and a block
// allocates a number of times bounded by its monitor definitions, not
// by its trace count.
func TestBlockDecoderSlabAliasing(t *testing.T) {
	d := genDataset(2000)
	var buf bytes.Buffer
	if err := WriteBinaryBlocks(&buf, d, 512); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinaryParallel(bytes.NewReader(buf.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameDataset(t, d, back, "decode")
	for i, tr := range back.Traces {
		if cap(tr.Hops) != len(tr.Hops) {
			t.Fatalf("trace %d: cap(Hops)=%d, len %d", i, cap(tr.Hops), len(tr.Hops))
		}
	}

	// Sanitising rewrites hops of some traces; the decoded input must
	// come through untouched.
	s := back.Sanitize()
	if s.Stats.TotalTraces != len(d.Traces) {
		t.Fatalf("sanitised %d traces, want %d", s.Stats.TotalTraces, len(d.Traces))
	}
	sameDataset(t, d, back, "after Sanitize")

	for i := 0; i+1 < len(back.Traces); i++ {
		back.Traces[i].Hops = append(back.Traces[i].Hops, Hop{Addr: 0xdeadbeef, QuotedTTL: 9})
	}
	for i := 1; i < len(back.Traces); i++ {
		if !reflect.DeepEqual(back.Traces[i].Hops[:len(d.Traces[i].Hops)], d.Traces[i].Hops) {
			t.Fatalf("append to trace %d overwrote trace %d", i-1, i)
		}
	}

	// One 4096-trace block over genDataset's 20 monitors.
	big := genDataset(DefaultBlockTraces)
	var payload bytes.Buffer
	if err := encodeTraces(&payload, big.Traces, make(map[string]uint64)); err != nil {
		t.Fatal(err)
	}
	monitors := make(map[string]bool)
	for _, tr := range big.Traces {
		monitors[tr.Monitor] = true
	}
	p := payload.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeBlockPayload(p, 0, 0, DefaultBlockTraces); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per monitor name, plus the trace slice, the hop
	// slab and the monitor table's growth.
	if limit := float64(len(monitors) + 12); allocs > limit {
		t.Fatalf("%d-trace block with %d monitors: %.0f allocs, want <= %.0f",
			DefaultBlockTraces, len(monitors), allocs, limit)
	}
}
