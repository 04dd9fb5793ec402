package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"mapit/internal/core"
	"mapit/internal/inet"
	"mapit/internal/trace"
)

// reference is the independent answer every workload is checked
// against: core.Run over the in-memory sanitised dataset (the
// EvidenceFrom path), which shares no decode, collector or snapshot code
// with the paths under test.
type reference struct {
	digest [32]byte
	byAddr map[inet.Addr][]wireInference
	hits   []inet.Addr // distinct addresses with at least one inference, sorted
}

func newReference(traces []trace.Trace, cfg core.Config) (*reference, error) {
	s := (&trace.Dataset{Traces: traces}).SanitizeParallel(cfg.Workers)
	res, err := core.Run(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &reference{digest: digest(res.Inferences), byAddr: make(map[inet.Addr][]wireInference)}
	for _, inf := range res.Inferences {
		ref.byAddr[inf.Addr] = append(ref.byAddr[inf.Addr], toWire(inf))
	}
	for a, recs := range ref.byAddr {
		sortWire(recs)
		ref.hits = append(ref.hits, a)
	}
	slices.Sort(ref.hits)
	return ref, nil
}

// digest hashes an inference set independently of its order.
func digest(infs []core.Inference) [32]byte {
	lines := make([]string, len(infs))
	for i, inf := range infs {
		lines[i] = fmt.Sprintf("%v|%d|%v|%v|%v|%t|%t|%t",
			inf.Addr, inf.Dir, inf.Local, inf.Connected, inf.OtherSide, inf.Uncertain, inf.Stub, inf.Indirect)
	}
	slices.Sort(lines)
	return sha256.Sum256([]byte(strings.Join(lines, "\n")))
}

// wireInference and wireLookup are the client's view of a
// GET /v1/lookup response body.
type wireInference struct {
	Addr      string `json:"addr"`
	Direction string `json:"direction"`
	Local     uint32 `json:"local_as"`
	Connected uint32 `json:"connected_as"`
	OtherSide string `json:"other_side,omitempty"`
	Uncertain bool   `json:"uncertain,omitempty"`
	Stub      bool   `json:"stub_heuristic,omitempty"`
	Indirect  bool   `json:"indirect,omitempty"`
}

type wireLookup struct {
	Addr       string          `json:"addr"`
	Inferences []wireInference `json:"inferences"`
}

func toWire(inf core.Inference) wireInference {
	w := wireInference{
		Addr:      inf.Addr.String(),
		Direction: inf.Dir.String(),
		Local:     uint32(inf.Local),
		Connected: uint32(inf.Connected),
		Uncertain: inf.Uncertain,
		Stub:      inf.Stub,
		Indirect:  inf.Indirect,
	}
	if !inf.OtherSide.IsZero() {
		w.OtherSide = inf.OtherSide.String()
	}
	return w
}

func sortWire(recs []wireInference) {
	slices.SortFunc(recs, func(a, b wireInference) int {
		return cmp.Or(
			cmp.Compare(a.Direction, b.Direction),
			cmp.Compare(a.Local, b.Local),
			cmp.Compare(a.Connected, b.Connected),
			cmp.Compare(a.OtherSide, b.OtherSide),
			cmp.Compare(fmt.Sprint(a.Uncertain, a.Stub, a.Indirect), fmt.Sprint(b.Uncertain, b.Stub, b.Indirect)),
		)
	})
}

// checkLookup decodes a lookup response body and compares it with the
// reference, record by record, misses included.
func (r *reference) checkLookup(body []byte, addrs []inet.Addr) error {
	var got []wireLookup
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode lookup body: %w", err)
	}
	if len(got) != len(addrs) {
		return fmt.Errorf("lookup answered %d addresses, asked %d", len(got), len(addrs))
	}
	for i, a := range addrs {
		if got[i].Addr != a.String() {
			return fmt.Errorf("record %d is for %s, asked %s", i, got[i].Addr, a)
		}
		recs := got[i].Inferences
		sortWire(recs)
		want := r.byAddr[a]
		if len(recs) != len(want) || (len(want) > 0 && !slices.Equal(recs, want)) {
			return fmt.Errorf("%s: got %v, reference %v", a, recs, want)
		}
	}
	return nil
}

// request is one GET /v1/lookup in the query mix.
type request struct {
	path  string
	addrs []inet.Addr
}

// lookupMix builds the query mix over the reference's inferred
// addresses in a seeded order: one miss per eight hits, as in
// BenchmarkServeHTTP, and every tenth request carrying 16 addresses.
func lookupMix(hits []inet.Addr, seed int64) []request {
	keys := make([]inet.Addr, 0, len(hits)+len(hits)/8+1)
	order := slices.Clone(hits)
	rng := newRand(seed)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	miss := 0
	for i, a := range order {
		keys = append(keys, a)
		if i%8 == 7 {
			// 254.0.0.0/16 is reserved space the generator never assigns.
			keys = append(keys, inet.Addr(254<<24|uint32(miss&0xffff)))
			miss++
		}
	}
	var reqs []request
	for i := 0; len(keys) > 0; i++ {
		n := 1
		if i%10 == 9 {
			n = min(16, len(keys))
		}
		reqs = append(reqs, newRequest(keys[:n]))
		keys = keys[n:]
	}
	return reqs
}

func newRequest(addrs []inet.Addr) request {
	var b strings.Builder
	b.WriteString("/v1/lookup?addr=")
	for i, a := range addrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	return request{path: b.String(), addrs: addrs}
}

// verifier checks lookup responses against the reference. Once a body
// for a request has been decoded and found correct it is remembered, and
// later responses to the same request that repeat it byte for byte are
// accepted without decoding, so checking every response costs the client
// a comparison, not a JSON decode. verified is filled before the timed
// phase and only read during it.
type verifier struct {
	ref      *reference
	reqs     []request
	verified [][]byte
}

func newVerifier(ref *reference, reqs []request) *verifier {
	return &verifier{ref: ref, reqs: reqs, verified: make([][]byte, len(reqs))}
}

// check reports whether a response to request i is correct: status 200
// and a body matching the reference.
func (v *verifier) check(i, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", v.reqs[i].path, status)
	}
	if good := v.verified[i]; good != nil && bytes.Equal(good, body) {
		return nil
	}
	return v.ref.checkLookup(body, v.reqs[i].addrs)
}

// remember checks a response and, when correct, keeps its body for the
// fast path. Not safe for concurrent use.
func (v *verifier) remember(i, status int, body []byte) error {
	if err := v.check(i, status, body); err != nil {
		return err
	}
	v.verified[i] = bytes.Clone(body)
	return nil
}
