package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mapit/internal/inet"
)

// tableModel is the map model of one evidence store's two tables.
type tableModel struct {
	addrs map[inet.Addr]uint8
	adjs  map[uint64]bool
}

func newTableModel() tableModel {
	return tableModel{addrs: make(map[inet.Addr]uint8), adjs: make(map[uint64]bool)}
}

// sortedModelKeys returns the model's keys whose value passes keep,
// ascending.
func sortedModelKeys[K ~uint32 | ~uint64, V any](m map[K]V, keep func(V) bool) []K {
	var out []K
	for k, v := range m {
		if keep(v) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// checkTables requires the store's tables to hold exactly the model:
// the sorted extraction under every flag mask, and the counts.
func checkTables(t *testing.T, label string, s *evidenceStore, m tableModel) {
	t.Helper()
	for _, mask := range []uint8{0, flagSeen, flagRetained} {
		want := sortedModelKeys(m.addrs, func(f uint8) bool { return mask == 0 || f&mask != 0 })
		if got := s.addrs.appendSorted(nil, mask); !slices.Equal(got, want) {
			t.Fatalf("%s: address extraction under mask %d: got %d keys, want %d", label, mask, len(got), len(want))
		}
		if mask != 0 {
			if got := s.addrs.count(mask); got != len(want) {
				t.Fatalf("%s: count(%d) = %d, want %d", label, mask, got, len(want))
			}
		}
	}
	if s.addrs.len() != len(m.addrs) {
		t.Fatalf("%s: address table holds %d keys, model %d", label, s.addrs.len(), len(m.addrs))
	}
	want := sortedModelKeys(m.adjs, func(bool) bool { return true })
	if got := s.adjs.appendSorted(nil, 0); !slices.Equal(got, want) {
		t.Fatalf("%s: adjacency extraction: got %d keys, want %d", label, len(got), len(want))
	}
	if s.adjs.len() != len(m.adjs) {
		t.Fatalf("%s: adjacency set holds %d keys, model %d", label, s.adjs.len(), len(m.adjs))
	}
}

// Fuzz ops, one per 6 input bytes: op/table, a 4-byte key, an argument.
const (
	opFlag  = iota // OR flags into one address
	opAdj          // add one adjacency
	opBulk         // add a strided run of addresses and adjacencies
	opMerge        // merge one store's tables into the other's
	opFlush        // check one store, then clear it for reuse
	numOps
)

// FuzzEvidenceTables runs random operation sequences over two stores'
// flat tables against a map model: flag ORs, adds, strided bulk adds
// that force several resizes, merges smaller into larger, and clears
// after a flush. Keys include 0, 255.255.255.255 and the largest packed
// adjacency key.
func FuzzEvidenceTables(f *testing.F) {
	op := func(code, table int, key uint32, arg byte) []byte {
		b := []byte{byte(table*numOps + code), 0, 0, 0, 0, arg}
		binary.LittleEndian.PutUint32(b[1:5], key)
		return b
	}
	seq := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	f.Add(seq(
		op(opFlag, 0, 0, 0x80|0x40|flagSeen),         // address 0
		op(opFlag, 0, 0, 0x80|flagSeen|flagRetained), // 255.255.255.255
		op(opAdj, 0, 0, 0x80|0x40),                   // packed key 0
		op(opAdj, 0, 0, 0x80),                        // largest packed key
		op(opBulk, 0, 0x0a000000, 255),
		op(opBulk, 1, 0x0a000800, 200),
		op(opMerge, 1, 0, 0),
		op(opFlag, 0, 0x0a000004, flagRetained),
		op(opFlush, 0, 0, 0),
		op(opBulk, 0, 0xfffff000, 255),
		op(opFlag, 1, 0, 0x80|0x40|flagRetained),
		op(opMerge, 0, 0, 0),
	))
	f.Add(seq(
		op(opBulk, 0, 0x10000000, 63),
		op(opFlush, 0, 0, 0),
		op(opBulk, 0, 0x20000000, 127),
		op(opAdj, 1, 0x20000000, 7),
		op(opMerge, 0, 0, 0),
		op(opFlush, 1, 0, 0),
		op(opBulk, 1, 0x30000000, 255),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		stores := [2]evidenceStore{newEvidenceStore(), newEvidenceStore()}
		models := [2]tableModel{newTableModel(), newTableModel()}
		for ; len(data) >= 6; data = data[6:] {
			code, i := int(data[0])%numOps, int(data[0])/numOps%2
			key, arg := binary.LittleEndian.Uint32(data[1:5]), data[5]
			s, m := &stores[i], models[i]
			switch code {
			case opFlag, opAdj:
				addr, adj := inet.Addr(key), uint64(key)<<32|uint64(key*0x9e3779b9^uint32(arg))
				if arg&0x80 != 0 {
					addr, adj = math.MaxUint32, math.MaxUint64
					if arg&0x40 != 0 {
						addr, adj = 0, 0
					}
				}
				if code == opFlag {
					s.addrs.put(addr, arg&3)
					m.addrs[addr] |= arg & 3
				} else {
					s.adjs.put(adj, 0)
					m.adjs[adj] = true
				}
			case opBulk:
				stride := 1 + key>>28
				for j := uint32(0); j < 16*(uint32(arg)+1); j++ {
					a := inet.Addr(key + j*stride)
					fl := flagSeen | uint8(j&1)<<1
					s.addrs.put(a, fl)
					m.addrs[a] |= fl
					adj := uint64(key)<<32 | uint64(j*stride)
					s.adjs.put(adj, 0)
					m.adjs[adj] = true
				}
			case opMerge:
				dst, dm := &stores[1-i], models[1-i]
				s.addrs.mergeInto(&dst.addrs)
				s.adjs.mergeInto(&dst.adjs)
				for a, fl := range m.addrs {
					dm.addrs[a] |= fl
				}
				for k := range m.adjs {
					dm.adjs[k] = true
				}
				stores[i], models[i] = newEvidenceStore(), newTableModel()
			case opFlush:
				checkTables(t, "before clear", s, m)
				s.addrs.clear()
				s.adjs.clear()
				models[i] = newTableModel()
			}
		}
		checkTables(t, "store 0", &stores[0], models[0])
		checkTables(t, "store 1", &stores[1], models[1])
	})
}

// maxProbe returns the longest distance any key in t sits from its home
// slot.
func maxProbe[K ~uint32 | ~uint64](t *flatTable[K]) int {
	mask := len(t.keys) - 1
	worst := 0
	for i, k := range t.keys {
		if k != 0 {
			worst = max(worst, (i-t.home(k))&mask)
		}
	}
	return worst
}

// TestFlatTableStructuredKeys fills the tables with the structured keys
// real corpora produce — every /30-aligned address of one /8, and
// adjacencies that all share one First — and bounds the longest probe.
// Linear probing under a well-mixed hash keeps it logarithmic in the
// key count (a few dozen slots here); an unmixed or poorly mixed hash
// lines these keys up into clusters thousands of slots long. The bound
// is checked whenever the key count doubles, so a clustering hash fails
// fast instead of grinding through quadratic inserts.
func TestFlatTableStructuredKeys(t *testing.T) {
	const probeBound = 128
	check := func(name string, n, probe int) {
		t.Helper()
		if probe > probeBound {
			t.Fatalf("%s: longest probe %d slots after %d keys, bound %d", name, probe, n, probeBound)
		}
	}
	s := newEvidenceStore()
	base := inet.MustParseAddr("10.0.0.0")
	for i, next := 0, 1024; i < 1<<22; i++ {
		s.addrs.put(base+inet.Addr(i)<<2, flagSeen)
		if i+1 == next {
			check("addresses", next, maxProbe(&s.addrs))
			next *= 2
		}
	}
	if s.addrs.len() != 1<<22 {
		t.Fatalf("address table holds %d keys, want %d", s.addrs.len(), 1<<22)
	}
	first := uint64(inet.MustParseAddr("192.0.2.1"))
	for i, next := uint64(0), uint64(1024); i < 1<<20; i++ {
		s.adjs.put(first<<32|i<<2, 0)
		if i+1 == next {
			check("adjacencies", int(next), maxProbe(&s.adjs))
			next *= 2
		}
	}
	t.Logf("longest probe: addresses %d, adjacencies %d", maxProbe(&s.addrs), maxProbe(&s.adjs))
}

// TestSortKeys checks the radix sort against pdqsort on both key widths,
// around the size cutoff and with bytes every key shares.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 999, 1000, 1001, 50000} {
		// Bytes in shared are equal across the keys, save that an
		// outlier breaks every byte for one key.
		for _, shared := range []uint64{0, 0xffff0000ff00ff00} {
			for _, outlier := range []bool{false, true} {
				k64 := make([]uint64, n)
				k32 := make([]inet.Addr, n)
				for i := range k64 {
					k64[i] = rng.Uint64()&^shared | shared&0x00ff0000ff000000
					k32[i] = inet.Addr(k64[i])
				}
				if n > 0 && outlier {
					k64[0], k32[0] = math.MaxUint64, math.MaxUint32
				}
				want64, want32 := slices.Clone(k64), slices.Clone(k32)
				slices.Sort(want64)
				slices.Sort(want32)
				sortKeys(k64)
				sortKeys(k32)
				if !slices.Equal(k64, want64) || !slices.Equal(k32, want32) {
					t.Errorf("n=%d shared=%#x outlier=%v: radix sort diverges from pdqsort", n, shared, outlier)
				}
			}
		}
	}
}
