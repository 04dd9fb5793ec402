package core

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// flatTable is the collectors' deduplication structure: an
// open-addressed hash table of packed integer keys with linear probing
// over a power-of-two slot array. An address table (K = inet.Addr)
// carries a flag byte per key; an adjacency set (K = uint64, packed
// First<<32|Second) carries none. A zero slot marks an empty one, so
// key 0 is held outside the slots. Every table draws its own seed for
// the mixer: structured or hostile keys do not cluster, and merging one
// table into another never replays a shared hash order.
//
// Tables grow at 3/4 load and never shrink: clear keeps the slots, so a
// table flushed to a spill run refills without growing again from its
// minimum size.
type flatTable[K ~uint32 | ~uint64] struct {
	keys  []K
	vals  []uint8 // parallel to keys; nil in a set
	n     int     // keys held in slots
	shift uint8   // 64 - log2(len(keys))
	seed  uint64

	zero    bool // key 0 is held
	zeroVal uint8
}

// minTableSlots is a fresh table's first allocation.
const minTableSlots = 1 << 10

// home is k's first probe slot.
func (t *flatTable[K]) home(k K) int {
	h := (uint64(k) ^ t.seed) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return int(h >> t.shift)
}

// len returns the number of keys held.
func (t *flatTable[K]) len() int {
	if t.zero {
		return t.n + 1
	}
	return t.n
}

// put adds k, ORing v into its value (ignored by a set).
func (t *flatTable[K]) put(k K, v uint8) {
	if k == 0 {
		t.zero = true
		t.zeroVal |= v
		return
	}
	if t.n >= len(t.keys)/4*3 {
		t.grow(2 * len(t.keys))
	}
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			if t.vals != nil {
				t.vals[i] |= v
			}
			return
		case 0:
			t.keys[i] = k
			if t.vals != nil {
				t.vals[i] = v
			}
			t.n++
			return
		}
	}
}

// grow rehashes into at least slots slots (a power of two, at least
// minTableSlots). The seed is drawn when the first slots are.
func (t *flatTable[K]) grow(slots int) {
	slots = max(slots, minTableSlots)
	if t.keys == nil {
		t.seed = rand.Uint64()
	}
	old, oldVals := t.keys, t.vals
	t.keys = make([]K, slots)
	if oldVals != nil {
		t.vals = make([]uint8, slots)
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
	t.n = 0
	t.putAll(old, oldVals)
}

// putAll adds the keys of a slot array, with their values (vals nil:
// none), skipping empty slots.
func (t *flatTable[K]) putAll(keys []K, vals []uint8) {
	for i, k := range keys {
		if k != 0 {
			var v uint8
			if vals != nil {
				v = vals[i]
			}
			t.put(k, v)
		}
	}
}

// clear empties the table, keeping its slots and seed.
func (t *flatTable[K]) clear() {
	clear(t.keys)
	clear(t.vals)
	t.n, t.zero, t.zeroVal = 0, false, 0
}

// mergeInto merges the smaller of *t and *dst into the larger, ORing
// values, and leaves the union in *dst; *t must not be used afterwards.
// The tables' seeds differ, so the source's slot order is no hash order
// of the destination's.
func (t *flatTable[K]) mergeInto(dst *flatTable[K]) {
	if t.len() > dst.len() {
		*t, *dst = *dst, *t
	}
	dst.putAll(t.keys, t.vals)
	if t.zero {
		dst.put(0, t.zeroVal)
	}
}

// appendSorted appends the keys whose value has a bit of mask set
// (every key when mask is 0) to dst[:0], ascending.
func (t *flatTable[K]) appendSorted(dst []K, mask uint8) []K {
	dst = dst[:0]
	if t.zero && (mask == 0 || t.zeroVal&mask != 0) {
		dst = append(dst, 0)
	}
	for i, k := range t.keys {
		if k != 0 && (mask == 0 || t.vals[i]&mask != 0) {
			dst = append(dst, k)
		}
	}
	sortKeys(dst)
	return dst
}

// sortKeys sorts packed keys ascending: an LSD radix sort by bytes that
// skips a byte every key shares, and pdqsort below a thousand keys.
// Several times faster than pdqsort on the tens of thousands of keys a
// collector or a window finalises.
func sortKeys[K ~uint32 | ~uint64](keys []K) {
	if len(keys) < 1000 {
		slices.Sort(keys)
		return
	}
	width := 32
	if uint64(^K(0)) > math.MaxUint32 {
		width = 64
	}
	src, dst := keys, make([]K, len(keys))
	for shift := 0; shift < width; shift += 8 {
		var pos [256]int
		for _, k := range src {
			pos[byte(k>>shift)]++
		}
		if pos[byte(src[0]>>shift)] == len(src) {
			continue
		}
		sum := 0
		for i, c := range pos {
			pos[i], sum = sum, sum+c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[pos[d]] = k
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// count returns how many keys' values have a bit of mask set.
func (t *flatTable[K]) count(mask uint8) int {
	c := 0
	if t.zero && t.zeroVal&mask != 0 {
		c++
	}
	for i, k := range t.keys {
		if k != 0 && t.vals[i]&mask != 0 {
			c++
		}
	}
	return c
}
