package main

import (
	"math"
	"math/bits"
	"time"
)

// histSub is the number of linear sub-buckets per power of two.
const histSub = 64

// hist is a fixed-size log-linear latency histogram: values below
// histSub ns are exact, larger ones fall in one of histSub buckets per
// power of two, so a bucket is at most 1/histSub of its values wide. Its
// size does not grow with the number of samples, so recording hundreds
// of thousands of lookups leaves the process's live heap, which
// peak_heap_mb reports, where it was.
type hist struct {
	counts [32 * histSub]uint64
	n      int64
}

// bucket returns the bucket of v and the bucket's lower bound and width.
func histBucket(v uint64) (idx int, lo, width uint64) {
	if v < histSub {
		return int(v), v, 1
	}
	shift := bits.Len64(v) - 7 // v>>shift is in [histSub, 2*histSub)
	m := v >> shift
	idx = (shift+1)*histSub + int(m-histSub)
	if idx >= len(hist{}.counts) {
		idx = len(hist{}.counts) - 1
	}
	return idx, m << shift, 1 << shift
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx, _, _ := histBucket(uint64(d))
	h.counts[idx]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the p-th percentile (0..100) in the given unit,
// interpolating inside the bucket as if its samples were spread evenly;
// NaN when empty.
func (h *hist) percentile(p float64, unit time.Duration) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(h.n-1)
	acc := 0.0
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < acc+float64(c) {
			lo, width := histBounds(idx)
			v := float64(lo) + float64(width)*(rank-acc+0.5)/float64(c)
			return v / float64(unit)
		}
		acc += float64(c)
	}
	return math.NaN() // unreachable: rank < n
}

// histBounds inverts histBucket.
func histBounds(idx int) (lo, width uint64) {
	if idx < histSub {
		return uint64(idx), 1
	}
	shift := idx/histSub - 1
	m := uint64(idx%histSub + histSub)
	return m << shift, 1 << shift
}
