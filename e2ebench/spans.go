package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer times
// calls without recording them, so traced and untraced runs share one
// code path and differ only in the recording.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span.
type active struct {
	t          *tracer
	id, parent uint64
	run, name  string
	start      time.Time
}

// begin opens a span; parent is 0 for a root span.
func (t *tracer) begin(run string, parent uint64, name string) active {
	a := active{t: t, parent: parent, run: run, name: name, start: time.Now()}
	if t != nil {
		a.id = t.next.Add(1)
	}
	return a
}

// end closes the span and returns its duration.
func (a active) end() time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if a.t != nil {
		s := span{ID: a.id, Parent: a.parent, Run: a.run, Name: a.name,
			Start: a.start.Sub(a.t.epoch).Nanoseconds(), End: now.Sub(a.t.epoch).Nanoseconds()}
		a.t.mu.Lock()
		a.t.spans = append(a.t.spans, s)
		a.t.mu.Unlock()
	}
	return d
}

// record adds a span whose interval was measured elsewhere (on the
// server side of a request, for instance).
func (t *tracer) record(run string, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.next.Add(1), Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	first := true
	for _, v := range iv {
		switch {
		case first:
			curLo, curHi, first = v[0], v[1], false
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if !first {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// medianSelf is the median self time of the named spans in unit; 0 when
// the name was never recorded.
func medianSelf(self map[string][]time.Duration, name string, unit time.Duration) float64 {
	ds := self[name]
	if len(ds) == 0 {
		return 0
	}
	return durations(ds, unit).median()
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}
