package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// listener serves a handler over a real loopback socket with net/http,
// as mapitd does.
type listener struct {
	hs   *http.Server
	base string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its serve loop to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient is a keep-alive client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// The trace context a traced client hands the server-side wrapper.
const (
	spanHeader = "X-Bench-Span"
	runHeader  = "X-Bench-Run"
)

// do sends one request and reads the whole response body into buf. With
// a tracer, the round trip is a span whose id travels in a header, so
// the server side can record its span as a child.
func do(c *http.Client, t *tracer, run, name, method, url string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	sp := t.begin(run, 0, name)
	if t != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
		req.Header.Set(runHeader, run)
	}
	resp, err := c.Do(req)
	if err != nil {
		sp.end()
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := sp.end()
	if err != nil {
		return 0, 0, fmt.Errorf("read %s body: %w", url, err)
	}
	return resp.StatusCode, d, nil
}

// tracedHandler records a server-side span around every request, as the
// child of the client span named in the request's header.
func tracedHandler(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		name := "serve.handler"
		if r.Method == http.MethodPost {
			name = "serve.ingest_handler"
		}
		t.record(r.Header.Get(runHeader), parent, name, start, time.Now())
	})
}

// waitReady polls /v1/healthz until the daemon answers ready (or, when
// wantSnapshot is false, answers at all).
func waitReady(c *http.Client, base string, wantSnapshot bool) error {
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		status, _, err := do(c, nil, "", "", http.MethodGet, base+"/v1/healthz", nil, &buf)
		if err == nil && status == http.StatusOK {
			var h struct {
				Ready bool `json:"ready"`
			}
			if err := json.Unmarshal(buf.Bytes(), &h); err != nil {
				return fmt.Errorf("healthz body: %w", err)
			}
			if h.Ready || !wantSnapshot {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("daemon never became ready")
}

// loopStats is what one client connection measured. Latencies go into
// fixed-size histograms: the whole run, and each whole second from start.
type loopStats struct {
	lat       hist
	perSec    []hist
	start     time.Time
	late      time.Duration // how far behind schedule an open loop fell
	attempted int64
	errs      []error
}

func newLoopStats(start time.Time, d time.Duration) *loopStats {
	return &loopStats{start: start, perSec: make([]hist, int(d/time.Second))}
}

func (st *loopStats) record(d time.Duration) {
	st.lat.add(d)
	if k := int(time.Since(st.start) / time.Second); k < len(st.perSec) {
		st.perSec[k].add(d)
	}
}

func (st *loopStats) merge(o *loopStats) {
	st.lat.merge(&o.lat)
	for k := range st.perSec {
		st.perSec[k].merge(&o.perSec[k])
	}
	st.late = max(st.late, o.late)
	st.attempted += o.attempted
	st.errs = append(st.errs, o.errs...)
}

// perSecond returns, for each whole second, the lookups completed in it
// and their p-th percentile latency in ms.
func (st *loopStats) perSecond(p float64) (counts, tails sample) {
	for k := range st.perSec {
		counts = append(counts, float64(st.perSec[k].n))
		tails = append(tails, st.perSec[k].percentile(p, time.Millisecond))
	}
	return counts, tails
}

// lookupLoop is one client connection walking the mix from start until
// stop is closed or limit requests were sent (limit 0: no limit),
// recording into st. With every 0 it is a closed loop: the next lookup
// goes out only after the previous response was read and checked. With
// every > 0 it is an open loop sending one lookup per interval; a
// request's latency then runs from when it was due, so a stall also
// counts against the requests queued behind it.
func lookupLoop(st *loopStats, c *http.Client, t *tracer, run, base string, reqs []request, start, limit int, every time.Duration,
	check func(i, status int, body []byte) error, stop <-chan struct{}) {

	var buf bytes.Buffer
	begin := time.Now()
	for k := 0; limit == 0 || k < limit; k++ {
		due := begin.Add(time.Duration(k) * every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		sent := time.Now()
		i := (start + k) % len(reqs)
		status, d, err := do(c, t, run, "http.lookup", http.MethodGet, base+reqs[i].path, nil, &buf)
		if err == nil {
			err = check(i, status, buf.Bytes())
		}
		st.attempted++
		if err != nil {
			st.errs = append(st.errs, err)
			continue
		}
		if every > 0 {
			d += sent.Sub(due)
			st.late = max(st.late, sent.Sub(due))
		}
		st.record(d)
	}
}

// addTo tallies the loop's operations into a report.
func (st *loopStats) addTo(rep *report) {
	rep.attempted += st.attempted
	rep.failed += int64(len(st.errs))
	for i, err := range st.errs {
		if i == 5 {
			break
		}
		rep.note("FAILED: %v", err)
	}
}
