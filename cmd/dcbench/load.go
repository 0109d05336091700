package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout is how long one request may take before it counts as failed.
const opTimeout = 5 * time.Second

// connections is how many connections the generator drives: one per CPU,
// two on the reference box, never more than four — the generator shares
// the machine with the servers it measures.
func connections() int {
	return max(1, min(4, runtime.NumCPU()))
}

// conn is one keep-alive connection to one server, used by one goroutine
// at a time. Each has its own transport, so n conns are n TCP connections.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the response to EOF. The returned body aliases the
// conn's buffer and is valid until the next call.
func (c *conn) do(r *request) (status int, body []byte, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// get is do for set-up and verification: a 200 or 202 body, copied.
func (c *conn) get(path string) ([]byte, error) {
	status, body, err := c.do(&request{method: "GET", path: path})
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, status, bytes.TrimSpace(body))
	}
	return append([]byte(nil), body...), nil
}

// tally is what one loop did. Failed requests count against attempts and
// have no latency.
type tally struct {
	attempted, failed int64
	profiles          int64 // profiles acknowledged
	queries           int64 // queries answered
	issues            int64 // analyzer findings (offline pipelines only)
	reqBytes          int64 // body bytes of acknowledged requests
	// One entry per successful request, in completion order per
	// connection: its latency, when it completed, the profiles it carried
	// (0 for a query) and its index in the request list.
	latencies    []time.Duration
	ends         []time.Time
	counts       []int32
	done         []int32
	elapsed      time.Duration
	firstFailure string
	acks         [][]byte // response bodies kept for parsing after the phase (keepAcks)
	spans        []span
	// first and last hold, per closed-window query path, the first and the
	// latest response seen; changed lists the paths whose answer differed
	// between any two occurrences.
	first, last map[string][]byte
	changed     []string
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.profiles += o.profiles
	t.queries += o.queries
	t.issues += o.issues
	t.reqBytes += o.reqBytes
	t.latencies = append(t.latencies, o.latencies...)
	t.ends = append(t.ends, o.ends...)
	t.counts = append(t.counts, o.counts...)
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
	t.done = append(t.done, o.done...)
	t.acks = append(t.acks, o.acks...)
	t.spans = append(t.spans, o.spans...)
}

func (t *tally) ops() int64 { return t.profiles + t.queries }

// record books one finished request.
func (t *tally) record(idx int, r *request, status int, err error, lat time.Duration, end time.Time) bool {
	t.attempted++
	if err != nil || status/100 != 2 {
		t.failed++
		if t.firstFailure == "" {
			if err != nil {
				t.firstFailure = fmt.Sprintf("%s %s: %v", r.method, r.path, err)
			} else {
				t.firstFailure = fmt.Sprintf("%s %s: HTTP %d", r.method, r.path, status)
			}
		}
		return false
	}
	t.latencies = append(t.latencies, lat)
	t.ends = append(t.ends, end)
	t.counts = append(t.counts, int32(r.profiles))
	t.done = append(t.done, int32(idx))
	if r.profiles > 0 {
		t.profiles += int64(r.profiles)
		t.reqBytes += int64(len(r.body))
	} else {
		t.queries++
	}
	return true
}

// loopOptions tunes closedLoop.
type loopOptions struct {
	until    time.Time // stop issuing at this time ...
	maxOps   int       // ... or after this many requests (0 = no cap)
	keepAcks bool      // keep every response body (small acknowledgements only)
	tracer   *tracer   // non-nil records a client span around every call
}

// closedLoop drives reqs from the given connections, one goroutine each:
// every connection sends its next request when the previous one has been
// answered. Request i is reqs[i mod len(reqs)], handed out by a shared
// counter, so the sequence sent is the same whatever the connection count.
// A query marked closed has its first and last response bytes kept for
// the unchanged-answer check.
func closedLoop(conns []*conn, reqs []request, opt loopOptions) *tally {
	var next atomic.Int64
	parts := make([]*tally, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			t := &tally{first: map[string][]byte{}, last: map[string][]byte{}}
			parts[w] = t
			for {
				i := int(next.Add(1) - 1)
				if opt.maxOps > 0 && i >= opt.maxOps {
					return
				}
				t0 := time.Now()
				if !opt.until.IsZero() && !t0.Before(opt.until) {
					return
				}
				r := &reqs[i%len(reqs)]
				status, body, err := c.do(r)
				t1 := time.Now()
				ok := t.record(i%len(reqs), r, status, err, t1.Sub(t0), t1)
				if opt.tracer != nil {
					t.spans = append(t.spans, span{Name: "client " + r.route, Start: t0, End: t1, Request: int64(i) + 1})
				}
				if !ok {
					continue
				}
				if opt.keepAcks {
					t.acks = append(t.acks, append([]byte(nil), body...))
				}
				if r.closed {
					if _, seen := t.first[r.path]; !seen {
						t.first[r.path] = append([]byte(nil), body...)
					}
					t.last[r.path] = append(t.last[r.path][:0], body...)
				}
			}
		}(w, c)
	}
	wg.Wait()
	total := &tally{first: map[string][]byte{}}
	for _, p := range parts {
		total.merge(p)
		for path, body := range p.first {
			ref, seen := total.first[path]
			if !seen {
				total.first[path], ref = body, body
			}
			if !bytes.Equal(ref, body) || !bytes.Equal(ref, p.last[path]) {
				total.changed = append(total.changed, path)
			}
		}
	}
	total.elapsed = time.Since(start)
	if opt.tracer != nil {
		opt.tracer.addAll(total.spans)
	}
	return total
}

// clock is the time source of the paced writer; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacedResult is a paced writer's tally plus how late the generator itself
// ran: the gap between the moment a request could first have been sent —
// its due time, or the return of its predecessor if that came later — and
// the moment it was sent. That gap is the generator's and the scheduler's
// doing, never the server's.
type pacedResult struct {
	tally
	lateness []time.Duration
}

// pacedLoop sends reqs in order (cyclically) on one connection at a fixed
// rate: request i is due at start + i/rate whether or not earlier ones have
// been answered in time. With one connection a request cannot leave before
// its predecessor returns, so a stall makes the following requests late;
// latency is therefore measured from the due time, which charges that wait
// to the server, and the send delay is reported separately as lateness.
func pacedLoop(ck clock, send func(*request) (int, error), reqs []request, rate float64, until time.Time) *pacedResult {
	res := &pacedResult{}
	interval := time.Duration(float64(time.Second) / rate)
	start := ck.Now()
	free := start // when the connection became free
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			break
		}
		if now := ck.Now(); now.Before(due) {
			ck.Sleep(due.Sub(now))
		}
		sent := ck.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		r := &reqs[i%len(reqs)]
		status, err := send(r)
		free = ck.Now()
		if res.record(i%len(reqs), r, status, err, free.Sub(due), free) {
			res.lateness = append(res.lateness, sent.Sub(ready))
		}
	}
	res.elapsed = ck.Now().Sub(start)
	return res
}
