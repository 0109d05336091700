package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"deepcontext/internal/telemetry"
)

// Options tunes the per-peer HTTP client.
type Options struct {
	// Timeout bounds one attempt (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed idempotent request is retried
	// (default 2, so 3 attempts). Ingest forwards never retry — a
	// re-delivered merge would double-count.
	Retries int
	// Backoff is the first retry's delay, doubling per retry (default
	// 50ms).
	Backoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	return o
}

// maxAnswerBytes caps one peer answer: a node's share of a query over a
// large store, or a handoff export.
const maxAnswerBytes = 64 << 20

// peer is one remote node's client: retry/timeout/backoff plus per-peer
// telemetry (request counters by outcome and a latency histogram, labeled
// with the peer id — the same labeled-handle pattern dcserver's endpoint
// metrics use).
type peer struct {
	id        string
	base      string
	hc        *http.Client
	opts      Options
	maxAnswer int64 // cap on one answer body, maxAnswerBytes outside tests

	ok      *telemetry.Counter
	failed  *telemetry.Counter
	retries *telemetry.Counter
	latency *telemetry.Histogram

	mu          sync.Mutex
	up          bool
	lastErr     string
	lastContact time.Time
}

func newPeer(n Node, reg *telemetry.Registry, opts Options) *peer {
	p := &peer{
		id:        n.ID,
		base:      n.Addr,
		hc:        &http.Client{Timeout: opts.Timeout},
		opts:      opts,
		maxAnswer: maxAnswerBytes,
		up:        true,
	}
	if reg != nil {
		l := telemetry.L("peer", n.ID)
		p.ok = reg.Counter("dcserver_cluster_peer_requests_total",
			"Cluster peer requests by outcome.", l, telemetry.L("outcome", "ok"))
		p.failed = reg.Counter("dcserver_cluster_peer_requests_total",
			"Cluster peer requests by outcome.", l, telemetry.L("outcome", "error"))
		p.retries = reg.Counter("dcserver_cluster_peer_retries_total",
			"Cluster peer request retries.", l)
		p.latency = reg.Histogram("dcserver_cluster_peer_seconds",
			"Cluster peer request latency.", l)
	}
	return p
}

// status snapshots the peer's last-known health.
func (p *peer) status() (up bool, lastErr string, lastContact time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up, p.lastErr, p.lastContact
}

func (p *peer) note(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastContact = time.Now()
	if err != nil {
		p.up = false
		p.lastErr = err.Error()
	} else {
		p.up = true
		p.lastErr = ""
	}
}

// remoteError is a non-2xx peer response; the body's error text (dcserver's
// {"error": ...} shape) is preserved so the coordinator can re-serve the
// owning node's exact query error.
type remoteError struct {
	status int
	msg    string
}

func (e *remoteError) Error() string { return e.msg }

// answerError is a 2xx answer this node cannot use: over the size cap, in
// another wire version, or malformed. The same request would get the same
// bytes back, so it is never retried.
type answerError struct{ err error }

func (e *answerError) Error() string { return e.err.Error() }
func (e *answerError) Unwrap() error { return e.err }

// retryable reports whether an attempt's failure is worth retrying:
// transport errors and 5xx yes; 4xx (the request itself is bad) and
// unusable answers no.
func retryable(err error) bool {
	var re *remoteError
	if errors.As(err, &re) {
		return re.status >= 500
	}
	var ae *answerError
	return !errors.As(err, &ae)
}

// do performs one HTTP exchange with retries (retry=true) or a single
// attempt (retry=false), handing a 2xx answer's body to decode when
// non-nil.
func (p *peer) do(ctx context.Context, method, path, contentType string, body []byte, decode func([]byte) error, retry bool) error {
	attempts := 1
	if retry {
		attempts += p.opts.Retries
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if p.retries != nil {
				p.retries.Inc()
			}
			delay := p.opts.Backoff << (attempt - 1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err = p.attempt(ctx, method, path, contentType, body, decode)
		if err == nil {
			if p.ok != nil {
				p.ok.Inc()
			}
			p.note(nil)
			return nil
		}
		if p.failed != nil {
			p.failed.Inc()
		}
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	p.note(err)
	return fmt.Errorf("cluster: peer %s %s%s: %w", p.id, p.base, path, err)
}

// attempt is one request and its answer. The latency histogram covers the
// whole exchange, body transfer included; decoding is not part of it.
func (p *peer) attempt(ctx context.Context, method, path, contentType string, body []byte, decode func([]byte) error) error {
	var t0 time.Time
	if p.latency != nil {
		t0 = time.Now()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := p.hc.Do(req)
	var data []byte
	if err == nil {
		data, err = readAnswer(resp, p.maxAnswer)
		resp.Body.Close()
	}
	if p.latency != nil {
		p.latency.Observe(time.Since(t0))
	}
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg := strings.TrimSpace(string(data))
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &remoteError{status: resp.StatusCode, msg: msg}
	}
	if decode != nil {
		if err := decode(data); err != nil {
			return &answerError{fmt.Errorf("decode answer: %w", err)}
		}
	}
	return nil
}

// readAnswer reads a response body of at most limit bytes into one buffer
// sized from Content-Length. An answer over the cap is an answerError.
func readAnswer(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, &answerError{fmt.Errorf("answer of %d bytes exceeds the %d-byte cap on peer answers", resp.ContentLength, limit)}
	}
	var buf bytes.Buffer
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, &answerError{fmt.Errorf("answer exceeds the %d-byte cap on peer answers", limit)}
	}
	return buf.Bytes(), nil
}

// decodeJSON returns a decoder that unmarshals a JSON answer into out.
func decodeJSON(out any) func([]byte) error {
	return func(b []byte) error { return json.Unmarshal(b, out) }
}

// postJSON marshals in and POSTs it, handing the answer to decode.
func (p *peer) postJSON(ctx context.Context, path string, in any, decode func([]byte) error, retry bool) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: encode request: %w", err)
	}
	return p.do(ctx, http.MethodPost, path, "application/json", body, decode, retry)
}

// postPartials POSTs a JSON request and decodes the peer-wire answer. It
// retries, because every such request is a read.
func (p *peer) postPartials(ctx context.Context, path string, in any) (*PartialsResponse, error) {
	var out *PartialsResponse
	err := p.postJSON(ctx, path, in, func(b []byte) (err error) {
		out, err = DecodePartials(b)
		return err
	}, true)
	return out, err
}
