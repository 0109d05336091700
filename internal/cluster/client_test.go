package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepcontext/internal/profstore"
	"deepcontext/internal/telemetry"
)

// fakePeer serves /cluster/partials with answer and counts the attempts.
func fakePeer(t *testing.T, answer http.HandlerFunc) (*peer, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		answer(w, r)
	}))
	t.Cleanup(ts.Close)
	p := newPeer(Node{ID: "p", Addr: ts.URL}, telemetry.NewRegistry(), Options{Backoff: time.Millisecond}.withDefaults())
	return p, &hits
}

// TestPeerAnswerRetries pins which failures are retried: transport errors
// and 5xx are (a restart or a blip may clear them); a 4xx, an answer over
// the cap, an answer in another wire version and a malformed answer are
// not — the same request gets the same bytes back, and each retry would
// re-run the peer's whole export.
func TestPeerAnswerRetries(t *testing.T) {
	const limit = 1 << 10
	big := strings.Repeat("x", 2*limit)
	for _, tc := range []struct {
		name     string
		answer   http.HandlerFunc
		attempts int32
		want     string
		is       error
	}{
		{"oversize with length", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(big)) // one write under the buffer size: net/http sets Content-Length
		}, 1, "answer of 2048 bytes exceeds the 1024-byte cap", nil},
		{"oversize chunked", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(big[:limit]))
			w.(http.Flusher).Flush()
			w.Write([]byte(big[limit:]))
		}, 1, "answer exceeds the 1024-byte cap", nil},
		{"malformed", func(w http.ResponseWriter, r *http.Request) {
			w.Write(append(EncodePartials(&PartialsResponse{}), 0xde))
		}, 1, "trailing bytes", ErrMalformed},
		{"older wire version", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(&PartialsResponse{})
		}, 1, "wire version does not match", ErrWireVersion},
		{"4xx", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusBadRequest, errors.New("bad request body"))
		}, 1, "bad request body", nil},
		{"5xx", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusInternalServerError, errors.New("disk on fire"))
		}, 3, "disk on fire", nil},
		{"transport", func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, 3, "EOF", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, hits := fakePeer(t, tc.answer)
			p.maxAnswer = limit
			_, err := p.postPartials(context.Background(), "/cluster/partials", &PartialsRequest{Kind: "range"})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err = %v, want it to match %v", err, tc.is)
			}
			if got := hits.Load(); got != tc.attempts {
				t.Fatalf("%d attempts, want %d", got, tc.attempts)
			}
			if got := p.failed.Value(); got != int64(tc.attempts) {
				t.Fatalf("error outcome counted %d times, want %d", got, tc.attempts)
			}
		})
	}
}

// dcserver_cluster_peer_seconds covers the body transfer, not just the
// wait for the response headers.
func TestPeerLatencyIncludesBody(t *testing.T) {
	const stall = 100 * time.Millisecond
	p, _ := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(stall)
		w.Write(EncodePartials(&PartialsResponse{}))
	})
	if _, err := p.postPartials(context.Background(), "/cluster/partials", &PartialsRequest{Kind: "range"}); err != nil {
		t.Fatal(err)
	}
	if n, sum := p.latency.Count(), p.latency.Sum(); n != 1 || sum < stall {
		t.Fatalf("latency histogram: %d observations summing %v, want 1 of at least %v", n, sum, stall)
	}
}

// TestPeerWireVersionMismatchDegrades runs a coordinator beside a peer of
// the previous release, which answers /cluster/partials in JSON. The query
// must still answer from the local share with the peer named down, and the
// peer's recorded error must say the wire version does not match.
func TestPeerWireVersionMismatchDegrades(t *testing.T) {
	now := func() time.Time { return time.Date(2026, 1, 1, 0, 0, 30, 0, time.UTC) }
	self := profstore.New(profstore.Config{Window: time.Minute, Now: now})
	t.Cleanup(self.Close)
	old := profstore.New(profstore.Config{Window: time.Minute, Now: now})
	t.Cleanup(old.Close)
	var hits atomic.Int32
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		var req PartialsRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp, err := ServePartials(r.Context(), old, &req)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	}))
	t.Cleanup(legacy.Close)
	tbl := &Table{Generation: 1, Nodes: []Node{{ID: "n1", Addr: "http://n1.invalid"}, {ID: "old", Addr: legacy.URL}}}
	c, err := New(Config{Self: "n1", Store: self, Table: tbl, Options: Options{Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := testProfile("wl-"+string(rune('a'+i)), 1)
		st := self
		if c.OwnerOf(profstore.LabelsOf(p.Meta)) == "old" {
			st = old
		}
		if _, err := st.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	_, info, err := c.Hotspots(context.Background(), time.Time{}, time.Time{}, profstore.Labels{}, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if cov := info.Coverage; cov == nil || cov.NodesUp != 1 || len(cov.Down) != 1 || cov.Down[0] != "old" {
		t.Fatalf("coverage = %+v, want old down and n1 up", info.Coverage)
	}
	if _, lastErr, _ := c.peers["old"].status(); !strings.Contains(lastErr, "wire version does not match") {
		t.Fatalf("peer error %q does not name the wire version", lastErr)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("the mismatched peer was asked %d times, want once (no retry)", got)
	}
}
