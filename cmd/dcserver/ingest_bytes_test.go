package main

// Tests for the one-codec-pass ingest path: the bytes a node validated are
// the bytes it logs and forwards, durability failures are the server's
// fault, and bodies are read in one allocation.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/cluster"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

func postBytes(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

func forwardBytes(t *testing.T, ps ...*profiler.Profile) []byte {
	t.Helper()
	b, err := cluster.EncodeForward(ps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func streamBytes(t *testing.T, ps ...*profiler.Profile) []byte {
	t.Helper()
	enc := profdb.NewDeltaEncoder()
	b := profdb.StreamBatch{Seq: 1}
	for i, p := range ps {
		fr, err := enc.EncodeFull(p, 1, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		b.Frames = append(b.Frames, fr)
	}
	var buf bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&buf), &b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A body that does not decode is the client's fault (400) on every ingest
// endpoint; a decoded profile the node cannot make durable is the node's
// (500). The shard directory is made unwritable by putting a regular file
// where it belongs, so the WAL cannot open.
func TestIngestFailureStatusCodes(t *testing.T) {
	clock := &testClock{t: testBase}
	dir := t.TempDir()
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now, Dir: dir, Shards: 1})
	defer store.Close()
	coord, err := cluster.New(cluster.Config{Self: "n1", Store: store, Table: &cluster.Table{
		Generation: 1, Nodes: []cluster.Node{{ID: "n1", Addr: "http://127.0.0.1:0"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, h := newServerHandler(store, coord, profdb.DefaultMaxBytes, 0, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p := testProfile("UNet", 1)
	// A record whose node carries a metric slot past its one metric name:
	// it once decoded cleanly and then panicked the merge.
	extra := testProfile("UNet", 1)
	extra.Tree.Visit(func(n *cct.Node) {
		if len(n.Children()) == 0 {
			n.Excl = append(n.Excl[:extra.Tree.Schema.Len():extra.Tree.Schema.Len()], cct.Metric{Sum: 1, Count: 1})
		}
	})
	endpoints := []struct {
		path    string
		good    []byte
		corrupt [][]byte
	}{
		{"/ingest", dcpBytes(t, p), [][]byte{
			[]byte("definitely not a profile"),
			dcpBytes(t, p)[:40],
			append(dcpBytes(t, p), 0),
			dcpBytes(t, extra),
		}},
		{"/cluster/ingest", forwardBytes(t, p), [][]byte{
			[]byte("definitely not a forward batch"),
			forwardBytes(t, p)[:60],
			forwardBytes(t, extra),
		}},
		{"/stream?session=codes", streamBytes(t, p), [][]byte{
			[]byte("definitely not a stream"),
			streamBytes(t, p)[:60],
		}},
	}
	for _, ep := range endpoints {
		for i, body := range ep.corrupt {
			if code, msg := postBytes(t, ts.URL+ep.path, body); code != http.StatusBadRequest {
				t.Errorf("%s corrupt body %d: status = %d, want 400: %s", ep.path, i, code, msg)
			}
		}
	}
	// A forward whose bundle header is sound but whose second record is
	// not: the first record must not land either.
	good := dcpBytes(t, p)
	_, k := binary.Uvarint(good[len(profdb.FormatMagic):])
	twoRecords := append([]byte(profdb.FormatMagic), 2)
	twoRecords = append(twoRecords, good[len(profdb.FormatMagic)+k:]...)
	twoRecords = append(twoRecords, "\x05junk!"...)
	// A forward from the previous release: a gob batch of v3 full frames.
	var gobForward bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&gobForward), &profdb.StreamBatch{Seq: 1, Frames: []profdb.StreamFrame{
		{Magic: profdb.FormatMagicV3, Epoch: 1, Seq: 1, Meta: p.Meta, Full: good},
	}}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"junk second record": twoRecords, "previous release's gob batch": gobForward.Bytes()} {
		if code, msg := postBytes(t, ts.URL+"/cluster/ingest", body); code != http.StatusBadRequest {
			t.Errorf("/cluster/ingest, %s: status = %d, want 400: %s", name, code, msg)
		}
	}
	if got := store.Stats().Ingested; got != 0 {
		t.Fatalf("%d profiles ingested from corrupt bodies", got)
	}

	if err := os.WriteFile(filepath.Join(dir, "shard-0"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ep := range endpoints {
		if code, msg := postBytes(t, ts.URL+ep.path, ep.good); code != http.StatusInternalServerError {
			t.Errorf("%s with an unwritable shard dir: status = %d, want 500: %s", ep.path, code, msg)
		}
	}
	if got := store.Stats().Ingested; got != 0 {
		t.Fatalf("%d profiles acknowledged without a WAL", got)
	}

	// The disk comes back: the same bodies are accepted.
	if err := os.Remove(filepath.Join(dir, "shard-0")); err != nil {
		t.Fatal(err)
	}
	for _, ep := range endpoints {
		path := strings.Replace(ep.path, "session=codes", "session=codes2", 1) // the failed stream session was dropped
		if code, msg := postBytes(t, ts.URL+path, ep.good); code != http.StatusAccepted && code != http.StatusOK {
			t.Errorf("%s after repair: status = %d: %s", path, code, msg)
		}
	}
	if got := store.Stats().Ingested; got != 3 {
		t.Fatalf("ingested = %d after repair, want 3", got)
	}
}

// lengthless hides a reader's size from net/http, which then sends the
// body chunked, with no Content-Length.
type lengthless struct{ io.Reader }

// The body cap with every kind of declared length: exactly at the cap
// passes, one byte over is 413 — whether the length was declared or the
// body arrived chunked — and a Content-Length that understates the body
// yields a truncated, hence corrupt, profile.
func TestIngestBodyLimits(t *testing.T) {
	body := dcpBytes(t, testProfile("UNet", 1))
	post := func(t *testing.T, maxBody int64, rd io.Reader) int {
		t.Helper()
		ts, _ := newTestServer(t, &testClock{t: testBase}, maxBody)
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", rd)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	n := int64(len(body))
	for _, tc := range []struct {
		name    string
		maxBody int64
		rd      io.Reader
		want    int
	}{
		{"declared, at cap", n, bytes.NewReader(body), http.StatusAccepted},
		{"declared, cap+1", n - 1, bytes.NewReader(body), http.StatusRequestEntityTooLarge},
		{"chunked, at cap", n, lengthless{bytes.NewReader(body)}, http.StatusAccepted},
		{"chunked, cap+1", n - 1, lengthless{bytes.NewReader(body)}, http.StatusRequestEntityTooLarge},
		{"chunked, far under cap", profdb.DefaultMaxBytes, lengthless{bytes.NewReader(body)}, http.StatusAccepted},
	} {
		if got := post(t, tc.maxBody, tc.rd); got != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, got, tc.want)
		}
	}

	// An understated Content-Length: HTTP framing hands the handler only
	// the declared prefix, which cannot decode.
	ts, store := newTestServer(t, &testClock{t: testBase}, profdb.DefaultMaxBytes)
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: %d\r\n\r\n", n-10)
	conn.Write(body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("understated Content-Length: status = %d, want 400", resp.StatusCode)
	}
	if got := store.Stats().Ingested; got != 0 {
		t.Errorf("a truncated body was ingested (%d profiles)", got)
	}
}

// The read buffer comes from Content-Length, but a header that lies cannot
// reserve more than the cap; an honest one costs exactly one allocation's
// worth of capacity.
func TestReadBodyAllocation(t *testing.T) {
	const maxBody = 4096
	s := &server{maxBody: maxBody}
	read := func(declared int64, actual int) ([]byte, int) {
		r := httptest.NewRequest(http.MethodPost, "/ingest", lengthless{bytes.NewReader(make([]byte, actual))})
		r.ContentLength = declared
		w := httptest.NewRecorder()
		raw, ok := s.readBody(w, r)
		if !ok {
			return nil, w.Code
		}
		return raw, http.StatusOK
	}
	raw, code := read(1<<40, 100)
	if code != http.StatusOK || len(raw) != 100 {
		t.Fatalf("overstated length: code %d, %d bytes", code, len(raw))
	}
	// The allocator rounds a request up to its size class, hence the slack.
	if cap(raw) > maxBody+maxBody/2 {
		t.Fatalf("a lying Content-Length reserved %d bytes against a %d-byte cap", cap(raw), maxBody)
	}
	raw, code = read(3000, 3000)
	if code != http.StatusOK || len(raw) != 3000 || cap(raw) < 3000+bytes.MinRead || cap(raw) >= 2*3000 {
		t.Fatalf("declared length: code %d, len %d, cap %d; want one buffer of the declared size plus read slack, never regrown", code, len(raw), cap(raw))
	}
	if raw, code = read(-1, 3000); code != http.StatusOK || len(raw) != 3000 {
		t.Fatalf("absent length: code %d, %d bytes", code, len(raw))
	}
	if _, code = read(-1, maxBody+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1 without a length: code %d, want 413", code)
	}
	if _, code = read(maxBody+1, maxBody+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1 declared: code %d, want 413", code)
	}
	if raw, code = read(maxBody, maxBody); code != http.StatusOK || len(raw) != maxBody {
		t.Fatalf("at cap: code %d, %d bytes", code, len(raw))
	}
}

// receivedBytesTimeline drives three windows of traffic — a few
// single-profile bodies, then a 100-entry bundle whose series overlap
// them — into url over HTTP and, profile by profile in the same order,
// into control through Store.Ingest.
func receivedBytesTimeline(t *testing.T, url string, control *profstore.Store, clock *testClock) {
	t.Helper()
	for round := 0; round < 3; round++ {
		var sent []*profiler.Profile
		for i, sp := range equivalenceSeries[:3] {
			p := labeledProfile(sp.w, sp.v, sp.f, float64(1+round+i))
			if code, msg := postBytes(t, url+"/ingest", dcpBytes(t, p)); code != http.StatusAccepted {
				t.Fatalf("round %d single %d: status %d: %s", round, i, code, msg)
			}
			sent = append(sent, p)
		}
		var entries []profdb.Entry
		for i := 0; i < 100; i++ {
			sp := equivalenceSeries[i%len(equivalenceSeries)]
			w := sp.w
			if i >= len(equivalenceSeries) {
				w = fmt.Sprintf("%s-%02d", sp.w, i)
			}
			p := labeledProfile(w, sp.v, sp.f, float64(2+round+i%5))
			entries = append(entries, profdb.Entry{Name: fmt.Sprintf("entry-%d", i), Profile: p})
			sent = append(sent, p)
		}
		var buf bytes.Buffer
		if err := profdb.SaveBundle(&buf, entries); err != nil {
			t.Fatal(err)
		}
		if code, msg := postBytes(t, url+"/ingest", buf.Bytes()); code != http.StatusAccepted {
			t.Fatalf("round %d bundle: status %d: %s", round, code, msg)
		}
		for _, p := range sent {
			if _, err := control.Ingest(p); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(time.Minute)
	}
}

// TestReceivedBytesSurviveRecovery pins what logging the received bytes
// must not change: a durable deployment fed /ingest bodies, killed without
// a snapshot and recovered from its WALs alone, answers every query
// byte-identically to a store that was handed the same profiles through
// Store.Ingest — as one node, and as three behind a router (where the
// bytes also cross a forward before they are logged).
func TestReceivedBytesSurviveRecovery(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			clock := &testClock{t: testBase}
			cfg := profstore.Config{Window: time.Minute, Now: clock.Now, Shards: 2}
			control := profstore.New(cfg)
			defer control.Close()
			cts := httptest.NewServer(newHandler(control, profdb.DefaultMaxBytes, 0, false))
			defer cts.Close()

			cfg.Dir = t.TempDir()
			cl := bootTestCluster(t, cfg, nodes)
			receivedBytesTimeline(t, cl[0].url(), control, clock)
			var ingested int64
			for _, nd := range cl {
				// The kill: no drain, no snapshot — only the WAL survives.
				nd.srv.Close()
				nd.store.Close()
				ingested += nd.store.Stats().Ingested
			}
			if want := control.Stats().Ingested; ingested != want {
				t.Fatalf("deployment ingested %d profiles, control %d", ingested, want)
			}

			revived := bootTestCluster(t, cfg, nodes)
			hc := &http.Client{Timeout: 30 * time.Second}
			for _, nd := range revived {
				if snaps, _ := filepath.Glob(filepath.Join(cfg.Dir, nd.id, "shard-*", "snap-*")); len(snaps) != 0 {
					t.Fatalf("%s recovered from a snapshot, not the WAL: %v", nd.id, snaps)
				}
			}
			for _, q := range equivalenceQueries {
				wantCode, want := rawGet(t, hc, cts.URL+q.path)
				gotCode, got := rawGet(t, hc, revived[0].url()+q.path)
				if gotCode != wantCode || got != want {
					t.Errorf("%s: recovered deployment diverged from the Store.Ingest control (status %d vs %d):\n got %s\nwant %s",
						q.path, gotCode, wantCode, got, want)
				}
			}
		})
	}
}

// The log holds what was validated, byte for byte: a single-profile body
// as it arrived, a bundle entry as a fresh header in front of its record —
// on the node that received it, or behind a forward on the node that owns
// the series.
func TestWALHoldsReceivedBytes(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			clock := &testClock{t: testBase}
			cfg := profstore.Config{Window: time.Minute, Now: clock.Now, Shards: 1, Dir: t.TempDir()}
			cl := bootTestCluster(t, cfg, nodes)

			var want [][]byte
			for _, sp := range equivalenceSeries {
				body := dcpBytes(t, labeledProfile(sp.w, sp.v, sp.f, 3))
				if code, msg := postBytes(t, cl[0].url()+"/ingest", body); code != http.StatusAccepted {
					t.Fatalf("single: status %d: %s", code, msg)
				}
				want = append(want, body)
			}
			var entries []profdb.Entry
			for i, sp := range equivalenceSeries {
				entries = append(entries, profdb.Entry{Name: fmt.Sprintf("e%d", i), Profile: labeledProfile(sp.w, sp.v, sp.f, 7)})
			}
			var bundle bytes.Buffer
			if err := profdb.SaveBundle(&bundle, entries); err != nil {
				t.Fatal(err)
			}
			if code, msg := postBytes(t, cl[0].url()+"/ingest", bundle.Bytes()); code != http.StatusAccepted {
				t.Fatalf("bundle: status %d: %s", code, msg)
			}
			ps, err := profdb.PlanBundle(bundle.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			for i := range ps.Records {
				want = append(want, ps.Records[i].Encoded())
			}
			ps.Release()

			var log []byte
			for _, nd := range cl {
				nd.store.Close()
				segs, err := filepath.Glob(filepath.Join(cfg.Dir, nd.id, "shard-0", "wal", "*.wal"))
				if err != nil {
					t.Fatal(err)
				}
				for _, seg := range segs {
					data, err := os.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					log = append(log, data...)
				}
			}
			for i, payload := range want {
				if !bytes.Contains(log, payload) {
					t.Errorf("payload %d (%d bytes) is not in any node's WAL verbatim", i, len(payload))
				}
			}
		})
	}
}
