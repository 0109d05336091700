package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
	"deepcontext/internal/telemetry"
)

// These tests drive POST /stream through a reference agent (streamClient)
// and hold it to the delta≡full contract: whatever faults hit the
// session — corrupted checksums, a connection cut mid-batch, the server
// restarting underneath an established session — the client's own
// recovery protocol must converge the store to exactly the state an
// all-full-upload run produces.

// streamTestProfile builds a profile with enough kernel contexts that a
// one-kernel delta is visibly cheaper on the wire than the whole tree.
func streamTestProfile(workload string, kernels int) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	for i := 0; i < kernels; i++ {
		leaf := tree.InsertPath([]cct.Frame{
			cct.PythonFrame("train.py", 10+i, "main"),
			cct.OperatorFrame(fmt.Sprintf("aten::op_%d", i%8)),
			{Kind: cct.KindKernel, Name: fmt.Sprintf("kern_%d", i), Lib: "[gpu]", PC: uint64(0x1000 + 64*i)},
		})
		tree.AddMetric(leaf, gid, float64(100+i))
	}
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: "Nvidia", Framework: "pytorch"},
	}
}

// kernelNodes collects a tree's kernel contexts once, so the per-round
// mutation is proportional to the touched set rather than the tree.
func kernelNodes(t *cct.Tree) []*cct.Node {
	var kernels []*cct.Node
	t.Visit(func(n *cct.Node) {
		if n.Kind == cct.KindKernel {
			kernels = append(kernels, n)
		}
	})
	return kernels
}

// deltaMutate advances one cumulative profile by a round: every fourth
// kernel context (rotating with the round) receives new samples, the
// steady-state shape where most of the tree is unchanged between
// uploads.
func deltaMutate(t *cct.Tree, kernels []*cct.Node, r int) {
	id, ok := t.Schema.Lookup(defaultMetric)
	if !ok {
		return
	}
	for i, n := range kernels {
		if i%4 == r%4 {
			t.AddMetric(n, id, float64(1000*(r+1)+i))
		}
	}
}

// bumpKernels adds one gpu_time sample to every kernel context, the
// small-delta mutation shape between uploads.
func bumpKernels(p *profiler.Profile, v float64) {
	tr := p.Tree
	id := tr.MetricID(cct.MetricGPUTime)
	for _, n := range kernelNodes(tr) {
		tr.AddMetric(n, id, v)
	}
}

// bumpOneKernel adds one sample to a single kernel context — the
// steady-state shape where almost all of the tree is unchanged.
func bumpOneKernel(p *profiler.Profile, i int, v float64) {
	tr := p.Tree
	ks := kernelNodes(tr)
	tr.AddMetric(ks[i%len(ks)], tr.MetricID(cct.MetricGPUTime), v)
}

// assertStoresAgree requires the streamed store to answer Hotspots and
// Windows byte-identically to the reference store fed the same evolution
// through plain Ingest.
func assertStoresAgree(t *testing.T, got, want *profstore.Store) {
	t.Helper()
	asJSON := func(vs ...any) string {
		b, err := json.Marshal(vs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	gr, gi, gerr := got.Hotspots(context.Background(), time.Time{}, time.Time{}, profstore.Labels{}, cct.MetricGPUTime, 0)
	wr, wi, werr := want.Hotspots(context.Background(), time.Time{}, time.Time{}, profstore.Labels{}, cct.MetricGPUTime, 0)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("hotspots: stream err %v, reference err %v", gerr, werr)
	}
	if gerr == nil && asJSON(gr, gi) != asJSON(wr, wi) {
		t.Fatalf("streamed store diverged from full-upload reference:\n got %s\nwant %s",
			asJSON(gr, gi), asJSON(wr, wi))
	}
	if g, w := asJSON(got.Windows()), asJSON(want.Windows()); g != w {
		t.Fatalf("windows diverged:\n got %s\nwant %s", g, w)
	}
}

// scrapeMetric fetches /metrics and returns the integer value of one
// unlabeled series.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

func journalEvents(store *profstore.Store, kinds ...string) []telemetry.Event {
	return store.Telemetry().Journal().Select(telemetry.Filter{Kinds: kinds})
}

// TestStreamSessionLifecycle streams two series through one session —
// hand-built trees with one kernel bumped per round, and real profiler
// output (UNet, DLRM-small) with a rotating quarter of its kernel
// contexts changed per round — and requires the store to equal a
// reference fed the same evolution through plain Ingest, with the wire
// accounting showing deltas after the first round.
func TestStreamSessionLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rounds   int
		profiles func(t *testing.T) []*profiler.Profile
		// mutate advances every profile before round r's send.
		mutate func(ps []*profiler.Profile, r int)
		// maxRatio caps delta ÷ full wire bytes per frame.
		maxRatio float64
	}{
		{
			name:   "synthetic",
			rounds: 3,
			profiles: func(*testing.T) []*profiler.Profile {
				return []*profiler.Profile{streamTestProfile("UNet", 32), streamTestProfile("DLRM", 32)}
			},
			mutate: func(ps []*profiler.Profile, r int) {
				if r > 0 {
					bumpOneKernel(ps[0], r, float64(10*r))
					bumpOneKernel(ps[1], r+5, float64(7*r))
				}
			},
			maxRatio: 0.5,
		},
		{
			name:   "real",
			rounds: 8,
			profiles: func(t *testing.T) []*profiler.Profile {
				return []*profiler.Profile{
					realProfile(t, "UNet", "nvidia", "pytorch", 4),
					realProfile(t, "DLRM-small", "amd", "jax", 4),
				}
			},
			mutate: func(ps []*profiler.Profile, r int) {
				for _, p := range ps {
					deltaMutate(p.Tree, kernelNodes(p.Tree), r)
				}
			},
			// 0.25, not the 0.2 the retired in-process delta benchmark
			// gated on: its bytes-per-ingest ratio (full frames amortized
			// into the delta side, 16 rounds) was 0.16 under the gob v2
			// codec and 0.2028 once v4 shrank full frames (46,610 →
			// 32,596 B) more than deltas (7,478 → 6,611 B). Per frame, as
			// counted here (full frames not spread over the deltas, gob
			// type definitions counted apart), this case measures 0.13
			// under v5; 0.25 leaves room for a codec change that shrinks
			// full frames again without pinning the codec's exact sizes.
			maxRatio: 0.25,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &testClock{t: testBase}
			ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)
			ref := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
			defer ref.Close()

			ps := tc.profiles(t)
			sc := newStreamClient(&http.Client{Timeout: 30 * time.Second}, ts.URL, "life")
			for r := 0; r < tc.rounds; r++ {
				tc.mutate(ps, r)
				res, err := sc.send(ps)
				if err != nil {
					t.Fatal(err)
				}
				if res.Acked != len(ps) || len(res.Nacked) != 0 || res.Reset {
					t.Fatalf("round %d: send = %+v", r, res)
				}
				for _, p := range ps {
					if _, err := ref.Ingest(p); err != nil {
						t.Fatal(err)
					}
				}
				clock.Advance(time.Minute)
			}
			if err := sc.closeSession(); err != nil {
				t.Fatal(err)
			}
			assertStoresAgree(t, store, ref)

			// Wire accounting: round one establishes both series with full
			// frames, every later round ships deltas only — and a delta
			// frame must cost far fewer wire bytes than a full one.
			if got := scrapeMetric(t, ts, "dcserver_ingest_full_frames_total"); got != 2 {
				t.Fatalf("full frames = %d, want 2", got)
			}
			deltas := int64(2 * (tc.rounds - 1))
			if got := scrapeMetric(t, ts, "dcserver_ingest_delta_frames_total"); got != deltas {
				t.Fatalf("delta frames = %d, want %d", got, deltas)
			}
			fullPer := scrapeMetric(t, ts, "dcserver_ingest_full_bytes_total") / 2
			deltaPer := scrapeMetric(t, ts, "dcserver_ingest_delta_bytes_total") / deltas
			ratio := float64(deltaPer) / float64(fullPer)
			if deltaPer == 0 || ratio > tc.maxRatio {
				t.Fatalf("delta frames not cheap enough on the wire: %d B/frame vs full %d B/frame (ratio %.4f, max %.2f)",
					deltaPer, fullPer, ratio, tc.maxRatio)
			}
			// Every request body, the Close batch's included, is a fresh
			// gob stream that opens with StreamBatch's type definitions:
			// what a second batch on one encoder does not repeat. They
			// are counted apart, not charged to delta frames.
			var batches bytes.Buffer
			enc := gob.NewEncoder(&batches)
			var sizes [2]int
			for i := range sizes {
				if err := profdb.WriteBatch(enc, &profdb.StreamBatch{Seq: 1}); err != nil {
					t.Fatal(err)
				}
				sizes[i] = batches.Len()
			}
			types := int64(sizes[0]-(sizes[1]-sizes[0])) * int64(tc.rounds+1)
			if got := scrapeMetric(t, ts, "dcserver_stream_type_bytes_total"); types <= 0 || got != types {
				t.Fatalf("type definition bytes = %d, want %d", got, types)
			}
			t.Logf("delta %d B/frame, full %d B/frame, ratio %.4f", deltaPer, fullPer, ratio)
			for name, want := range map[string]int64{
				"dcserver_stream_batches_total":          int64(tc.rounds + 1), // the Close batch counts
				"dcserver_stream_sessions_opened_total":  1,
				"dcserver_stream_sessions_closed_total":  1,
				"dcserver_stream_sessions_dropped_total": 0,
				"dcserver_stream_nacks_total":            0,
				"dcserver_ingest_full_fallbacks_total":   0,
				"dcserver_stream_sessions":               0,
			} {
				if got := scrapeMetric(t, ts, name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if ev := journalEvents(store, "stream_open"); len(ev) != 1 {
				t.Errorf("stream_open events = %d, want 1", len(ev))
			}
			if ev := journalEvents(store, "stream_close"); len(ev) != 1 {
				t.Errorf("stream_close events = %d, want 1", len(ev))
			}
		})
	}
}

func TestStreamValidation(t *testing.T) {
	clock := &testClock{t: testBase}
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer store.Close()

	ts := httptest.NewServer(newHandler(store, profdb.DefaultMaxBytes, defaultSlowRequest))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /stream: status %d allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
	for _, url := range []string{
		ts.URL + "/stream",
		ts.URL + "/stream?session=" + strings.Repeat("x", 129),
	} {
		resp, err = http.Post(url, "application/octet-stream", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400", url, resp.StatusCode)
		}
	}

	// A body that is not a gob stream drops the (just-opened) session.
	resp, err = http.Post(ts.URL+"/stream?session=garbage", "application/octet-stream",
		strings.NewReader("this is not a stream batch"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}
	if got := store.Stats().Ingested; got != 0 {
		t.Fatalf("garbage body ingested %d profiles", got)
	}
	if ev := journalEvents(store, "stream_drop"); len(ev) != 1 || ev[0].Fields["reason"] != "corrupt_stream" {
		t.Fatalf("stream_drop events = %+v, want one with reason corrupt_stream", ev)
	}
}

// TestStreamChecksumMismatchResync desyncs the client's base checksum —
// the frame reaches the server structurally intact but claims the wrong
// base — and requires a NACK, a full-frame resync, and a final state
// byte-equal to an all-full-upload run.
func TestStreamChecksumMismatchResync(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)
	ref := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer ref.Close()

	p := testProfile("UNet", 1)
	key := profstore.LabelsOf(p.Meta).Key()
	sc := newStreamClient(&http.Client{Timeout: 30 * time.Second}, ts.URL, "sum")
	res, err := sc.send([]*profiler.Profile{p})
	if err != nil || res.Acked != 1 {
		t.Fatalf("establish: res=%+v err=%v", res, err)
	}
	if _, err := ref.Ingest(p); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)

	bumpKernels(p, 50)
	sc.cursors[key].Sum ^= 0xdeadbeef // desync: the next delta claims a wrong base
	res, err = sc.send([]*profiler.Profile{p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked != 0 || !res.Nacked[key] || res.Reset {
		t.Fatalf("desynced send = %+v, want a per-series NACK without a session reset", res)
	}
	if got := store.Stats().Ingested; got != 1 {
		t.Fatalf("NACKed frame ingested anyway: %d profiles", got)
	}

	// The NACK cleared the client cursor; the retry re-establishes the
	// series with a full frame in the same session.
	res, err = sc.send([]*profiler.Profile{p})
	if err != nil || res.Acked != 1 || res.Reset {
		t.Fatalf("resync send: res=%+v err=%v", res, err)
	}
	if _, err := ref.Ingest(p); err != nil {
		t.Fatal(err)
	}
	assertStoresAgree(t, store, ref)

	if got := scrapeMetric(t, ts, "dcserver_stream_nacks_total"); got != 1 {
		t.Errorf("nacks = %d, want 1", got)
	}
	if got := scrapeMetric(t, ts, "dcserver_ingest_full_fallbacks_total"); got != 1 {
		t.Errorf("full fallbacks = %d, want 1", got)
	}
	ev := journalEvents(store, "stream_resync")
	if len(ev) == 0 || ev[0].Fields["series"] != key {
		t.Errorf("stream_resync events = %+v, want one for %s", ev, key)
	}
	if sc.resyncs != 0 {
		t.Errorf("client reset the whole session (%d resyncs); a NACK must stay per-series", sc.resyncs)
	}
}

// retryUntilAcked drives the client's recovery loop (an agent's retry
// shape): resend whatever was NACKed — or everything, after a session
// reset — until the batch lands. Returns how many send rounds it took.
func retryUntilAcked(t *testing.T, sc *streamClient, ref *profstore.Store, ps []*profiler.Profile) int {
	t.Helper()
	pending := ps
	for attempt := 1; attempt <= 3; attempt++ {
		res, err := sc.send(pending)
		if err != nil {
			t.Fatal(err)
		}
		var retry []*profiler.Profile
		for _, p := range pending {
			key := profstore.LabelsOf(p.Meta).Key()
			if res.Reset || res.Nacked[key] {
				retry = append(retry, p)
				continue
			}
			if _, err := ref.Ingest(p); err != nil {
				t.Fatal(err)
			}
		}
		if pending = retry; len(pending) == 0 {
			return attempt
		}
	}
	t.Fatalf("batch did not converge in 3 attempts (%d profiles still pending)", len(pending))
	return 0
}

// TestStreamTruncatedBatchDropsSession cuts the connection mid-batch —
// the server sees a gob stream that ends early — and requires the batch
// to be rejected atomically (nothing ingested), the session dropped, and
// the client's next sends to converge to the full-upload state.
func TestStreamTruncatedBatchDropsSession(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)
	ref := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer ref.Close()

	p := testProfile("UNet", 1)
	sc := newStreamClient(&http.Client{Timeout: 30 * time.Second}, ts.URL, "cut")
	retryUntilAcked(t, sc, ref, []*profiler.Profile{p})
	clock.Advance(time.Minute)

	// Forge the next batch and ship only its first half: what the server
	// sees when the connection dies mid-upload.
	enc := profdb.NewDeltaEncoder()
	full, err := enc.EncodeFull(p, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&buf),
		&profdb.StreamBatch{Seq: 2, Frames: []profdb.StreamFrame{full}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/stream?session="+sc.id, "application/octet-stream",
		bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated batch: status %d, want 400", resp.StatusCode)
	}
	if got := store.Stats().Ingested; got != 1 {
		t.Fatalf("truncated batch was not atomic: ingested %d, want 1", got)
	}
	if got := scrapeMetric(t, ts, "dcserver_stream_sessions_dropped_total"); got != 1 {
		t.Fatalf("dropped sessions = %d, want 1", got)
	}

	// The client, unaware its session is gone, keeps going; its recovery
	// loop must converge without double-ingesting anything.
	bumpKernels(p, 25)
	attempts := retryUntilAcked(t, sc, ref, []*profiler.Profile{p})
	if attempts < 2 {
		t.Fatalf("post-drop batch landed in %d attempt(s); the dead session must be rejected first", attempts)
	}
	if got := store.Stats().Ingested; got != 2 {
		t.Fatalf("ingested = %d, want 2 (exactly once per acknowledged state)", got)
	}
	assertStoresAgree(t, store, ref)
}

// TestStreamFullFrameMustMatchItsFrame sends full frames whose database
// disagrees with the frame: one holds two profiles, one holds a profile of
// another series than the frame's Meta. /stream keys the cursor (and, in a
// cluster, picks the owner) by the frame's Meta while the store would file
// the profile under its own labels, so both must be NACKed as corrupt and
// neither series ingested.
func TestStreamFullFrameMustMatchItsFrame(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)

	a, b, c := testProfile("UNet", 1), testProfile("DLRM", 2), testProfile("Resnet", 3)
	bundle, err := profdb.EncodeBundle([]profdb.Entry{{Profile: a}, {Profile: b}})
	if err != nil {
		t.Fatal(err)
	}
	single, err := profdb.EncodeBundle([]profdb.Entry{{Profile: b}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&buf), &profdb.StreamBatch{Seq: 1, Frames: []profdb.StreamFrame{
		{Magic: profdb.FormatMagicV3, Epoch: 1, Seq: 1, Meta: a.Meta, Full: bundle},
		{Magic: profdb.FormatMagicV3, Epoch: 1, Seq: 1, Meta: c.Meta, Full: single},
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/stream?session=mismatch", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack streamAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, ack err %v", resp.StatusCode, err)
	}
	if ack.Applied != 0 || len(ack.Nacks) != 2 {
		t.Fatalf("ack = %+v, want both frames NACKed", ack)
	}
	for i, want := range []*profiler.Profile{a, c} {
		n := ack.Nacks[i]
		if n.Reason != "corrupt" || n.Series != profstore.LabelsOf(want.Meta).Key() {
			t.Errorf("nack %d = %+v, want a corrupt NACK for %s", i, n, profstore.LabelsOf(want.Meta).Key())
		}
	}
	if got := store.Stats().Ingested; got != 0 {
		t.Fatalf("mismatched full frames ingested %d profiles", got)
	}
}

// TestStreamServerRestartMidSession re-creates the handler (fresh stream
// registry, same store) underneath an established session — a server
// restart from the client's point of view. The client must detect the
// dictionary mismatch, reset, re-establish by full upload, and converge.
func TestStreamServerRestartMidSession(t *testing.T) {
	clock := &testClock{t: testBase}
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer store.Close()
	ref := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer ref.Close()

	var h atomic.Value
	h.Store(newHandler(store, profdb.DefaultMaxBytes, defaultSlowRequest))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	// Three rounds establish the series and flow deltas, so the shared
	// frame dictionary is non-empty on both ends — the state a restart
	// actually destroys.
	p1, p2 := testProfile("UNet", 1), testProfile("DLRM", 2)
	sc := newStreamClient(&http.Client{Timeout: 30 * time.Second}, ts.URL, "boot")
	const preRounds = 3
	for r := 0; r < preRounds; r++ {
		if r > 0 {
			bumpKernels(p1, float64(10*r))
			bumpKernels(p2, float64(20*r))
		}
		retryUntilAcked(t, sc, ref, []*profiler.Profile{p1, p2})
		clock.Advance(time.Minute)
	}
	if sc.deltaFrames == 0 {
		t.Fatal("no delta frames flowed before the restart; the test would not exercise dictionary loss")
	}

	// "Restart": the store survives, every session (and its dictionary)
	// is gone.
	h.Store(newHandler(store, profdb.DefaultMaxBytes, defaultSlowRequest))

	// The next delta touches only known structure, so it ships no
	// dictionary additions — the fresh server dictionary cannot match and
	// the client must reset wholesale, not just resync one series.
	bumpKernels(p1, 30)
	bumpKernels(p2, 60)
	attempts := retryUntilAcked(t, sc, ref, []*profiler.Profile{p1, p2})
	if attempts < 2 {
		t.Fatalf("post-restart batch landed in %d attempt(s); the stale session must be rejected first", attempts)
	}
	if sc.resyncs == 0 {
		t.Fatal("client never reset its session after the server restart")
	}
	if got := store.Stats().Ingested; got != 2*(preRounds+1) {
		t.Fatalf("ingested = %d, want %d (2 series x %d rounds, exactly once each)",
			got, 2*(preRounds+1), preRounds+1)
	}
	assertStoresAgree(t, store, ref)
}
