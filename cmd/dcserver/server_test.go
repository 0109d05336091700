package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext"
	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

var testBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testProfile(workload string, scale float64) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	leaf := tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 10, "main"),
		cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "gemm", Lib: "[gpu]", PC: 0x100},
	})
	tree.AddMetric(leaf, gid, 100*scale)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: "Nvidia", Framework: "pytorch"},
	}
}

// realProfile runs the profiler on one workload cell — real collector
// output, not a hand-built tree — with one shard so the result is
// deterministic.
func realProfile(t *testing.T, workload, vendor, framework string, iters int) *profiler.Profile {
	t.Helper()
	s, err := deepcontext.NewSession(deepcontext.Config{Vendor: vendor, Framework: framework, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorkload(workload, deepcontext.Knobs{}, iters); err != nil {
		t.Fatal(err)
	}
	p := s.Stop()
	p.Meta.Workload = workload
	p.Meta.Iterations = iters
	return p
}

func dcpBytes(t *testing.T, p *profiler.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profdb.Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newHandler is the single-node handler the tests serve: no coordinator,
// the server handle dropped.
func newHandler(store *profstore.Store, maxBody int64, slow time.Duration) http.Handler {
	_, h := newServerHandler(store, nil, maxBody, slow)
	return h
}

func newTestServer(t *testing.T, clock *testClock, maxBody int64) (*httptest.Server, *profstore.Store) {
	t.Helper()
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	ts := httptest.NewServer(newHandler(store, maxBody, defaultSlowRequest))
	t.Cleanup(ts.Close)
	return ts, store
}

func postIngest(t *testing.T, ts *httptest.Server, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestIngestAndQueryEndpoints(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, _ := newTestServer(t, clock, profdb.DefaultMaxBytes)

	// Single profile plus a v2 bundle through the same endpoint.
	resp := postIngest(t, ts, dcpBytes(t, testProfile("UNet", 1)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("ingest Content-Type = %q", ct)
	}
	var ir struct {
		Ingested int      `json:"ingested"`
		Series   []string `json:"series"`
	}
	decodeJSON(t, resp, &ir)
	if ir.Ingested != 1 || len(ir.Series) != 1 || ir.Series[0] != "unet/nvidia/pytorch" {
		t.Fatalf("ingest response = %+v", ir)
	}

	var bundle bytes.Buffer
	if err := profdb.SaveBundle(&bundle, []profdb.Entry{
		{Name: "a", Profile: testProfile("UNet", 2)},
		{Name: "b", Profile: testProfile("DLRM", 4)},
	}); err != nil {
		t.Fatal(err)
	}
	resp = postIngest(t, ts, bundle.Bytes())
	var ir2 struct {
		Ingested int `json:"ingested"`
	}
	decodeJSON(t, resp, &ir2)
	if ir2.Ingested != 2 {
		t.Fatalf("bundle ingest = %+v", ir2)
	}

	// Hotspots across everything, then filtered.
	var hot struct {
		Metric string `json:"metric"`
		Rows   []struct {
			Label string  `json:"label"`
			Excl  float64 `json:"excl"`
		} `json:"rows"`
	}
	resp, err := http.Get(ts.URL + "/hotspots?top=5")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &hot)
	if hot.Metric != cct.MetricGPUTime || len(hot.Rows) == 0 {
		t.Fatalf("hotspots = %+v", hot)
	}
	if hot.Rows[0].Label != "gemm" || hot.Rows[0].Excl != 700 {
		t.Fatalf("top row = %+v", hot.Rows[0])
	}
	resp, err = http.Get(ts.URL + "/hotspots?workload=DLRM")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &hot)
	if len(hot.Rows) == 0 || hot.Rows[0].Excl != 400 {
		t.Fatalf("filtered hotspots = %+v", hot.Rows)
	}
	// No data for the filter → 404; a bad metric name → 400.
	resp, err = http.Get(ts.URL + "/hotspots?workload=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-filter status = %d", resp.StatusCode)
	}
	for _, ep := range []string{"/hotspots?metric=bogus", "/flame?metric=bogus"} {
		resp, err = http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s status = %d, want 400", ep, resp.StatusCode)
		}
	}

	// Windows, stats, healthz.
	var wins []profstore.WindowInfo
	resp, err = http.Get(ts.URL + "/windows")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &wins)
	if len(wins) != 1 || wins[0].Profiles != 3 {
		t.Fatalf("windows = %+v", wins)
	}
	var st struct {
		Store profstore.Stats `json:"store"`
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &st)
	if st.Store.Ingested != 3 {
		t.Fatalf("stats = %+v", st)
	}
	var hz struct {
		Status string `json:"status"`
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &hz)
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}

	// Flame graph: HTML and folded renderings of the aggregate.
	resp, err = http.Get(ts.URL + "/flame")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(html), "<html") {
		t.Fatalf("flame html status=%d body=%.80s", resp.StatusCode, html)
	}
	resp, err = http.Get(ts.URL + "/flame?format=folded")
	if err != nil {
		t.Fatal(err)
	}
	folded, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(folded), "gemm") {
		t.Fatalf("folded = %.120s", folded)
	}

	// Analyzer over the aggregate.
	var ar struct {
		Report struct {
			Findings int `json:"findings"`
			Issues   []struct {
				Analysis string `json:"analysis"`
				Severity string `json:"severity"`
			} `json:"issues"`
		} `json:"report"`
	}
	resp, err = http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &ar)
	if ar.Report.Findings != len(ar.Report.Issues) {
		t.Fatalf("analyze = %+v", ar)
	}
}

func TestDiffEndpointAcrossWindows(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, _ := newTestServer(t, clock, profdb.DefaultMaxBytes)

	postIngest(t, ts, dcpBytes(t, testProfile("UNet", 1))).Body.Close()
	clock.Advance(time.Minute)
	postIngest(t, ts, dcpBytes(t, testProfile("UNet", 3))).Body.Close()

	q := url.Values{}
	q.Set("before", testBase.Format(time.RFC3339Nano))
	q.Set("after", testBase.Add(time.Minute).Format(time.RFC3339Nano))
	q.Set("metric", cct.MetricGPUTime)
	var dr struct {
		Net  float64 `json:"net"`
		Rows []struct {
			Label  string  `json:"label"`
			Delta  float64 `json:"delta"`
			Before float64 `json:"before"`
			After  float64 `json:"after"`
		} `json:"rows"`
	}
	resp, err := http.Get(ts.URL + "/diff?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &dr)
	if dr.Net != 200 || len(dr.Rows) != 1 {
		t.Fatalf("diff = %+v", dr)
	}
	if r := dr.Rows[0]; r.Label != "gemm" || r.Delta != 200 || r.Before != 100 || r.After != 300 {
		t.Fatalf("diff row = %+v", r)
	}

	// The signed diff flame renders too.
	resp, err = http.Get(ts.URL + "/flame?format=folded&" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "gemm") {
		t.Fatalf("diff flame status=%d body=%.120s", resp.StatusCode, body)
	}

	// Missing params → 400.
	resp, err = http.Get(ts.URL + "/diff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bare diff status = %d", resp.StatusCode)
	}
}

func TestMethodAndBodyRejections(t *testing.T) {
	clock := &testClock{t: testBase}
	// The cap sits one byte under a real profile's encoding, so the
	// oversize case does not depend on how compact the format is.
	big := dcpBytes(t, testProfile("UNet", 1))
	ts, _ := newTestServer(t, clock, int64(len(big))-1)

	// Wrong methods → 405.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status = %d", resp.StatusCode)
	}
	for _, ep := range []string{"/hotspots", "/diff", "/flame", "/analyze", "/regressions", "/windows", "/stats", "/healthz"} {
		resp, err := http.Post(ts.URL+ep, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d", ep, resp.StatusCode)
		}
	}

	// HEAD stays allowed for probes (served body-suppressed by net/http).
	resp, err = http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /healthz status = %d", resp.StatusCode)
	}

	// Corrupt body → 400 with a JSON error.
	resp = postIngest(t, ts, []byte("definitely not a profile"))
	var eb errorBody
	decodeJSON(t, resp, &eb)
	if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
		t.Fatalf("corrupt ingest: status=%d body=%+v", resp.StatusCode, eb)
	}

	// Oversized body (one byte over the server's cap) → 413.
	resp = postIngest(t, ts, big)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest status = %d", resp.StatusCode)
	}
}

// getBytes fetches one endpoint's full response body.
func getBytes(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// The acceptance criterion end-to-end: a server started with a data
// directory survives a restart with byte-identical /hotspots and /diff
// responses — whether the shutdown was graceful (snapshot written) or a
// hard kill (WAL-only recovery).
func TestRestartWithDataDirIsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		graceful bool
	}{{"graceful-snapshot", true}, {"hard-kill-wal-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := &testClock{t: testBase}
			cfg := profstore.Config{Window: time.Minute, Now: clock.Now, Dir: dir}

			store := profstore.New(cfg)
			if _, err := store.Recover(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(newHandler(store, profdb.DefaultMaxBytes, defaultSlowRequest))
			postIngest(t, ts, dcpBytes(t, testProfile("UNet", 1))).Body.Close()
			postIngest(t, ts, dcpBytes(t, testProfile("DLRM", 2))).Body.Close()
			clock.Advance(time.Minute)
			postIngest(t, ts, dcpBytes(t, testProfile("UNet", 5))).Body.Close()

			q := url.Values{}
			q.Set("before", testBase.Format(time.RFC3339Nano))
			q.Set("after", testBase.Add(time.Minute).Format(time.RFC3339Nano))
			diffPath := "/diff?" + q.Encode()
			wantHot := getBytes(t, ts, "/hotspots?top=10")
			wantDiff := getBytes(t, ts, diffPath)
			wantWindows := getBytes(t, ts, "/windows")
			ts.Close()
			if tc.graceful {
				if _, err := store.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			store.Close()

			revived := profstore.New(cfg)
			rs, err := revived.Recover()
			if err != nil {
				t.Fatal(err)
			}
			defer revived.Close()
			if rs.SnapshotLoaded != tc.graceful {
				t.Fatalf("snapshot loaded = %v, want %v (%+v)", rs.SnapshotLoaded, tc.graceful, rs)
			}
			ts2 := httptest.NewServer(newHandler(revived, profdb.DefaultMaxBytes, defaultSlowRequest))
			defer ts2.Close()
			if got := getBytes(t, ts2, "/hotspots?top=10"); !bytes.Equal(got, wantHot) {
				t.Fatalf("/hotspots changed across restart:\n got %s\nwant %s", got, wantHot)
			}
			if got := getBytes(t, ts2, diffPath); !bytes.Equal(got, wantDiff) {
				t.Fatalf("/diff changed across restart:\n got %s\nwant %s", got, wantDiff)
			}
			if got := getBytes(t, ts2, "/windows"); !bytes.Equal(got, wantWindows) {
				t.Fatalf("/windows changed across restart:\n got %s\nwant %s", got, wantWindows)
			}

			// /stats exposes the persistence counters.
			var st struct {
				Store profstore.Stats `json:"store"`
			}
			resp, err := http.Get(ts2.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			decodeJSON(t, resp, &st)
			if st.Store.Persist == nil || st.Store.Persist.Dir != dir || st.Store.Persist.Recovery == nil {
				t.Fatalf("persist stats = %+v", st.Store.Persist)
			}
		})
	}
}

// shareProfile builds a two-kernel profile whose gemm/relu GPU-time split
// the trend detector will track as shares.
func shareProfile(workload string, gemm, relu float64) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	py := cct.PythonFrame("train.py", 10, "main")
	g := tree.InsertPath([]cct.Frame{py, cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "gemm", Lib: "[gpu]", PC: 0x100}})
	tree.AddMetric(g, gid, gemm)
	r := tree.InsertPath([]cct.Frame{py, cct.OperatorFrame("aten::relu"),
		{Kind: cct.KindKernel, Name: "relu", Lib: "[gpu]", PC: 0x108}})
	tree.AddMetric(r, gid, relu)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: "Nvidia", Framework: "pytorch"},
	}
}

// ingestShareWindows lands one shareProfile per window: gemm at 70 through
// window 5, then 180 (share 0.7 → ~0.857) — a sustained shift the default
// detector (warmup 3, K 3) confirms in window 8. The window index is read
// off the clock, so consecutive calls continue the same schedule.
func ingestShareWindows(t *testing.T, ts *httptest.Server, clock *testClock, windows int) {
	t.Helper()
	for i := 0; i < windows; i++ {
		gemm := 70.0
		if clock.Now().Sub(testBase) >= 6*time.Minute {
			gemm = 180
		}
		postIngest(t, ts, dcpBytes(t, shareProfile("UNet", gemm, 30))).Body.Close()
		clock.Advance(time.Minute)
	}
}

func TestRegressionsEndpoint(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, _ := newTestServer(t, clock, profdb.DefaultMaxBytes)
	ingestShareWindows(t, ts, clock, 10)

	type rr struct {
		Count int                   `json:"count"`
		Trend *profstore.TrendStats `json:"trend"`
		Rows  []struct {
			Series    string `json:"series"`
			Frame     string `json:"frame"`
			Direction int    `json:"direction"`
			Severity  string `json:"severity"`
			Message   string `json:"message"`
			FlameURL  string `json:"flame_url"`
		} `json:"rows"`
	}
	var up rr
	resp, err := http.Get(ts.URL + "/regressions")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &up)
	if up.Count != 1 || len(up.Rows) != 1 {
		t.Fatalf("default (up) view = %+v", up)
	}
	row := up.Rows[0]
	if row.Frame != "gemm" || row.Direction != 1 || row.Series != "unet/nvidia/pytorch" {
		t.Fatalf("row = %+v", row)
	}
	// 0.7 → ~0.857 is more than twice the 0.05 band over the baseline.
	if row.Severity != "critical" || !strings.Contains(row.Message, "rose") {
		t.Fatalf("grading: %+v", row)
	}
	if up.Trend == nil || up.Trend.Series != 1 || up.Trend.Findings != 2 {
		t.Fatalf("trend stats = %+v", up.Trend)
	}

	// The drill-down link renders the signed diff flame directly.
	if row.FlameURL == "" {
		t.Fatal("no flame_url")
	}
	resp, err = http.Get(ts.URL + row.FlameURL)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(html), "<html") {
		t.Fatalf("flame_url %q: status=%d body=%.80s", row.FlameURL, resp.StatusCode, html)
	}

	// Direction and label filters.
	var down rr
	resp, err = http.Get(ts.URL + "/regressions?dir=down")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &down)
	if down.Count != 1 || down.Rows[0].Frame != "relu" || down.Rows[0].Severity != "info" {
		t.Fatalf("down view = %+v", down)
	}
	var both rr
	resp, err = http.Get(ts.URL + "/regressions?dir=both")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &both)
	if both.Count != 2 {
		t.Fatalf("both view = %+v", both)
	}
	var none rr
	resp, err = http.Get(ts.URL + "/regressions?workload=DLRM")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &none)
	if none.Count != 0 {
		t.Fatalf("filtered view = %+v", none)
	}

	// Malformed parameters are the client's mistake.
	for _, q := range []string{"?dir=sideways", "?limit=-1", "?limit=x", "?since=nope"} {
		resp, err := http.Get(ts.URL + "/regressions" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /regressions%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestWebhookNotifierPostsNewFindings(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)

	var mu sync.Mutex
	var posts [][]byte
	recv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		posts = append(posts, body)
		mu.Unlock()
	}))
	defer recv.Close()

	// Drive poll() directly: the timing loop is trivial, the dedup and
	// payload logic is what needs holding still.
	n := &notifier{store: store, url: recv.URL, client: recv.Client(), seen: map[string]bool{}}

	// Priming poll on a quiet store: nothing posted, ever after restart.
	ingestShareWindows(t, ts, clock, 5)
	if posted, err := n.poll(); err != nil || posted != 0 {
		t.Fatalf("priming poll: posted=%d err=%v", posted, err)
	}

	// The shift confirms (windows 6..8): one POST with both findings.
	ingestShareWindows(t, ts, clock, 5)
	posted, err := n.poll()
	if err != nil || posted != 2 {
		t.Fatalf("confirming poll: posted=%d err=%v", posted, err)
	}
	mu.Lock()
	got := len(posts)
	var payload webhookPayload
	if got == 1 {
		if err := json.Unmarshal(posts[0], &payload); err != nil {
			t.Fatal(err)
		}
	}
	mu.Unlock()
	if got != 1 || payload.Source != "dcserver" || payload.Count != 2 {
		t.Fatalf("webhook delivery: posts=%d payload=%+v", got, payload)
	}
	frames := map[string]int{}
	for _, f := range payload.Findings {
		frames[f.Frame] = f.Direction
	}
	if frames["gemm"] != 1 || frames["relu"] != -1 {
		t.Fatalf("payload findings = %+v", payload.Findings)
	}

	// Already-notified findings stay quiet on the next poll.
	if posted, err := n.poll(); err != nil || posted != 0 {
		t.Fatalf("repeat poll: posted=%d err=%v", posted, err)
	}
	mu.Lock()
	got = len(posts)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("dedup failed: %d posts", got)
	}
}

func TestConcurrentHTTPIngest(t *testing.T) {
	clock := &testClock{t: testBase}
	ts, store := newTestServer(t, clock, profdb.DefaultMaxBytes)

	const clients = 8
	const per = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*per)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body := dcpBytes(t, testProfile(fmt.Sprintf("W%d", c%3), 1))
				resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := store.Stats().Ingested; got != clients*per {
		t.Fatalf("ingested = %d, want %d", got, clients*per)
	}
}
