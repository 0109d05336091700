package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(sorted, c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("percentile(%v) = %v, want %dms", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSummarizeTailRule(t *testing.T) {
	// Below 1,000 samples a p99 has fewer than ten samples beyond it: the
	// tail reported is p90, and the note says so.
	small := make([]time.Duration, 999)
	for i := range small {
		small[i] = time.Duration(999-i) * time.Microsecond // unsorted on purpose
	}
	s := summarize(small)
	if s.N != 999 || s.P50 != 500*time.Microsecond {
		t.Errorf("small: n=%d p50=%v", s.N, s.P50)
	}
	if s.Tail != 900*time.Microsecond || !strings.Contains(s.TailNote, "p90") {
		t.Errorf("small: tail=%v note=%q, want the p90 (900µs) and a note", s.Tail, s.TailNote)
	}
	big := make([]time.Duration, 1000)
	for i := range big {
		big[i] = time.Duration(i+1) * time.Microsecond
	}
	s = summarize(big)
	if s.Tail != 990*time.Microsecond || s.TailNote != "" {
		t.Errorf("big: tail=%v note=%q, want the p99 (990µs) and no note", s.Tail, s.TailNote)
	}
	var m metricSet
	m.addLatency("x", summarize(nil))
	if p50, ok := m.get("x_p50_ms"); ok || !p50.NA {
		t.Errorf("no samples must give n/a, got %+v", p50)
	}
}

const expoBefore = `# HELP dcserver_request_seconds Request latency by endpoint.
# TYPE dcserver_request_seconds histogram
dcserver_request_seconds_bucket{endpoint="/ingest",le="0.001"} 3
dcserver_request_seconds_bucket{endpoint="/ingest",le="+Inf"} 4
dcserver_request_seconds_sum{endpoint="/ingest"} 0.5
dcserver_request_seconds_count{endpoint="/ingest"} 4
dcserver_requests_total{endpoint="/ingest",code="2xx"} 4
profstore_tree_nodes 10
`

const expoAfter = `dcserver_request_seconds_sum{endpoint="/ingest"} 2.5
dcserver_request_seconds_count{endpoint="/ingest"} 14
dcserver_request_seconds_sum{endpoint="/topk"} 0
dcserver_request_seconds_count{endpoint="/topk"} 0
dcserver_requests_total{code="2xx",endpoint="/ingest"} 14
dcserver_requests_total{code="5xx",endpoint="/ingest"} 1
dcserver_cluster_peer_requests_total{outcome="ok",peer="n2"} 7
dcserver_cluster_peer_requests_total{outcome="ok",peer="n3"} 5
journal_note{text="a \"quoted\", comma"} 1
profstore_tree_nodes 25
`

func TestPromScraper(t *testing.T) {
	before, err := parseProm(expoBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(expoAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, after}

	ds := []promDelta{d}
	// Histogram deltas over the phase: (2.5-0.5) s over 14-4 observations.
	if sum, n, ok := sumHist(ds, "dcserver_request_seconds", "endpoint", "/ingest"); !ok || n != 10 || sum != 2 {
		t.Errorf("sumHist = %v s over %v (ok=%v), want 2 s over 10", sum, n, ok)
	}
	scraped := scrapeMetrics([]observation{{prom: before}}, []observation{{prom: after}},
		phaseView{elapsed: time.Second, profiles: 10, ingestRoute: "/ingest"})
	if m, ok := scraped.get("dcserver.handler_ms.ingest"); !ok || m.Value != 200 || m.N != 10 {
		t.Errorf("handler_ms.ingest = %+v, want 200 ms over 10", m)
	}
	// Present but idle in the phase: not 0 ms, n/a.
	if m, ok := scraped.get("dcserver.handler_ms.topk"); ok || !m.NA {
		t.Errorf("a histogram with no observations in the phase must be n/a, got %+v", m)
	}
	// A family the server does not export: n/a, never 0.
	if _, ok := d.counter("profstore_wal_fsyncs_total"); ok {
		t.Error("a missing family must be n/a")
	}
	if m, ok := scraped.get("persist.wal_fsyncs"); ok || !m.NA {
		t.Errorf("a missing family must be n/a, got %+v", m)
	}
	// Labels match whatever order they were rendered in.
	if v, ok := d.counter("dcserver_requests_total", "endpoint", "/ingest", "code", "2xx"); !ok || v != 10 {
		t.Errorf("2xx delta = %v (ok=%v), want 10", v, ok)
	}
	// A series that first appears during the phase counts from 0.
	if v, ok := d.counter("dcserver_requests_total", "code", "5xx", "endpoint", "/ingest"); !ok || v != 1 {
		t.Errorf("5xx delta = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := d.family("dcserver_cluster_peer_requests_total"); !ok || v != 12 {
		t.Errorf("family sum = %v (ok=%v), want 12", v, ok)
	}
	if v, ok := d.gauge("profstore_tree_nodes"); !ok || v != 25 {
		t.Errorf("gauge = %v (ok=%v), want 25", v, ok)
	}
	if _, ok := after[promKey("journal_note", "text", `a "quoted", comma`)]; !ok {
		t.Errorf("escaped label value not parsed: %v", after)
	}
	if _, err := parseProm("broken_line_without_value\n"); err == nil {
		t.Error("a sample line without a value must be an error")
	}

	var m metricSet
	addHistMean(&m, []promDelta{d}, "x.ms", "profstore_ingest_seconds")
	if got, ok := m.get("x.ms"); ok || !got.NA || !strings.Contains(got.String(), "n/a") {
		t.Errorf("a missing family must print n/a, got %q", got.String())
	}
}

func TestScheduleDeterminism(t *testing.T) {
	b := &bench{seconds: 0.1, conns: 2, scale: 0.05, setups: 1, out: io.Discard}
	for _, spec := range workloadSpecs {
		hash := func(seed int64) string {
			if spec.server == nil {
				_, _, h := offlineInputs(seed)
				return h
			}
			h, err := spec.server().gen(b, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: %v", spec.name, err)
			}
			return h
		}
		a, again, other := hash(7), hash(7), hash(8)
		if a != again {
			t.Errorf("%s: seed 7 gave schedules %s and %s", spec.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", spec.name, a)
		}
	}
}

// fakeClock is a clock whose time only moves when something sleeps or a
// fake request takes its service time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacedLoopAccounting(t *testing.T) {
	ck := &fakeClock{t: time.Unix(1000, 0)}
	start := ck.t
	// 100 requests a second: due every 10 ms. Service times: the third
	// request stalls for 25 ms, so the fourth (due at 30 ms) and the fifth
	// (due at 40 ms) cannot leave on time.
	service := durations(2, 2, 25, 2, 2, 2)
	i := 0
	send := func(*request) (int, error) {
		ck.t = ck.t.Add(service[i])
		i++
		return 202, nil
	}
	reqs := []request{{method: "POST", path: "/ingest", profiles: 1, body: []byte("x")}}
	res := pacedLoop(ck, send, reqs, 100, start.Add(60*time.Millisecond))

	if res.attempted != 6 || res.failed != 0 || res.profiles != 6 {
		t.Fatalf("attempted=%d failed=%d profiles=%d, want 6 0 6", res.attempted, res.failed, res.profiles)
	}
	// Latency runs from the due time: request 3 is due at 20, returns at
	// 45; request 4 is due at 30, leaves at 45, returns at 47 — 17 ms, of
	// which 15 were spent waiting behind the stall; request 5 is due at 40,
	// leaves at 47, returns at 49.
	wantLat := durations(2, 2, 25, 17, 9, 2)
	if !reflect.DeepEqual(res.latencies, wantLat) {
		t.Errorf("latencies from due time = %v, want %v", res.latencies, wantLat)
	}
	// Lateness is the generator's own: the fake clock wakes exactly on
	// time and the stall is the server's, so it is zero throughout.
	for j, l := range res.lateness {
		if l != 0 {
			t.Errorf("lateness[%d] = %v, want 0 (the stall is not the generator's)", j, l)
		}
	}

	// A generator that oversleeps by 3 ms is late by 3 ms.
	slow := &oversleeper{fakeClock{t: start}, 3 * time.Millisecond}
	res = pacedLoop(slow, func(*request) (int, error) { return 202, nil }, reqs, 100, start.Add(30*time.Millisecond))
	if len(res.lateness) != 3 || res.lateness[1] != 3*time.Millisecond || res.latencies[1] != 3*time.Millisecond {
		t.Errorf("oversleeping generator: lateness=%v latencies=%v, want 3ms on the second and third request", res.lateness, res.latencies)
	}

	// Failures count against attempts and carry no latency.
	res = pacedLoop(&fakeClock{t: start}, func(*request) (int, error) { return 503, nil }, reqs, 100, start.Add(20*time.Millisecond))
	if res.attempted != 2 || res.failed != 2 || len(res.latencies) != 0 {
		t.Errorf("failures: attempted=%d failed=%d latencies=%d, want 2 2 0", res.attempted, res.failed, len(res.latencies))
	}
}

type oversleeper struct {
	fakeClock
	extra time.Duration
}

func (c *oversleeper) Sleep(d time.Duration) { c.t = c.t.Add(d + c.extra) }

func sampleResults() *resultsFile {
	var e2e, layers metricSet
	e2e.addN("profiles_per_s", 650.25, "1/s", 5200)
	e2e.addLatency("ingest", latencySummary{N: 5200, P50: 1400 * time.Microsecond, Tail: 20 * time.Millisecond})
	e2e.add("setup_s", 1.25, "s")
	e2e.addN("failed_ops_frac", 0, "ratio", 5200)
	layers.addN("dcserver.handler_ms.ingest", 2.4, "ms", 5200)
	layers.na("dcserver.handler_ms.stream", "ms")
	return &resultsFile{
		Schema: resultsSchema, Seed: 1, CountScale: countScale,
		Machine: machine{CPUModel: "test", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", WorkdirFS: "0xef53", Commit: "abc1234"},
		Runs: []result{{
			Workload: "ingest_full", Why: "w", Seed: 1, Seconds: 8, Correct: true, Attempted: 5200,
			Schedule: "0123456789abcdef", EndToEnd: e2e, PerLayer: layers, Warnings: []string{"note"},
		}},
	}
}

func TestResultsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "results.json")
	want := sampleResults()
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the file:\n got %+v\nwant %+v", got, want)
	}
	os.WriteFile(path, []byte(`{"schema":"something/else"}`), 0o644)
	if _, err := readResults(path); err == nil {
		t.Error("a foreign schema must be refused")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, edit func(*resultsFile)) string {
		f := sampleResults()
		edit(f)
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(f *resultsFile, name string, v float64) {
		for i := range f.Runs[0].EndToEnd {
			if f.Runs[0].EndToEnd[i].Name == name {
				f.Runs[0].EndToEnd[i].Value = v
			}
		}
	}
	base := write("a.json", func(*resultsFile) {})
	var out bytes.Buffer

	// 20% less throughput is within 25%, and the p99 has no bound at all.
	within := write("b.json", func(f *resultsFile) { set(f, "profiles_per_s", 520); set(f, "ingest_p99_ms", 90) })
	if code := compareFiles(&out, base, within); code != 0 {
		t.Errorf("within bounds: exit %d\n%s", code, out.String())
	}
	// 30% less throughput is not; more throughput never is a regression.
	out.Reset()
	slower := write("c.json", func(f *resultsFile) { set(f, "profiles_per_s", 450) })
	if code := compareFiles(&out, base, slower); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("30%% slower: exit %d\n%s", code, out.String())
	}
	faster := write("d.json", func(f *resultsFile) { set(f, "profiles_per_s", 900); set(f, "ingest_p50_ms", 0.5) })
	if code := compareFiles(io.Discard, base, faster); code != 0 {
		t.Errorf("faster: exit %d", code)
	}
	// Any failed operation at all is beyond the bound of failed_ops_frac.
	failing := write("e.json", func(f *resultsFile) { set(f, "failed_ops_frac", 0.0002) })
	if code := compareFiles(io.Discard, base, failing); code != 1 {
		t.Errorf("new failures: exit %d, want 1", code)
	}
	// Another machine is a warning, not a failure.
	out.Reset()
	moved := write("f.json", func(f *resultsFile) { f.Machine.NProc = 8 })
	if code := compareFiles(&out, base, moved); code != 0 || !strings.Contains(out.String(), "WARNING") {
		t.Errorf("other machine: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSON pins the driver's contract file to the code: the same
// workloads, the five end-to-end names every workload projects onto, and
// every replayed layer metric.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadSpecs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadSpecs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadSpecs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	want := map[string]bool{}
	for name := range driverEndToEnd[primaryIngest] {
		want[name] = true
	}
	sawSetup := false
	for _, m := range spec.EndToEnd {
		if !want[m.Name] {
			t.Errorf("end_to_end metric %q is not one the code prints", m.Name)
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if len(want) > 0 || !sawSetup {
		t.Errorf("end_to_end is missing %v (setup_s ok: %v)", want, sawSetup)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(layers, driverPerLayer) {
		t.Errorf("per_layer differs from the replayed metrics:\n json %v\n code %v", layers, driverPerLayer)
	}
	if len(layers) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(layers), spec.RunSeconds)
	}
}

// TestSmoke runs all six workloads end to end against real dcserver
// processes at a twentieth of the counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	procs, err := newProcs()
	if err != nil {
		t.Fatal(err)
	}
	defer procs.cleanup()
	if err := procs.buildServer(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	b := &bench{procs: procs, seed: 1, seconds: 0.5, conns: connections(), scale: 0.05, setups: 1, out: &log}
	runs, failed := runSpecs(b, workloadSpecs, true, false, "")
	if failed || len(runs) != len(workloadSpecs) {
		t.Fatalf("smoke failed (%d of %d runs):\n%s", len(runs), len(workloadSpecs), log.String())
	}
	for _, r := range runs {
		line := driverLine(&r)
		if !line.Correct || len(line.Metrics) != len(driverEndToEnd[primaryIngest]) {
			t.Errorf("%s: driver line %+v", r.Workload, line)
		}
		for name, v := range line.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", r.Workload, name, v.Value)
			}
		}
	}
}
