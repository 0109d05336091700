package main

// Cluster-mode server tests: the byte-equivalence matrix (a cluster of
// any size must answer every query endpoint byte-identically to a single
// node holding the union of the data, whatever the shard count or cache
// setting), the kill/restart stress test, a join through the real handoff
// handlers, a mixed-release cluster, the canceled-query status mapping,
// and the shutdown write drain.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/cluster"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

// labeledProfile is testProfile with the full label triple under the
// caller's control, so a test can spread series across ring owners.
func labeledProfile(workload, vendor, framework string, scale float64) *profiler.Profile {
	p := testProfile(workload, scale)
	p.Meta.Vendor = vendor
	p.Meta.Framework = framework
	return p
}

// tcNode is one cluster member under test. It keeps the coordinator and
// address around so a test can kill the HTTP front end and later re-serve
// the same store at the same address.
type tcNode struct {
	id    string
	addr  string
	store *profstore.Store
	coord *cluster.Coordinator
	srv   *http.Server
}

func (nd *tcNode) url() string { return "http://" + nd.addr }

// serve builds a fresh handler over the node's store and coordinator and
// starts serving ln — used both at boot and to restart a killed node.
func (nd *tcNode) serve(t *testing.T, ln net.Listener) {
	t.Helper()
	_, h := newServerHandler(nd.store, nd.coord, profdb.DefaultMaxBytes, 0)
	nd.srv = newHTTPServer("", h)
	srv := nd.srv
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
}

// bootTestCluster starts n nodes on ephemeral ports under one routing
// table. n == 1 boots without a coordinator — the single-node control.
// With cfg.Dir set, each node is durable under <Dir>/<node id> and
// recovers whatever an earlier boot left there.
func bootTestCluster(t *testing.T, cfg profstore.Config, n int) []*tcNode {
	t.Helper()
	nodes := make([]*tcNode, n)
	lns := make([]net.Listener, n)
	tbl := &cluster.Table{Generation: 1}
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		id := fmt.Sprintf("n%d", i+1)
		nodes[i] = &tcNode{id: id, addr: ln.Addr().String()}
		tbl.Nodes = append(tbl.Nodes, cluster.Node{ID: id, Addr: "http://" + ln.Addr().String()})
	}
	for i, nd := range nodes {
		ncfg := cfg
		if cfg.Dir != "" {
			ncfg.Dir = filepath.Join(cfg.Dir, nd.id)
		}
		nd.store = profstore.New(ncfg)
		t.Cleanup(nd.store.Close)
		if ncfg.Dir != "" {
			if _, err := nd.store.Recover(); err != nil {
				t.Fatal(err)
			}
		}
		if n > 1 {
			coord, err := cluster.New(cluster.Config{
				Self: nd.id, Store: nd.store, Table: tbl, Telemetry: nd.store.Telemetry(),
				// Fast backoff: the stress test queries through a dead
				// peer's retry path on every request.
				Options: cluster.Options{Timeout: 5 * time.Second, Backoff: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			nd.coord = coord
		}
		nd.serve(t, lns[i])
	}
	return nodes
}

// rawGet returns the status code and raw body of one GET — raw, because
// the equivalence tests compare responses byte for byte.
func rawGet(t *testing.T, hc *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// getJSON decodes one 200 response into v; any other status becomes an
// error carrying the server's error message.
func getJSON(httpc *http.Client, url string, v any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, eb.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// equivalenceSeries spreads across all three ring owners of the test
// tables built by bootTestCluster.
var equivalenceSeries = []struct{ w, v, f string }{
	{"unet", "nvidia", "pytorch"},
	{"unet", "amd", "jax"},
	{"dlrm", "nvidia", "jax"},
	{"dlrm", "amd", "pytorch"},
	{"gpt", "nvidia", "pytorch"},
	{"bert", "amd", "pytorch"},
	{"resnet", "nvidia", "jax"},
}

// equivalenceQueries is the query surface the byte-equivalence tests
// compare, error responses included, each with the status every
// deployment must answer it with. Together they reach every fold: range
// trees (hotspots, flame, analyze), close-time aggregates (topk, search),
// both diff resolutions, findings, and each ErrNoData/ErrUnknownMetric
// path.
var equivalenceQueries = []struct {
	path string
	code int
}{
	{"/hotspots?top=10", http.StatusOK},
	{"/hotspots?metric=bogus_metric&top=3", http.StatusBadRequest},
	{"/hotspots?from=2026-01-01T00:01:00Z&to=2026-01-01T00:03:00Z&top=5", http.StatusOK},
	{"/hotspots?workload=nosuch", http.StatusNotFound},
	// Row counts parse like /topk's k: no silent default, no "-1 = all".
	{"/hotspots?top=abc", http.StatusBadRequest},
	{"/hotspots?top=-1", http.StatusBadRequest},
	{"/diff?before=2026-01-01T00:00:00Z&after=2026-01-01T00:02:00Z&top=-1", http.StatusBadRequest},
	{"/flame?format=folded", http.StatusOK},
	{"/analyze", http.StatusOK},
	{"/diff?before=2026-01-01T00:00:00Z&after=2026-01-01T00:02:00Z&top=10", http.StatusOK},
	// No window contains the before instant.
	{"/diff?before=2025-01-01T00:00:00Z&after=2026-01-01T00:02:00Z", http.StatusNotFound},
	// Both windows exist but no series matches the filter.
	{"/diff?before=2026-01-01T00:00:00Z&after=2026-01-01T00:02:00Z&workload=nosuch", http.StatusNotFound},
	// Each side fails differently: the before side's error is reported.
	{"/diff?before=2026-01-01T00:00:00Z&after=2030-01-01T00:00:00Z&workload=nosuch", http.StatusNotFound},
	{"/topk?k=5", http.StatusOK},
	{"/topk?k=5&workload=nosuch", http.StatusNotFound},
	{"/topk?k=5&metric=bogus_metric", http.StatusBadRequest},
	{"/search?frame=gemm&limit=10", http.StatusOK},
	{"/search?frame=gemm&metric=bogus_metric", http.StatusBadRequest},
	{"/regressions?dir=both&limit=0", http.StatusOK},
}

// ingestEquivalenceRounds drives the same deterministic ingest timeline
// (bundles through the router node, one window per round) into any
// deployment.
func ingestEquivalenceRounds(t *testing.T, hc *http.Client, url string, clock *testClock, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		var entries []profdb.Entry
		for i, sp := range equivalenceSeries {
			entries = append(entries, profdb.Entry{
				Name:    fmt.Sprintf("p%d", i),
				Profile: labeledProfile(sp.w, sp.v, sp.f, float64(1+r+i)),
			})
		}
		var buf bytes.Buffer
		if err := profdb.SaveBundle(&buf, entries); err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Post(url+"/ingest", "application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: ingest status = %d", r, resp.StatusCode)
		}
		clock.Advance(time.Minute)
	}
}

// TestClusterEquivalenceMatrix is the tentpole invariant as a matrix:
// every deployment shape — cluster of 1, 2 or 3 nodes, sharded or not,
// query cache on or off — fed the identical ingest timeline must answer
// every query endpoint (including the error responses) byte-identically.
func TestClusterEquivalenceMatrix(t *testing.T) {
	queries := equivalenceQueries
	type answer struct {
		code int
		body string
	}

	run := func(t *testing.T, nodes, shards, cache int) map[string]answer {
		clock := &testClock{t: testBase}
		cfg := profstore.Config{Window: time.Minute, Now: clock.Now, Shards: shards, CacheSize: cache}
		cl := bootTestCluster(t, cfg, nodes)
		hc := &http.Client{Timeout: 30 * time.Second}
		ingestEquivalenceRounds(t, hc, cl[0].url(), clock, 4)
		out := map[string]answer{}
		for _, q := range queries {
			code, body := rawGet(t, hc, cl[0].url()+q.path)
			out[q.path] = answer{code, body}
			// A second hit must repeat the answer — with the cache on this
			// is the cached path, with it off plain determinism.
			if code2, body2 := rawGet(t, hc, cl[0].url()+q.path); code2 != code || body2 != body {
				t.Errorf("%s: second fetch diverged from first (status %d vs %d)", q.path, code2, code)
			}
		}
		return out
	}

	var golden map[string]answer
	for _, nodes := range []int{1, 2, 3} {
		for _, shards := range []int{1, 4} {
			for _, cache := range []int{0, 64} {
				name := fmt.Sprintf("nodes=%d,shards=%d,cache=%d", nodes, shards, cache)
				t.Run(name, func(t *testing.T) {
					got := run(t, nodes, shards, cache)
					for _, q := range queries {
						if got[q.path].code != q.code {
							t.Errorf("%s: status = %d, want %d: %s", q.path, got[q.path].code, q.code, got[q.path].body)
						}
					}
					if golden == nil {
						golden = got
						return
					}
					for _, q := range queries {
						if got[q.path].body != golden[q.path].body {
							t.Errorf("%s: body diverged from single-node golden:\n got %s\nwant %s",
								q.path, got[q.path].body, golden[q.path].body)
						}
					}
				})
			}
		}
	}
}

// hotspotsBody mirrors handleHotspots' response shape.
type hotspotsBody struct {
	Metric string                  `json:"metric"`
	Info   profstore.AggregateInfo `json:"info"`
	Rows   []profstore.Hotspot     `json:"rows"`
}

// TestClusterStress kills a node under concurrent query load, checks the
// survivors degrade (200 with a coverage annotation and conserved sums,
// 502 for ingest owned by the dead node), then restarts the node at the
// same address and requires the cluster to answer byte-identically to its
// pre-kill self. Run under -race in CI.
func TestClusterStress(t *testing.T) {
	clock := &testClock{t: testBase}
	cfg := profstore.Config{Window: time.Minute, Now: clock.Now}
	cl := bootTestCluster(t, cfg, 3)
	hc := &http.Client{Timeout: 10 * time.Second}
	ingestEquivalenceRounds(t, hc, cl[0].url(), clock, 3)

	goldenQueries := []string{"/hotspots?top=50", "/topk?k=50"}
	golden := map[string]string{}
	for _, q := range goldenQueries {
		code, body := rawGet(t, hc, cl[0].url()+q)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d before kill: %s", q, code, body)
		}
		golden[q] = body
	}

	// Concurrent queriers keep the scatter-gather path busy through the
	// kill and the degraded phase; every response must be a 200 (a down
	// peer degrades coverage, it does not fail the query).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc := &http.Client{Timeout: 10 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := qc.Get(cl[0].url() + "/hotspots?top=5")
				if err != nil {
					t.Errorf("querier: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("querier: status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	cl[2].srv.Close()

	// Degraded: still 200, coverage annotated, and the surviving rows are
	// a conserved subset of the full answer (never inflated, never
	// invented).
	var full hotspotsBody
	if err := json.Unmarshal([]byte(golden["/hotspots?top=50"]), &full); err != nil {
		t.Fatal(err)
	}
	fullExcl := map[string]float64{}
	for _, row := range full.Rows {
		fullExcl[row.Kind+"\x00"+row.Label] = row.Excl
	}
	var degraded hotspotsBody
	waitFor(t, 5*time.Second, "degraded coverage on survivor", func() bool {
		code, body := rawGet(t, hc, cl[0].url()+"/hotspots?top=50")
		if code != http.StatusOK {
			t.Fatalf("degraded hotspots status = %d: %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &degraded); err != nil {
			t.Fatal(err)
		}
		return degraded.Info.Coverage != nil
	})
	cov := degraded.Info.Coverage
	if cov.NodesTotal != 3 || cov.NodesUp != 2 || len(cov.Down) != 1 || cov.Down[0] != "n3" {
		t.Fatalf("coverage = %+v, want 2/3 up with n3 down", cov)
	}
	for _, row := range degraded.Rows {
		fullV, ok := fullExcl[row.Kind+"\x00"+row.Label]
		if !ok {
			t.Errorf("degraded answer invented row %s %q", row.Kind, row.Label)
			continue
		}
		if row.Excl > fullV+1e-9 {
			t.Errorf("degraded row %q excl %v exceeds full answer %v", row.Label, row.Excl, fullV)
		}
	}
	var st cluster.Status
	if err := getJSON(hc, cl[0].url()+"/cluster/status", &st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatalf("cluster status not degraded with n3 down: %+v", st)
	}

	// Ingest owned entirely by the dead node: the router must answer 502
	// without mutating any surviving store (the bundle has no local
	// share), so the post-restart byte-equality below still holds.
	var orphan *profiler.Profile
	for i := 0; orphan == nil && i < 1000; i++ {
		p := labeledProfile(fmt.Sprintf("w%03d", i), "nvidia", "pytorch", 1)
		if cl[0].coord.OwnerOf(profstore.LabelsOf(p.Meta)) == "n3" {
			orphan = p
		}
	}
	if orphan == nil {
		t.Fatal("no candidate series owned by n3")
	}
	resp, err := hc.Post(cl[0].url()+"/ingest", "application/octet-stream",
		bytes.NewReader(dcpBytes(t, orphan)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ingest for dead owner: status = %d, want 502", resp.StatusCode)
	}

	close(stop)
	wg.Wait()

	// Restart: same store, same coordinator, same address, fresh listener
	// and handler. The retry loop rides out the closed socket's release.
	var ln net.Listener
	for i := 0; i < 250; i++ {
		if ln, err = net.Listen("tcp", cl[2].addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", cl[2].addr, err)
	}
	cl[2].serve(t, ln)

	// Full coverage returns and the answers are byte-identical to the
	// pre-kill golden — nothing was lost or double-counted on the way
	// through the degraded phase.
	for _, q := range goldenQueries {
		q := q
		waitFor(t, 5*time.Second, q+" back to golden", func() bool {
			code, body := rawGet(t, hc, cl[0].url()+q)
			return code == http.StatusOK && body == golden[q]
		})
	}
	if err := getJSON(hc, cl[0].url()+"/cluster/status", &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatalf("cluster status still degraded after restart: %+v", st)
	}
}

// TestClusterJoinOverHTTP grows a two-node cluster to three through
// POST /cluster/join, so the handoff crosses the real /cluster/export and
// /cluster/import handlers in the peer wire. Every node must answer the
// pre-join bytes afterwards, and a re-run must move nothing.
func TestClusterJoinOverHTTP(t *testing.T) {
	clock := &testClock{t: testBase}
	cl := bootTestCluster(t, profstore.Config{Window: time.Minute, Now: clock.Now}, 3)
	two := &cluster.Table{Generation: 2, Nodes: []cluster.Node{
		{ID: "n1", Addr: cl[0].url()}, {ID: "n2", Addr: cl[1].url()},
	}}
	for _, nd := range cl[:2] {
		if err := nd.coord.SetTable(two); err != nil {
			t.Fatal(err)
		}
	}
	three := &cluster.Table{Generation: 3, Nodes: []cluster.Node{
		{ID: "n1", Addr: cl[0].url()}, {ID: "n2", Addr: cl[1].url()}, {ID: "n3", Addr: cl[2].url()},
	}}
	// Series until n3 takes some from each old owner, plus some that stay.
	var entries []profdb.Entry
	moves := map[string]int{}
	ring2, ring3 := two.Ring(), three.Ring()
	for i := 0; i < 1000 && (moves["n1"] == 0 || moves["n2"] == 0 || len(entries) < 8); i++ {
		p := labeledProfile(fmt.Sprintf("w%03d", i), "nvidia", "pytorch", float64(1+i))
		key := profstore.LabelsOf(p.Meta).Key()
		if from := ring2.Owner(key); ring3.Owner(key) == "n3" {
			moves[from]++
		}
		entries = append(entries, profdb.Entry{Name: key, Profile: p})
	}
	var bundle bytes.Buffer
	if err := profdb.SaveBundle(&bundle, entries); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	for round := 0; round < 2; round++ {
		resp, err := hc.Post(cl[0].url()+"/ingest", "application/octet-stream", bytes.NewReader(bundle.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: status %d", resp.StatusCode)
		}
		clock.Advance(time.Minute)
	}
	if got := cl[2].store.Stats().Ingested; got != 0 {
		t.Fatalf("n3 ingested %d profiles before joining", got)
	}
	const q = "/hotspots?top=50"
	_, golden := rawGet(t, hc, cl[0].url()+q)

	join := func() cluster.JoinReport {
		t.Helper()
		body, err := json.Marshal(three)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Post(cl[0].url()+"/cluster/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep cluster.JoinReport
		decodeJSON(t, resp, &rep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: status %d", resp.StatusCode)
		}
		return rep
	}
	rep := join()
	// Two windows per moved series.
	if rep.Exported["n1"] != 2*moves["n1"] || rep.Exported["n2"] != 2*moves["n2"] || rep.Imported["n3"] != 2*(moves["n1"]+moves["n2"]) {
		t.Fatalf("join report %+v, want n3 to import %v from n1 and n2, two windows each", rep, moves)
	}
	for _, nd := range cl {
		if code, body := rawGet(t, hc, nd.url()+q); code != http.StatusOK || body != golden {
			t.Fatalf("%s after join: status %d, body diverged from the pre-join answer:\n got %s\nwant %s", nd.id, code, body, golden)
		}
	}
	if rep := join(); rep.Exported["n1"]+rep.Exported["n2"]+rep.Exported["n3"] != 0 {
		t.Fatalf("re-run join moved data again: %+v", rep)
	}
}

// TestClusterMixedWireVersionDegrades boots a router beside a peer of the
// previous release, whose /cluster/partials answers indented JSON and whose
// /healthz reports no peer-wire version. The router must not fail or
// misread the answer: it answers 200 from its own share with the old peer
// named in coverage.down, and /cluster/status shows that peer down with an
// error naming the wire version, although its /healthz answers 200.
func TestClusterMixedWireVersionDegrades(t *testing.T) {
	clock := &testClock{t: testBase}
	cfg := profstore.Config{Window: time.Minute, Now: clock.Now}
	old := profstore.New(cfg)
	defer old.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/partials", func(w http.ResponseWriter, r *http.Request) {
		var req cluster.PartialsRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp, err := cluster.ServePartials(r.Context(), old, &req)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Status   string `json:"status"`
			Ingested int64  `json:"ingested"`
		}{"ok", old.Stats().Ingested})
	})
	legacy := httptest.NewServer(mux)
	defer legacy.Close()

	store := profstore.New(cfg)
	defer store.Close()
	tbl := &cluster.Table{Generation: 1, Nodes: []cluster.Node{{ID: "n1", Addr: "http://n1.invalid"}, {ID: "old", Addr: legacy.URL}}}
	coord, err := cluster.New(cluster.Config{Self: "n1", Store: store, Table: tbl, Options: cluster.Options{Backoff: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	_, h := newServerHandler(store, coord, profdb.DefaultMaxBytes, 0)
	router := httptest.NewServer(h)
	defer router.Close()
	owners := map[string]bool{}
	for _, sp := range equivalenceSeries {
		p := labeledProfile(sp.w, sp.v, sp.f, 1)
		owner := coord.OwnerOf(profstore.LabelsOf(p.Meta))
		owners[owner] = true
		st := store
		if owner == "old" {
			st = old
		}
		if _, err := st.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	if !owners["n1"] || !owners["old"] {
		t.Fatalf("series owners %v: the test needs both nodes to own data", owners)
	}
	checkStatus := func(when string) {
		t.Helper()
		var st cluster.Status
		if err := getJSON(http.DefaultClient, router.URL+"/cluster/status", &st); err != nil {
			t.Fatal(err)
		}
		if !st.Degraded || len(st.Nodes) != 2 {
			t.Fatalf("%s: status %+v, want degraded with two nodes", when, st)
		}
		for _, ns := range st.Nodes {
			switch {
			case ns.ID == "n1" && !ns.Up:
				t.Fatalf("%s: the router itself is down: %+v", when, ns)
			case ns.ID == "old" && (ns.Up || !strings.Contains(ns.LastError, cluster.ErrWireVersion.Error())):
				t.Fatalf("%s: old-release peer %+v, want down with last_error naming %q", when, ns, cluster.ErrWireVersion)
			}
		}
	}
	// Before any query the /healthz probe alone must mark the peer down;
	// after one, the probe must not reset the query's verdict.
	checkStatus("before a query")

	var body hotspotsBody
	if err := getJSON(http.DefaultClient, router.URL+"/hotspots?top=5", &body); err != nil {
		t.Fatal(err)
	}
	cov := body.Info.Coverage
	if cov == nil || cov.NodesTotal != 2 || cov.NodesUp != 1 || len(cov.Down) != 1 || cov.Down[0] != "old" {
		t.Fatalf("coverage = %+v, want the old-release peer down", cov)
	}
	if len(body.Rows) == 0 {
		t.Fatal("degraded answer carries no rows from the router's own share")
	}
	checkStatus("after a query")
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCanceledQueryReturns499 checks the cancellation plumbing end to
// end: a request whose context is already canceled must abandon the fold
// at the first bucket boundary and map to 499, not 404 or a fabricated
// empty answer.
func TestCanceledQueryReturns499(t *testing.T) {
	clock := &testClock{t: testBase}
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	defer store.Close()
	h := newHandler(store, profdb.DefaultMaxBytes, 0)
	for r := 0; r < 2; r++ {
		if _, err := store.Ingest(testProfile("UNet", float64(1+r))); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{
		"/hotspots?top=5",
		"/diff?before=2026-01-01T00:00:00Z&after=2026-01-01T00:01:00Z",
		"/topk?k=3",
		"/search?frame=gemm&limit=5",
		"/analyze",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != statusClientClosedRequest {
			t.Errorf("%s with canceled context: status = %d, want %d (body %s)",
				path, rr.Code, statusClientClosedRequest, rr.Body.String())
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil {
			t.Errorf("%s: undecodable error body %q", path, rr.Body.String())
			continue
		}
		if !strings.Contains(eb.Error, "canceled") {
			t.Errorf("%s: error %q does not mention cancellation", path, eb.Error)
		}
	}
}

// TestDrainWaitsForStreamBatch reproduces the shutdown race the drain
// closes: a /stream request is mid-body when shutdown begins. The drain
// must refuse new writes immediately, wait for the open request's applied
// batches to finish, and only then let the shutdown snapshot run — so a
// restart recovers the batch exactly once.
func TestDrainWaitsForStreamBatch(t *testing.T) {
	dir := t.TempDir()
	clock := &testClock{t: testBase}
	cfg := profstore.Config{Window: time.Minute, Now: clock.Now, Dir: dir}
	store := profstore.New(cfg)
	app, h := newServerHandler(store, nil, profdb.DefaultMaxBytes, 0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// One full frame, encoded client-side exactly as streamClient would.
	enc := profdb.NewDeltaEncoder()
	fr, err := enc.EncodeFull(streamTestProfile("unet", 4), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&batch), &profdb.StreamBatch{Seq: 1, Frames: []profdb.StreamFrame{fr}}); err != nil {
		t.Fatal(err)
	}

	// POST the batch through a pipe held open: the batch applies, the
	// request does not end — the shape http.Server.Shutdown gives up on.
	pr, pw := io.Pipe()
	postDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/stream?session=drain-test", "application/octet-stream", pr)
		if err != nil {
			postDone <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			postDone <- fmt.Errorf("stream: HTTP %d", resp.StatusCode)
			return
		}
		postDone <- nil
	}()
	if _, err := pw.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "stream batch applied", func() bool {
		return store.Stats().Ingested == 1
	})

	drainDone := make(chan bool, 1)
	go func() { drainDone <- app.drain(10 * time.Second) }()
	select {
	case ok := <-drainDone:
		t.Fatalf("drain returned %v while the stream request was still open", ok)
	case <-time.After(150 * time.Millisecond):
	}

	// Draining: new writes are refused up front.
	for _, post := range []struct{ path, what string }{
		{"/ingest", "ingest"},
		{"/stream?session=late", "stream"},
	} {
		resp, err := http.Post(ts.URL+post.path, "application/octet-stream",
			bytes.NewReader(dcpBytes(t, testProfile("DLRM", 1))))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		decodeJSON(t, resp, &eb)
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(eb.Error, "shutting down") {
			t.Fatalf("%s while draining: status = %d, error %q; want 503 %q",
				post.what, resp.StatusCode, eb.Error, errDraining)
		}
	}

	// The client finishes its body; the in-flight request completes and
	// the drain reports quiescence.
	pw.Close()
	if err := <-postDone; err != nil {
		t.Fatal(err)
	}
	if ok := <-drainDone; !ok {
		t.Fatal("drain timed out with the stream request finished")
	}

	// Shutdown snapshot, then recovery: exactly one copy of the batch.
	refJSON := storeStateJSON(t, store)
	if _, err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	recovered := profstore.New(cfg)
	defer recovered.Close()
	if _, err := recovered.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := recovered.Stats().Ingested; got != 1 {
		t.Fatalf("recovered ingested = %d, want exactly 1 (the drained batch)", got)
	}
	if got := storeStateJSON(t, recovered); got != refJSON {
		t.Fatalf("recovered store diverged (double- or zero-applied batch):\n got %s\nwant %s", got, refJSON)
	}
}

// storeStateJSON reduces a store's queryable state (hotspots over all
// windows, plus the window list) to one comparable string.
func storeStateJSON(t *testing.T, s *profstore.Store) string {
	t.Helper()
	rows, info, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, profstore.Labels{}, cct.MetricGPUTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(struct {
		Rows    []profstore.Hotspot
		Info    profstore.AggregateInfo
		Windows any
	}{rows, info, s.Windows()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
