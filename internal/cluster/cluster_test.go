package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

func TestRingDeterministicOwners(t *testing.T) {
	nodes := []Node{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}, {ID: "c", Addr: "http://c"}}
	r1, r2 := NewRing(nodes), NewRing(nodes)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("workload-%d/nvidia/pytorch", i)
		o1, o2 := r1.Owner(key), r2.Owner(key)
		if o1 != o2 {
			t.Fatalf("ring not deterministic: key %q -> %q vs %q", key, o1, o2)
		}
		counts[o1]++
	}
	for _, n := range nodes {
		if counts[n.ID] == 0 {
			t.Fatalf("node %s owns no keys: %v", n.ID, counts)
		}
	}
	// Removing a node must not reshuffle keys between the survivors.
	r12 := NewRing(nodes[:2])
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("workload-%d/nvidia/pytorch", i)
		before := r1.Owner(key)
		after := r12.Owner(key)
		if before != "c" && before != after {
			t.Fatalf("key %q moved %s -> %s though its owner survived", key, before, after)
		}
	}
}

func TestParsePeers(t *testing.T) {
	tbl, err := ParsePeers("b=127.0.0.1:2, a=https://h:1/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{{ID: "a", Addr: "https://h:1"}, {ID: "b", Addr: "http://127.0.0.1:2"}}
	if len(tbl.Nodes) != 2 || tbl.Nodes[0] != want[0] || tbl.Nodes[1] != want[1] {
		t.Fatalf("ParsePeers = %+v, want %+v", tbl.Nodes, want)
	}
	if tbl.Generation != 1 {
		t.Fatalf("bootstrap generation = %d, want 1", tbl.Generation)
	}
	for _, bad := range []string{"", "noequals", "a=x,a=y", "=x"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) succeeded, want error", bad)
		}
	}
}

func TestTableSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), TableFile)
	if tbl, err := LoadTable(path); err != nil || tbl != nil {
		t.Fatalf("LoadTable on absent file = %v, %v; want nil, nil", tbl, err)
	}
	in := &Table{Generation: 3, Nodes: []Node{{ID: "a", Addr: "http://a"}, {ID: "b", Addr: "http://b"}}}
	if err := SaveTable(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatalf("LoadTable = %+v, want %+v", out, in)
	}
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

// testNode is one in-process cluster member serving the minimal cluster
// API surface the coordinator speaks — each route delegating to the same
// package functions dcserver's handlers do.
type testNode struct {
	id    string
	store *profstore.Store
	coord *Coordinator
	ts    *httptest.Server
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}

func newTestNode(t *testing.T, id string, now func() time.Time) *testNode {
	t.Helper()
	n := &testNode{id: id}
	n.store = profstore.New(profstore.Config{Window: time.Minute, Now: now})
	t.Cleanup(n.store.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/cluster/partials", func(w http.ResponseWriter, r *http.Request) {
		var req PartialsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp, err := ServePartials(r.Context(), n.store, &req)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		WritePartials(w, resp)
	})
	mux.HandleFunc("/cluster/ingest", func(w http.ResponseWriter, r *http.Request) {
		sum, err := ApplyForward(n.store, r.Body, 64<<20)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		json.NewEncoder(w).Encode(sum)
	})
	mux.HandleFunc("/cluster/export", func(w http.ResponseWriter, r *http.Request) {
		var req ExportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		set, err := ExportMoved(r.Context(), n.store, n.id, req.Table)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		WritePartials(w, &PartialsResponse{Set: set})
	})
	mux.HandleFunc("/cluster/import", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		msg, err := DecodePartials(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		imported, err := ImportSet(n.store, msg.Set)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		json.NewEncoder(w).Encode(struct {
			Imported int `json:"imported"`
		}{imported})
	})
	mux.HandleFunc("/cluster/table", func(w http.ResponseWriter, r *http.Request) {
		var tbl Table
		if err := json.NewDecoder(r.Body).Decode(&tbl); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := n.coord.SetTable(&tbl); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		json.NewEncoder(w).Encode(struct {
			Generation uint64 `json:"generation"`
		}{n.coord.Table().Generation})
	})
	mux.HandleFunc("/cluster/drop", func(w http.ResponseWriter, r *http.Request) {
		dropped, err := n.coord.DropUnowned()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		json.NewEncoder(w).Encode(struct {
			Dropped int `json:"dropped"`
		}{dropped})
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func TestJoinHandoffMovesSeries(t *testing.T) {
	now := func() time.Time { return time.Date(2026, 1, 1, 0, 0, 30, 0, time.UTC) }
	n1 := newTestNode(t, "n1", now)
	n2 := newTestNode(t, "n2", now)

	// Bootstrap: a one-node cluster holding every series.
	t1 := &Table{Generation: 1, Nodes: []Node{{ID: "n1", Addr: n1.ts.URL}}}
	var err error
	n1.coord, err = New(Config{Self: "n1", Store: n1.store, Table: t1})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for i := 0; i < 8; i++ {
		p := testProfile(fmt.Sprintf("wl-%d", i), float64(i+1))
		if _, err := n1.store.Ingest(p); err != nil {
			t.Fatal(err)
		}
		keys[profstore.LabelsOf(p.Meta).Key()] = true
	}

	// The reference answer before any movement.
	ctx := context.Background()
	refTree, refInfo, err := n1.coord.Aggregate(ctx, time.Time{}, time.Time{}, profstore.Labels{})
	if err != nil {
		t.Fatal(err)
	}

	// Join n2: generation 2, both nodes.
	t2 := &Table{Generation: 2, Nodes: []Node{
		{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL},
	}}
	n2.coord, err = New(Config{Self: "n2", Store: n2.store, Table: t2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n1.coord.Join(ctx, t2)
	if err != nil {
		t.Fatal(err)
	}
	ring := t2.Ring()
	wantMoved := 0
	for key := range keys {
		if ring.Owner(key) != "n1" {
			wantMoved++
		}
	}
	if wantMoved == 0 {
		t.Fatal("test needs at least one series moving to n2; add workloads")
	}
	if rep.Exported["n1"] != wantMoved || rep.Imported["n2"] != wantMoved {
		t.Fatalf("join report exported=%v imported=%v, want %d moved to n2", rep.Exported, rep.Imported, wantMoved)
	}
	if rep.Dropped["n1"] != wantMoved {
		t.Fatalf("join dropped %v, want n1 to drop the %d moved series", rep.Dropped, wantMoved)
	}
	if g := n1.coord.Table().Generation; g != 2 {
		t.Fatalf("n1 table generation = %d, want 2", g)
	}

	// The cluster answer after the move must match the pre-move reference.
	for _, c := range []*Coordinator{n1.coord, n2.coord} {
		tree, info, err := c.Aggregate(ctx, time.Time{}, time.Time{}, profstore.Labels{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Profiles != refInfo.Profiles || info.Windows != refInfo.Windows || len(info.Series) != len(refInfo.Series) {
			t.Fatalf("post-join info %+v != reference %+v", info, refInfo)
		}
		gid, _ := tree.Schema.Lookup(cct.MetricGPUTime)
		rid, _ := refTree.Schema.Lookup(cct.MetricGPUTime)
		if got, want := tree.Root.InclValue(gid), refTree.Root.InclValue(rid); got != want {
			t.Fatalf("post-join total %v != reference %v", got, want)
		}
	}

	// Re-running the join with the same table is an idempotent no-op.
	rep2, err := n1.coord.Join(ctx, t2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Exported["n1"] != 0 || rep2.Imported["n2"] != 0 {
		t.Fatalf("re-join moved data again: %+v", rep2)
	}

	// A conflicting table at the same generation is rejected.
	bad := &Table{Generation: 2, Nodes: []Node{{ID: "n1", Addr: n1.ts.URL}}}
	if _, err := n1.coord.Join(ctx, bad); err == nil {
		t.Fatal("join accepted a conflicting table at the current generation")
	}
}

func TestForwardRoundTrip(t *testing.T) {
	now := func() time.Time { return time.Date(2026, 1, 1, 0, 0, 30, 0, time.UTC) }
	n1 := newTestNode(t, "n1", now)
	n2 := newTestNode(t, "n2", now)
	tbl := &Table{Generation: 1, Nodes: []Node{
		{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL},
	}}
	var err error
	n1.coord, err = New(Config{Self: "n1", Store: n1.store, Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	profs := []*profiler.Profile{testProfile("fwd-a", 1), testProfile("fwd-b", 2)}
	body, err := EncodeForward(profs)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := n1.coord.ForwardBytes(context.Background(), "n2", body, len(profs))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ingested != 2 || len(sum.Series) != 2 {
		t.Fatalf("forward summary = %+v, want 2 profiles", sum)
	}
	if got := n2.store.Stats().Ingested; got != 2 {
		t.Fatalf("n2 ingested %d profiles, want 2", got)
	}
	if got := n1.store.Stats().Ingested; got != 0 {
		t.Fatalf("n1 ingested %d profiles, want 0", got)
	}
}
