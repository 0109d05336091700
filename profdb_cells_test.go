package deepcontext

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
)

// TestProfdbRoundTripAllCells runs the database codec over every cell of
// the evaluation matrix — ten workloads, both vendors, both frameworks —
// in two session configurations: CPU sampling on with the default shards,
// and the one cmd/dcbench's offline pipeline profiles (one shard, no CPU
// sampling, five iterations). It requires the loaded profile to be the one
// that was saved: cct.Equivalent to the profiler's tree, whose inclusive
// aggregates were propagated sample by sample while the loaded ones are
// derived from the stored exclusive slots; the same checksum, every scalar
// and map field, and exclusive metric arrays of the same length with their
// empty slots kept. It also pins that saving is a pure function of the
// profile, cell by cell.
func TestProfdbRoundTripAllCells(t *testing.T) {
	cells := 0
	for _, w := range WorkloadNames() {
		for _, vendor := range []string{"nvidia", "amd"} {
			for _, fw := range []string{"pytorch", "jax"} {
				cells++
				for _, run := range []struct {
					cfg   Config
					iters int
				}{
					{Config{Vendor: vendor, Framework: fw, CPUSampling: true}, 3},
					{Config{Vendor: vendor, Framework: fw, Shards: 1}, 5},
				} {
					name := fmt.Sprintf("%s/%s/%s/cpu=%v", w, vendor, fw, run.cfg.CPUSampling)
					roundTripCell(t, name, w, run.cfg, run.iters)
				}
			}
		}
	}
	if cells != 40 {
		t.Fatalf("matrix has %d cells, want 40", cells)
	}
}

func roundTripCell(t *testing.T, name, w string, cfg Config, iters int) {
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := s.RunWorkload(w, Knobs{}, iters); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p := s.Stop()
	p.Meta.Workload = w
	p.Meta.Iterations = iters

	var first, second bytes.Buffer
	if err := profdb.Save(&first, p); err != nil {
		t.Fatalf("%s: save: %v", name, err)
	}
	if err := profdb.Save(&second, p); err != nil {
		t.Fatalf("%s: save: %v", name, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("%s: two saves of one profile differ", name)
	}
	got, err := profdb.Load(&first)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}

	if err := cct.Equivalent(p.Tree, got.Tree); err != nil {
		t.Errorf("%s: tree: %v", name, err)
	}
	if a, b := profdb.Checksum(p), profdb.Checksum(got); a != b {
		t.Errorf("%s: checksum %x -> %x", name, a, b)
	}
	wantFused := p.Fused
	if len(wantFused) == 0 {
		wantFused = nil // an empty map and no map are one thing on the wire
	}
	if got.Meta != p.Meta || got.Stats != p.Stats || got.MonitorStats != p.MonitorStats ||
		got.FootprintBytes != p.FootprintBytes || !reflect.DeepEqual(got.Fused, wantFused) {
		t.Errorf("%s: profile fields changed:\n got %+v %+v %+v %d %v\nwant %+v %+v %+v %d %v", name,
			got.Meta, got.Stats, got.MonitorStats, got.FootprintBytes, got.Fused,
			p.Meta, p.Stats, p.MonitorStats, p.FootprintBytes, wantFused)
	}
	if !reflect.DeepEqual(got.Tree.Schema.Names(), p.Tree.Schema.Names()) {
		t.Errorf("%s: schema %v -> %v", name, p.Tree.Schema.Names(), got.Tree.Schema.Names())
	}
	// Preorder position by position: frames whole (not just their
	// unification key) and stored metric arrays slot for slot.
	var want []*cct.Node
	p.Tree.Visit(func(n *cct.Node) { want = append(want, n) })
	i := 0
	got.Tree.Visit(func(n *cct.Node) {
		if i < len(want) {
			w := want[i]
			if n.Frame != w.Frame || !reflect.DeepEqual(n.Excl, w.Excl) {
				t.Errorf("%s: node %d (%s): frame or exclusive metric array changed (%d -> %d slots)",
					name, i, w.Label(), len(w.Excl), len(n.Excl))
			}
		}
		i++
	})
	if i != len(want) {
		t.Errorf("%s: %d nodes -> %d", name, len(want), i)
	}
}
