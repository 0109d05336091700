package deepcontext

import (
	"bytes"
	"reflect"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
)

// TestProfdbRoundTripAllCells runs the database codec over every cell of
// the evaluation matrix — ten workloads, both vendors, both frameworks —
// and requires the decoded profile to be the one that was saved: the same
// tree and aggregates, the same checksum, every scalar and map field, and
// metric arrays of the same length with their empty slots kept. It also
// pins that saving is a pure function of the profile, cell by cell.
func TestProfdbRoundTripAllCells(t *testing.T) {
	cells := 0
	for _, w := range WorkloadNames() {
		for _, vendor := range []string{"nvidia", "amd"} {
			for _, fw := range []string{"pytorch", "jax"} {
				cells++
				name := w + "/" + vendor + "/" + fw
				s, err := NewSession(Config{Vendor: vendor, Framework: fw, CPUSampling: true})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := s.RunWorkload(w, Knobs{}, 3); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				p := s.Stop()
				p.Meta.Workload = w

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
				// unification key) and metric arrays slot for slot.
				var want []*cct.Node
				p.Tree.Visit(func(n *cct.Node) { want = append(want, n) })
				i := 0
				got.Tree.Visit(func(n *cct.Node) {
					if i < len(want) {
						w := want[i]
						if n.Frame != w.Frame || !reflect.DeepEqual(n.Excl, w.Excl) || !reflect.DeepEqual(n.Incl, w.Incl) {
							t.Errorf("%s: node %d (%s): frame or metric arrays changed (excl %d -> %d slots, incl %d -> %d)",
								name, i, w.Label(), len(w.Excl), len(n.Excl), len(w.Incl), len(n.Incl))
						}
					}
					i++
				})
				if i != len(want) {
					t.Errorf("%s: %d nodes -> %d", name, len(want), i)
				}
			}
		}
	}
	if cells != 40 {
		t.Fatalf("matrix has %d cells, want 40", cells)
	}
}
