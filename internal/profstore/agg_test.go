package profstore

import (
	"context"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
)

// TestComputeSeriesAggMatchesManualFold checks the close-time aggregate
// against a hand-rolled DFS over the same tree: same labels (ascending),
// same kinds, same exclusive sums per metric.
func TestComputeSeriesAggMatchesManualFold(t *testing.T) {
	tree := cct.NormalizeAddresses(synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 3).Tree)
	agg := computeSeriesAgg(tree)

	names := tree.Schema.Names()
	want := make(map[string][]float64)
	kinds := make(map[string]string)
	tree.Visit(func(n *cct.Node) {
		if n.Kind == cct.KindRoot {
			return
		}
		label := n.Label()
		sums := want[label]
		if sums == nil {
			sums = make([]float64, len(names))
			want[label] = sums
			kinds[label] = n.Kind.String()
		}
		for m := range names {
			sums[m] += n.ExclValue(cct.MetricID(m))
		}
	})

	if len(agg.labels) != len(want) {
		t.Fatalf("labels = %v, want %d entries", agg.labels, len(want))
	}
	for i, label := range agg.labels {
		if i > 0 && agg.labels[i-1] >= label {
			t.Fatalf("labels not strictly ascending: %v", agg.labels)
		}
		if agg.kinds[i] != kinds[label] {
			t.Errorf("kind[%s] = %s, want %s", label, agg.kinds[i], kinds[label])
		}
		for m := range names {
			if agg.sums[i][m] != want[label][m] {
				t.Errorf("sum[%s][%s] = %v, want %v", label, names[m], agg.sums[i][m], want[label][m])
			}
		}
	}
	// The gemm kernel carries exactly 100·scale GPU ns exclusively.
	li := agg.labelIndex("gemm")
	mi := agg.metricIndex(cct.MetricGPUTime)
	if li < 0 || mi < 0 || agg.sums[li][mi] != 300 {
		t.Fatalf("gemm gpu sum: li=%d mi=%d", li, mi)
	}
	if agg.labelIndex("nope") != -1 || agg.metricIndex("nope") != -1 {
		t.Fatal("absent lookups must return -1")
	}
}

// TestStatsRaceUnderIngest reads Stats under the shard locks while writers
// roll windows and readers run TopK and TrendSweep, so the cut is
// consistent and race-clean (this runs in the CI -race job).
func TestStatsRaceUnderIngest(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: 10 * time.Millisecond, Retention: 60, CoarseFactor: 2, Shards: 4, CacheSize: 32, Now: clock.Now})
	defer s.Close()

	done := make(chan struct{})
	// The clock runs outside the writer WaitGroup (a ticking goroutine
	// that the writers' wg.Wait also waits on never returns); it just
	// stops with done.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				clock.Advance(3 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	workloads := []string{"UNet", "DLRM", "Bert", "GPT"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				mustIngest(t, s, synthProfile(workloads[w], "Nvidia", "pytorch", uint64(0x1000+w*64+i*8), 1))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := s.Stats()
				if st.Series < 0 || st.Nodes < 0 || st.FineWindows < 0 || st.Ingested > 600 {
					t.Errorf("inconsistent stats cut: %+v", st)
					return
				}
				if st.Series > 0 && (st.Nodes == 0 || st.FineWindows+st.CoarseWindows == 0) {
					t.Errorf("series without nodes or windows: %+v", st)
					return
				}
				s.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, "", 3)
				s.TrendSweep()
			}
		}()
	}
	wg.Wait()
	close(done)

	// Close every window deterministically before asserting: the racing
	// goroutines may all finish before the clock crosses a boundary.
	clock.Advance(time.Second)
	s.TrendSweep()
	st := s.Stats()
	if st.Ingested != 600 || st.Series == 0 || st.Nodes == 0 || st.FineWindows == 0 {
		t.Fatalf("occupancy after concurrent ingest: %+v", st)
	}
}
