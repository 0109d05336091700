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

// TestFrameIndexSeriesMayHave pins the posting-list contract: false
// proves absence, true after registration, idempotent re-adds.
func TestFrameIndexSeriesMayHave(t *testing.T) {
	x := newFrameIndex()
	tree := cct.NormalizeAddresses(synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1).Tree)
	x.addSeries("unet/nvidia/pytorch", tree)

	for _, label := range []string{"gemm", "relu", "aten::conv2d", "train.py:10 (main)"} {
		if !x.seriesMayHave(label, "unet/nvidia/pytorch") {
			t.Errorf("seriesMayHave(%q) = false for an indexed frame", label)
		}
	}
	if x.seriesMayHave("gemm", "other/series") {
		t.Error("posting leaked to an unregistered series")
	}
	if x.seriesMayHave("no_such_frame", "unet/nvidia/pytorch") {
		t.Error("unknown label matched")
	}

	frames, postings := len(x.post), x.postings
	x.addSeries("unet/nvidia/pytorch", tree) // idempotent
	if len(x.post) != frames || x.postings != postings {
		t.Fatalf("re-add changed the index: frames %d→%d postings %d→%d", frames, len(x.post), postings, x.postings)
	}
}

// TestIndexStateRoundTrip: encode → decode → adopt must reproduce the
// same frames, postings and label routing.
func TestIndexStateRoundTrip(t *testing.T) {
	x := newFrameIndex()
	x.addSeries("a", cct.NormalizeAddresses(synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1).Tree))
	x.addSeries("b", cct.NormalizeAddresses(synthProfile("DLRM", "AMD", "jax", 0x9000, 2).Tree))
	blob, err := x.encodeState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeIndexState(blob)
	if err != nil {
		t.Fatal(err)
	}
	y := newFrameIndex()
	for _, fs := range st.Frames {
		y.adoptFrame(fs, fs.Series)
	}
	if len(y.post) != len(x.post) || y.postings != x.postings {
		t.Fatalf("adopted index: frames=%d postings=%d, want frames=%d postings=%d",
			len(y.post), y.postings, len(x.post), x.postings)
	}
	for _, key := range []string{"a", "b"} {
		for _, label := range []string{"gemm", "relu"} {
			if x.seriesMayHave(label, key) != y.seriesMayHave(label, key) {
				t.Errorf("seriesMayHave(%q, %q) diverged across the round trip", label, key)
			}
		}
	}
	// And the re-encoding is deterministic.
	blob2, err := y.encodeState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-encode not byte-identical:\n%s\n%s", blob, blob2)
	}
}

// TestDecodeIndexStateDropsBadKinds: out-of-range kinds (corrupt or
// adversarial blobs) are dropped, not kept and never a panic; a frame
// persisted without labels falls back to its identity label on adoption.
func TestDecodeIndexStateDropsBadKinds(t *testing.T) {
	blob := []byte(`{"frames":[
		{"kind":99,"name":"junk","series":["a"]},
		{"kind":-1,"name":"junk","series":["a"]},
		{"kind":0,"name":"root","series":["a"]},
		{"kind":4,"name":"gemm","lib":"[gpu]","series":["a"]}]}`)
	st, err := decodeIndexState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Frames) != 1 || st.Frames[0].Name != "gemm" {
		t.Fatalf("kept frames = %+v, want only gemm", st.Frames)
	}
	x := newFrameIndex()
	x.adoptFrame(st.Frames[0], st.Frames[0].Series)
	// No labels in the blob: adoption falls back to the identity's label.
	f := cct.Frame{Kind: cct.FrameKind(st.Frames[0].Kind), Name: "gemm", Lib: "[gpu]"}
	if !x.seriesMayHave(f.Label(), "a") {
		t.Fatalf("label fallback %q not registered", f.Label())
	}
}

// TestIndexStatsRaceUnderIngest is the Stats() half of the stats
// satellite: Index counters are read under the shard locks while writers
// roll windows, so the cut is consistent and race-clean (this runs in the
// CI -race job).
func TestIndexStatsRaceUnderIngest(t *testing.T) {
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
				if st.Index == nil {
					t.Error("index stats missing while the index is enabled")
					return
				}
				if st.Index.Frames < 0 || st.Index.Postings < 0 {
					t.Errorf("negative index counters: %+v", st.Index)
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
	if st.Index == nil || st.Index.Frames == 0 || st.Index.Postings == 0 {
		t.Fatalf("index empty after concurrent ingest: %+v", st.Index)
	}
	if st.Index.Rebuilds != 0 {
		t.Fatalf("rebuilds = %d on a store that never recovered", st.Index.Rebuilds)
	}
}

// TestIndexStatsAcrossRecover pins the counter-reset semantics: a
// graceful restart adopts the persisted index (same frames and postings,
// zero rebuilds); a hard WAL-only restart (no snapshot ever committed —
// snapshotting prunes covered WAL segments, so a crash after one keeps
// the snapshot authoritative) rebuilds the index from replayed windows,
// counts it in Rebuilds, and converges to the same frames and postings.
func TestIndexStatsAcrossRecover(t *testing.T) {
	// seed builds a two-window, seven-series durable store with every
	// window closed (aggregated + indexed) and returns it with its
	// pre-restart index stats.
	seed := func(t *testing.T, dir string, clock *fakeClock) (*Store, Config, *IndexStats) {
		t.Helper()
		cfg := Config{Window: time.Minute, Retention: 60, CoarseFactor: 2, Shards: 2, Now: clock.Now, Dir: dir}
		s := New(cfg)
		for i, lb := range equivSeriesPool {
			mustIngest(t, s, synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x1000+i*256), float64(i+1)))
		}
		clock.Advance(time.Minute)
		mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x8000, 2))
		clock.Advance(time.Minute)
		s.TrendSweep() // closes both windows: aggregates + index built
		want := s.Stats().Index
		if want == nil || want.Frames == 0 || want.Postings == 0 || want.Rebuilds != 0 {
			t.Fatalf("pre-restart index stats = %+v", want)
		}
		return s, cfg, want
	}

	t.Run("graceful", func(t *testing.T) {
		s, cfg, want := seed(t, t.TempDir(), newClock(base))
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		// The snapshot carries index.json per shard; adoption must
		// reproduce the counters without a rebuild.
		revived := New(cfg)
		if rs, err := revived.Recover(); err != nil || !rs.SnapshotLoaded {
			t.Fatalf("recover = %+v, %v", rs, err)
		}
		defer revived.Close()
		got := revived.Stats().Index
		if got == nil || got.Frames != want.Frames || got.Postings != want.Postings || got.Rebuilds != 0 {
			t.Fatalf("after graceful restart: %+v, want %+v with 0 rebuilds", got, want)
		}
	})

	t.Run("hard", func(t *testing.T) {
		s, cfg, want := seed(t, t.TempDir(), newClock(base))
		s.Close() // crash: no snapshot, only the WAL survives
		rebuilt := New(cfg)
		if rs, err := rebuilt.Recover(); err != nil || rs.SnapshotLoaded {
			t.Fatalf("recover = %+v, %v", rs, err)
		}
		defer rebuilt.Close()
		got := rebuilt.Stats().Index
		if got == nil || got.Rebuilds == 0 {
			t.Fatalf("hard restart did not count a rebuild: %+v", got)
		}
		if got.Frames != want.Frames || got.Postings != want.Postings {
			t.Fatalf("rebuilt index diverged: %+v, want frames=%d postings=%d", got, want.Frames, want.Postings)
		}
	})
}
