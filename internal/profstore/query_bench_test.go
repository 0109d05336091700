package profstore

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// populate fills a store with `windows` windows × `seriesN` series of
// synthetic profiles (distinct PCs folded by normalization), a
// representative dashboard-query working set.
func populate(b *testing.B, s *Store, clock *fakeClock, windows, seriesN, perSeries int) {
	b.Helper()
	for w := 0; w < windows; w++ {
		for si := 0; si < seriesN; si++ {
			for p := 0; p < perSeries; p++ {
				prof := synthProfile(fmt.Sprintf("W%d", si), "Nvidia", "pytorch",
					uint64(0x1000+w*4096+si*256+p*8), float64(p+1))
				if _, err := s.Ingest(prof); err != nil {
					b.Fatal(err)
				}
			}
		}
		clock.Advance(time.Minute)
	}
}

// benchmarkHotspots measures the repeated-query path — the exact shape a
// dashboard produces — with and without the generation-stamped cache.
func benchmarkHotspots(b *testing.B, cacheSize int) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Shards: 4, CacheSize: cacheSize, Now: clock.Now})
	defer s.Close()
	populate(b, s, clock, 30, 4, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotspotsUncached(b *testing.B) { benchmarkHotspots(b, 0) }

func BenchmarkHotspotsCached(b *testing.B) { benchmarkHotspots(b, 128) }

// populateFleet fills a store with one closed window of seriesN distinct
// series — the fleet-query shape: many series, wide trees (32 calling
// contexts each, the representative profile width; the 6-frame
// synthProfile would make the per-series aggregate look artificially
// cheap). Every 100th series additionally carries a rare kernel only
// those series have, so Search benchmarks find 1 series in 100.
func populateFleet(b *testing.B, s *Store, clock *fakeClock, seriesN int) {
	b.Helper()
	for si := 0; si < seriesN; si++ {
		workload := fmt.Sprintf("W%d", si)
		prof := wideProfile(workload, 32)
		if si%100 == 0 {
			n := prof.Tree.InsertPath([]cct.Frame{
				cct.PythonFrame("train.py", 30, "main"),
				cct.OperatorFrame("aten::rare"),
				{Kind: cct.KindKernel, Name: "rare_kernel", Lib: "[gpu]", PC: 0xdead0},
			})
			prof.Tree.AddMetric(n, prof.Tree.MetricID(cct.MetricGPUTime), 5)
		}
		if _, err := s.Ingest(prof); err != nil {
			b.Fatal(err)
		}
	}
	clock.Advance(2 * time.Minute)
	s.TrendSweep() // closes the window: aggregates computed
}

// BenchmarkTopK10kSeries measures the fleet-wide ranking over the
// close-time aggregates. The cache is off: this measures the fold, not
// memoization.
func BenchmarkTopK10kSeries(b *testing.B) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Shards: 4, CacheSize: 0, Now: clock.Now})
	defer s.Close()
	populateFleet(b, s, clock, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchRare10kSeries measures finding the 1-in-100 series that
// carry a rare kernel: one label lookup in each series' close-time
// aggregate.
func BenchmarkSearchRare10kSeries(b *testing.B) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Shards: 4, CacheSize: 0, Now: clock.Now})
	defer s.Close()
	populateFleet(b, s, clock, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := s.Search(context.Background(), time.Time{}, time.Time{}, Labels{}, "rare_kernel", cct.MetricGPUTime, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 100 {
			b.Fatalf("rows = %d, want 100", len(rows))
		}
	}
}

// BenchmarkFoldPartials folds one query's tree partials — 32 series of 256
// calling contexts — the way a cluster coordinator used to (decode each into
// a tree, then Merge) and the way it does now (plan each from its bytes,
// then MergePlan, releasing the plan).
func BenchmarkFoldPartials(b *testing.B) {
	parts := foldFixture(b, 32, 256)
	b.Run("decode+Merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := cct.New()
			for j := range parts {
				tree, err := parts[j].DecodeTree()
				if err != nil {
					b.Fatal(err)
				}
				cct.Merge(out, tree)
			}
		}
	})
	b.Run("plan+MergePlan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := cct.New()
			for j := range parts {
				ps, err := parts[j].planTree()
				if err != nil {
					b.Fatal(err)
				}
				out.MergePlan(ps.Records[0].Plan)
				ps.Release()
			}
		}
	})
}

// wideProfile builds a profile with `paths` distinct calling contexts, so
// the under-lock merge does representative work (the small synthProfile
// fixture makes ingest benchmarks measure profile construction instead).
func wideProfile(workload string, paths int) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	for i := 0; i < paths; i++ {
		n := tree.InsertPath([]cct.Frame{
			cct.PythonFrame("train.py", i%40+1, fmt.Sprintf("fn%d", i%40)),
			cct.OperatorFrame(fmt.Sprintf("aten::op%d", i%60)),
			{Kind: cct.KindKernel, Name: fmt.Sprintf("kern%d", i), Lib: "[gpu]", PC: uint64(0x1000 + i*16)},
		})
		tree.AddMetric(n, gid, float64(i+1))
	}
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: "Nvidia", Framework: "pytorch"},
	}
}

// BenchmarkConcurrentIngestShards measures ingest contention across
// disjoint series: every goroutine repeatedly folds its own pre-built
// wide profile into its own series, so shards>1 lets the under-lock
// merges run in parallel where the single-stripe store serialized them.
func benchmarkConcurrentIngest(b *testing.B, shards int) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Shards: shards, Now: clock.Now})
	defer s.Close()
	var id atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := id.Add(1)
		p := wideProfile(fmt.Sprintf("W%d", g), 400)
		for pb.Next() {
			if _, err := s.Ingest(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkConcurrentIngestShards1(b *testing.B) { benchmarkConcurrentIngest(b, 1) }

func BenchmarkConcurrentIngestShardsMax(b *testing.B) {
	benchmarkConcurrentIngest(b, runtime.GOMAXPROCS(0))
}
