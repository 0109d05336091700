package profstore

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"deepcontext/internal/cct"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/queries.golden.json from the current store")

// goldenCorpus ingests a fixed six-window, four-series profile sequence and
// runs one compaction, so the corpus spans fine and coarse buckets. The
// clock ends two windows past the last ingest.
func goldenCorpus(t *testing.T, s *Store, clock *fakeClock) {
	t.Helper()
	goldenCorpusFrom(t, s, clock, 0)
}

// goldenCorpusFrom is goldenCorpus resumed after its first skip profiles:
// the store already holds them (recovered from an older binary's data
// directory), and the clock stands in the window the next one lands in.
func goldenCorpusFrom(t *testing.T, s *Store, clock *fakeClock, skip int) {
	t.Helper()
	series := []struct {
		workload, vendor, fw string
	}{
		{"UNet", "Nvidia", "pytorch"},
		{"UNet", "AMD", "pytorch"},
		{"DLRM", "Nvidia", "jax"},
		{"Bert", "AMD", "jax"},
	}
	n := 0
	for w := 0; w < 6; w++ {
		for si, sp := range series {
			// Not every series appears in every window, and PCs shift per
			// "run" so normalization must fold them.
			if (w+si)%4 == 3 {
				continue
			}
			if n++; n <= skip {
				continue
			}
			p := synthProfile(sp.workload, sp.vendor, sp.fw,
				uint64(0x1000+w*512+si*64), float64(w+si%3+1))
			mustIngest(t, s, p)
		}
		if n > skip {
			clock.Advance(time.Minute)
		}
	}
	clock.Advance(2 * time.Minute)
	s.CompactNow()
}

// goldenImage renders the full query surface over the corpus as one
// deterministic JSON blob: hotspot variants (filters, metrics, bounds),
// window-vs-window diffs across fine and coarse buckets, and the retained
// window listing.
func goldenImage(t *testing.T, s *Store) []byte {
	t.Helper()
	type hotKey struct {
		Name     string
		From, To time.Time
		Filter   Labels
		Metric   string
		Top      int
		Rows     []Hotspot
		Info     AggregateInfo
	}
	var hots []hotKey
	for _, q := range []struct {
		name     string
		from, to time.Time
		filter   Labels
		metric   string
		top      int
	}{
		{"all", time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 0},
		{"cpu-top3", time.Time{}, time.Time{}, Labels{}, cct.MetricCPUTime, 3},
		{"nvidia", time.Time{}, time.Time{}, Labels{Vendor: "nvidia"}, cct.MetricGPUTime, 0},
		{"unet-jax-none-ok", time.Time{}, time.Time{}, Labels{Workload: "unet"}, cct.MetricGPUTime, 5},
		{"bounded", base.Add(time.Minute), base.Add(4 * time.Minute), Labels{}, cct.MetricGPUTime, 0},
	} {
		rows, info, err := s.Hotspots(context.Background(), q.from, q.to, q.filter, q.metric, q.top)
		if err != nil {
			t.Fatalf("hotspots %s: %v", q.name, err)
		}
		hots = append(hots, hotKey{q.name, q.from, q.to, q.filter, q.metric, q.top, rows, info})
	}

	var diffs []*DiffResult
	for _, q := range []struct {
		before, after time.Time
		filter        Labels
	}{
		// base's fine window has been folded coarse by the compaction;
		// base+5m is still fine — the diff crosses resolutions.
		{base, base.Add(5 * time.Minute), Labels{}},
		{base.Add(4 * time.Minute), base.Add(5 * time.Minute), Labels{Workload: "unet"}},
	} {
		res, err := s.Diff(context.Background(), q.before, q.after, q.filter, cct.MetricGPUTime, 0)
		if err != nil {
			t.Fatalf("diff %v vs %v: %v", q.before, q.after, err)
		}
		diffs = append(diffs, res)
	}

	type topkKey struct {
		Name     string
		From, To time.Time
		Filter   Labels
		Metric   string
		K        int
		Rows     []TopKRow
		Info     AggregateInfo
	}
	var topks []topkKey
	for _, q := range []struct {
		name     string
		from, to time.Time
		filter   Labels
		metric   string
		k        int
	}{
		{"all", time.Time{}, time.Time{}, Labels{}, "", 0},
		{"amd-top2", time.Time{}, time.Time{}, Labels{Vendor: "amd"}, "", 2},
		{"cpu", time.Time{}, time.Time{}, Labels{}, cct.MetricCPUTime, 0},
		{"bounded", base.Add(time.Minute), base.Add(4 * time.Minute), Labels{}, "", 0},
	} {
		rows, info, err := s.TopK(context.Background(), q.from, q.to, q.filter, q.metric, q.k)
		if err != nil {
			t.Fatalf("topk %s: %v", q.name, err)
		}
		topks = append(topks, topkKey{q.name, q.from, q.to, q.filter, q.metric, q.k, rows, info})
	}

	type searchKey struct {
		Name   string
		Frame  string
		Filter Labels
		Metric string
		Limit  int
		Rows   []SearchRow
		Info   AggregateInfo
	}
	var searches []searchKey
	for _, q := range []struct {
		name   string
		frame  string
		filter Labels
		metric string
		limit  int
	}{
		{"gemm", "gemm", Labels{}, "", 0},
		{"relu-jax-top2", "relu", Labels{Framework: "jax"}, "", 2},
		{"operator-cpu", "aten::relu", Labels{}, cct.MetricCPUTime, 0},
		{"python-frame", "train.py:10 (main)", Labels{}, "", 0},
	} {
		rows, info, err := s.Search(context.Background(), time.Time{}, time.Time{}, q.filter, q.frame, q.metric, q.limit)
		if err != nil {
			t.Fatalf("search %s: %v", q.name, err)
		}
		searches = append(searches, searchKey{q.name, q.frame, q.filter, q.metric, q.limit, rows, info})
	}

	img, err := json.MarshalIndent(struct {
		Hotspots []hotKey
		Diffs    []*DiffResult
		TopK     []topkKey
		Search   []searchKey
		Windows  []WindowInfo
	}{hots, diffs, topks, searches, s.Windows()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// goldenConfigs enumerates the store configurations that must all answer
// the golden corpus byte-identically: the shards=1/cache-off baseline (the
// pre-shard store's exact shape), striped variants, and cached variants —
// sharding and caching must be invisible to query results.
func goldenConfigs() []Config {
	base := Config{Window: time.Minute, Retention: 3, CoarseFactor: 2}
	var out []Config
	for _, shards := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		for _, cache := range []int{0, 128} {
			cfg := base
			cfg.Shards = shards
			cfg.CacheSize = cache
			out = append(out, cfg)
		}
	}
	return out
}

// TestQueryGolden is the acceptance gate for query-path refactors: every
// store configuration must answer the fixed corpus byte-identical to the
// recorded pre-refactor output. Regenerate with -update-golden only when a
// query-semantics change is intended.
func TestQueryGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "queries.golden.json")
	if *updateGolden {
		clock := newClock(base)
		cfg := goldenConfigs()[0]
		cfg.Now = clock.Now
		s := New(cfg)
		defer s.Close()
		goldenCorpus(t, s, clock)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, goldenImage(t, s), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	for i, cfg := range goldenConfigs() {
		clock := newClock(base)
		cfg.Now = clock.Now
		s := New(cfg)
		goldenCorpus(t, s, clock)
		// Two passes: the second is served from the cache when enabled,
		// and must be just as byte-identical as the first.
		for pass := 0; pass < 2; pass++ {
			if got := goldenImage(t, s); !bytes.Equal(got, want) {
				t.Errorf("config %d (shards=%d cache=%d) pass %d: query image diverged from pre-refactor golden",
					i, cfg.Shards, cfg.CacheSize, pass)
			}
		}
		if cfg.CacheSize > 0 {
			if cs := s.Stats().Cache; cs == nil || cs.Hits == 0 {
				t.Errorf("config %d: cache recorded no hits on the repeat pass (%+v)", i, s.Stats().Cache)
			}
		}
		s.Close()
	}
}

// TestQueryGoldenAcrossRestart pins the restart half of the acceptance
// matrix: a durable store answers the golden corpus byte-identical to the
// in-memory recording after a graceful restart (snapshot adopted, index
// blob included) AND after a hard one (snapshots deleted, WAL-only replay
// rebuilds everything — including the frame index), for every shard and
// cache combination.
func TestQueryGoldenAcrossRestart(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "queries.golden.json"))
	if err != nil {
		t.Fatalf("missing golden (run TestQueryGolden with -update-golden to create): %v", err)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, cache := range []int{0, 128} {
			for _, hard := range []bool{false, true} {
				t.Run(fmt.Sprintf("shards=%d/cache=%d/hard=%v", shards, cache, hard), func(t *testing.T) {
					clock := newClock(base)
					cfg := goldenConfigs()[0]
					cfg.Shards = shards
					cfg.CacheSize = cache
					cfg.Now = clock.Now
					cfg.Dir = t.TempDir()
					s := New(cfg)
					goldenCorpus(t, s, clock)
					if !hard {
						if _, err := s.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
					s.Close()
					if hard {
						// A hard crash that also lost the snapshots: recovery
						// must rebuild from the WAL alone.
						for _, pat := range []string{"shard-*/snap-*", "shard-*/CURRENT"} {
							paths, err := filepath.Glob(filepath.Join(cfg.Dir, pat))
							if err != nil {
								t.Fatal(err)
							}
							for _, p := range paths {
								if err := os.RemoveAll(p); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					revived := New(cfg)
					rs, err := revived.Recover()
					if err != nil {
						t.Fatal(err)
					}
					defer revived.Close()
					if hard && rs.SnapshotLoaded {
						t.Fatalf("hard restart loaded a snapshot: %+v", rs)
					}
					if !hard && !rs.SnapshotLoaded {
						t.Fatalf("graceful restart missed the snapshot: %+v", rs)
					}
					// Two passes so the second is served from the cache when
					// enabled.
					for pass := 0; pass < 2; pass++ {
						if got := goldenImage(t, revived); !bytes.Equal(got, want) {
							t.Errorf("pass %d: recovered query image diverged from golden", pass)
						}
					}
				})
			}
		}
	}
}
