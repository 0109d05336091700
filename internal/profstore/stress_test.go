package profstore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/flamegraph"
)

// seriesTotal reads one series' aggregate GPU total; absent data reads 0.
func seriesTotal(t *testing.T, s *Store, filter Labels) float64 {
	t.Helper()
	tree, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, filter)
	if err != nil {
		if errors.Is(err, ErrNoData) {
			return 0
		}
		t.Error(err)
		return 0
	}
	id, ok := tree.Schema.Lookup(cct.MetricGPUTime)
	if !ok {
		return 0
	}
	return tree.Root.InclValue(id)
}

// TestShardedStressConservedSumsAndFreshReads is the -race stress
// satellite: concurrent ingest, queries, snapshots and compaction across
// shards with the cache on. Each writer owns one series; a paired reader
// polls that series' total, which must be non-decreasing (merges only add,
// and the clock never crosses the retention horizon) — a stale cache read
// after an invalidation would show a smaller total than one already
// observed. The run ends with exact conserved sums and a byte-equal
// crash recovery of whatever the last snapshot + WAL hold.
func TestShardedStressConservedSumsAndFreshReads(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := Config{
		Window: time.Minute, Retention: 60, CoarseFactor: 2,
		Shards: 4, CacheSize: 256, Now: clock.Now, Dir: dir,
	}
	s := New(cfg)

	const writers = 8
	const perWriter = 12
	// Each profile contributes 140 GPU ns (see synthProfile).
	const perProfile = 140.0

	stopBg := make(chan struct{})
	var bgWg sync.WaitGroup
	for _, bg := range []func(){
		func() { s.CompactNow() },
		func() { s.Snapshot() },
		func() { s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 5) },
		func() { s.Windows(); s.Stats() },
		func() {
			if len(s.Windows()) >= 1 {
				s.Diff(context.Background(), base, clock.Now(), Labels{}, cct.MetricGPUTime, 3)
			}
		},
	} {
		bgWg.Add(1)
		go func(tick func()) {
			defer bgWg.Done()
			for {
				select {
				case <-stopBg:
					return
				default:
					tick()
				}
			}
		}(bg)
	}

	var rwWg sync.WaitGroup
	for g := 0; g < writers; g++ {
		workload := fmt.Sprintf("W%d", g)
		filter := Labels{Workload: workload}
		writerDone := make(chan struct{})
		rwWg.Add(2)
		go func(g int) { // writer: owns one series
			defer rwWg.Done()
			defer close(writerDone)
			for i := 0; i < perWriter; i++ {
				mustIngest(t, s, synthProfile(workload, "Nvidia", "pytorch", uint64(g*4096+i*8), 1))
				if i%4 == 0 {
					clock.Advance(time.Second)
				}
			}
		}(g)
		go func() { // reader: monotonic total over the paired series
			defer rwWg.Done()
			last := 0.0
			for {
				got := seriesTotal(t, s, filter)
				if got < last {
					t.Errorf("series %s total went backwards: %v after %v (stale cache read)", workload, got, last)
					return
				}
				last = got
				select {
				case <-writerDone:
					return
				default:
				}
			}
		}()
	}
	rwWg.Wait()
	close(stopBg)
	bgWg.Wait()

	// Exact conservation per series and overall, served through the cache.
	for pass := 0; pass < 2; pass++ {
		for g := 0; g < writers; g++ {
			filter := Labels{Workload: fmt.Sprintf("W%d", g)}
			if got := seriesTotal(t, s, filter); got != perProfile*perWriter {
				t.Fatalf("pass %d: series W%d total = %v, want %v", pass, g, got, perProfile*perWriter)
			}
		}
		if got := seriesTotal(t, s, Labels{}); got != perProfile*writers*perWriter {
			t.Fatalf("pass %d: grand total = %v, want %v", pass, got, perProfile*writers*perWriter)
		}
	}
	st := s.Stats()
	if st.Ingested != writers*perWriter {
		t.Fatalf("ingested = %d, want %d", st.Ingested, writers*perWriter)
	}
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("cache saw no hits under stress: %+v", st.Cache)
	}

	// Crash: abandon without a final snapshot; recovery of the per-shard
	// WALs plus whatever snapshot last committed must conserve the sums.
	s.Close()
	revived := New(cfg)
	if _, err := revived.Recover(); err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if got := seriesTotal(t, revived, Labels{}); got != perProfile*writers*perWriter {
		t.Fatalf("recovered grand total = %v, want %v", got, perProfile*writers*perWriter)
	}
	if got := revived.Stats().Ingested; got != writers*perWriter {
		t.Fatalf("recovered ingested = %d, want %d", got, writers*perWriter)
	}
}

// searchExcl reads one series' gemm total through Search; absent data
// (or a series whose gemm never landed yet) reads 0.
func searchExcl(t *testing.T, s *Store, filter Labels) float64 {
	t.Helper()
	rows, _, err := s.Search(context.Background(), time.Time{}, time.Time{}, filter, "gemm", cct.MetricGPUTime, 0)
	if err != nil {
		if errors.Is(err, ErrNoData) {
			return 0
		}
		t.Error(err)
		return 0
	}
	total := 0.0
	for _, r := range rows {
		total += r.Excl
	}
	return total
}

// TestShardedStressTopKSearch is the fleet-query half of the -race stress
// satellite: concurrent ingest, TopK, Search and compaction across shards
// with the cache on. Window closes compute aggregates under the write
// lock while readers fold them under the read locks; a paired reader
// polls its writer's series through Search("gemm"), which must be
// non-decreasing (merges only add, the clock never crosses the retention
// horizon, and a stale cached row or a stale aggregate would read low). The run ends with exact conserved sums through TopK.
func TestShardedStressTopKSearch(t *testing.T) {
	clock := newClock(base)
	s := New(Config{
		Window: time.Minute, Retention: 60, CoarseFactor: 2,
		Shards: 4, CacheSize: 256, Now: clock.Now,
	})
	defer s.Close()

	const writers = 8
	const perWriter = 12
	// Per profile (see synthProfile): gemm 100, relu 40 GPU ns.
	const gemmPer = 100.0
	const reluPer = 40.0

	stopBg := make(chan struct{})
	var bgWg sync.WaitGroup
	for _, bg := range []func(){
		func() { s.CompactNow() },
		func() { s.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, "", 5) },
		func() { s.Search(context.Background(), time.Time{}, time.Time{}, Labels{}, "relu", "", 0) },
		func() { s.TrendSweep(); s.Stats() },
	} {
		bgWg.Add(1)
		go func(tick func()) {
			defer bgWg.Done()
			for {
				select {
				case <-stopBg:
					return
				default:
					tick()
				}
			}
		}(bg)
	}

	var rwWg sync.WaitGroup
	for g := 0; g < writers; g++ {
		workload := fmt.Sprintf("W%d", g)
		filter := Labels{Workload: workload}
		writerDone := make(chan struct{})
		rwWg.Add(2)
		go func(g int) { // writer: owns one series
			defer rwWg.Done()
			defer close(writerDone)
			for i := 0; i < perWriter; i++ {
				mustIngest(t, s, synthProfile(workload, "Nvidia", "pytorch", uint64(g*4096+i*8), 1))
				if i%4 == 0 {
					clock.Advance(time.Second)
				}
			}
		}(g)
		go func() { // reader: monotonic gemm total over the paired series
			defer rwWg.Done()
			last := 0.0
			for {
				got := searchExcl(t, s, filter)
				if got < last {
					t.Errorf("series %s gemm total went backwards: %v after %v (stale cache or stale aggregate)", workload, got, last)
					return
				}
				last = got
				select {
				case <-writerDone:
					return
				default:
				}
			}
		}()
	}
	rwWg.Wait()
	close(stopBg)
	bgWg.Wait()

	// Exact conservation, twice so the second pass serves from the cache:
	// per series through Search, fleet-wide through TopK.
	for pass := 0; pass < 2; pass++ {
		for g := 0; g < writers; g++ {
			filter := Labels{Workload: fmt.Sprintf("W%d", g)}
			if got := searchExcl(t, s, filter); got != gemmPer*perWriter {
				t.Fatalf("pass %d: series W%d gemm = %v, want %v", pass, g, got, gemmPer*perWriter)
			}
		}
		rows, _, err := s.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		byLabel := make(map[string]TopKRow, len(rows))
		for _, r := range rows {
			byLabel[r.Label] = r
		}
		if got := byLabel["gemm"]; got.Excl != gemmPer*writers*perWriter || got.Series != writers {
			t.Fatalf("pass %d: gemm row = %+v, want excl %v over %d series", pass, got, gemmPer*writers*perWriter, writers)
		}
		if got := byLabel["relu"]; got.Excl != reluPer*writers*perWriter {
			t.Fatalf("pass %d: relu row = %+v, want excl %v", pass, got, reluPer*writers*perWriter)
		}
		if rows[0].Label != "gemm" {
			t.Fatalf("pass %d: top row = %+v, want gemm", pass, rows[0])
		}
	}
	if cs := s.Stats().Cache; cs == nil || cs.Hits == 0 {
		t.Fatalf("cache saw no hits under stress: %+v", s.Stats().Cache)
	}
}

// TestCacheServesAndInvalidatesPrecisely pins the cache semantics the
// mixed read/write workload relies on: repeats hit; an ingest into a
// window a query read invalidates exactly that query; bounded queries
// over other windows keep hitting through unrelated ingest.
func TestCacheServesAndInvalidatesPrecisely(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Shards: 4, CacheSize: 64, Now: clock.Now})
	defer s.Close()

	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x10, 1))
	clock.Advance(time.Minute)
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x20, 2))

	hot := func() float64 {
		rows, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].Excl
	}
	boundedHot := func() float64 {
		rows, _, err := s.Hotspots(context.Background(), base, base.Add(time.Minute), Labels{}, cct.MetricGPUTime, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].Excl
	}

	if got := hot(); got != 300 { // gemm: 100 + 200
		t.Fatalf("initial top = %v", got)
	}
	cs := s.Stats().Cache
	if cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("after first query: %+v", cs)
	}
	if got := hot(); got != 300 {
		t.Fatalf("repeat top = %v", got)
	}
	if cs = s.Stats().Cache; cs.Hits != 1 {
		t.Fatalf("repeat did not hit: %+v", cs)
	}

	// Seed and repeat the bounded query over the (closed) first window.
	if got := boundedHot(); got != 100 {
		t.Fatalf("bounded top = %v", got)
	}
	if got := boundedHot(); got != 100 {
		t.Fatalf("bounded repeat = %v", got)
	}
	base2 := s.Stats().Cache.Hits // 2: one full-range, one bounded

	// Ingest into the CURRENT window: the full-range entry must
	// invalidate and recompute fresh; the bounded entry must keep hitting.
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x30, 4))
	if got := hot(); got != 700 { // +400
		t.Fatalf("post-ingest top = %v (stale cache?)", got)
	}
	cs = s.Stats().Cache
	if cs.Invalidations != 1 {
		t.Fatalf("expected exactly one invalidation: %+v", cs)
	}
	if got := boundedHot(); got != 100 {
		t.Fatalf("bounded after unrelated ingest = %v", got)
	}
	if cs = s.Stats().Cache; cs.Hits != base2+1 {
		t.Fatalf("bounded query should still hit after unrelated ingest: %+v", cs)
	}

	// Compaction folds both fine windows into the coarse bucket starting
	// at base — which lies inside the bounded range, so the bounded
	// query's correct answer changes to the full 700. Serving the old 100
	// here would be a stale read; the recompute proves the fold
	// invalidated the entry.
	clock.Advance(90 * time.Minute)
	s.CompactNow()
	if got := boundedHot(); got != 700 {
		t.Fatalf("bounded after compaction = %v (stale cache?)", got)
	}
	if cs = s.Stats().Cache; cs.Invalidations < 2 {
		t.Fatalf("compaction should invalidate the bounded entry: %+v", cs)
	}
}

// TestCacheEviction bounds the cache: distinct queries beyond CacheSize
// evict least-recently-served entries instead of growing without bound.
func TestCacheEviction(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, CacheSize: 4, Now: clock.Now})
	defer s.Close()
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x10, 1))
	for top := 1; top <= 10; top++ {
		if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, top); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.Stats().Cache
	if cs.Entries > 4 {
		t.Fatalf("cache exceeded its cap: %+v", cs)
	}
	if cs.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6 (%+v)", cs.Evictions, cs)
	}
}

// TestQueryFinishRaceUnderIngest runs the query work that happens after
// the shard locks drop — an uncached Hotspots' ranking, Aggregate's
// derive and a folded render of its tree, Diff's totals and delta tree —
// concurrently with ingest, window rolls and compaction. Under -race it
// shows that none of that work reads a live window tree; each answer must
// also be internally consistent.
func TestQueryFinishRaceUnderIngest(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Retention: 3, CoarseFactor: 2, Shards: 4, Now: clock.Now})
	defer s.Close()
	ctx := context.Background()
	for si := 0; si < 4; si++ { // so the first queries find data
		if _, err := s.Ingest(wideProfile(fmt.Sprintf("W%d", si), 48)); err != nil {
			t.Fatal(err)
		}
	}

	var writers sync.WaitGroup
	for si := 0; si < 4; si++ {
		writers.Add(1)
		go func(si int) {
			defer writers.Done()
			p := wideProfile(fmt.Sprintf("W%d", si), 48)
			for i := 0; i < 60; i++ {
				if _, err := s.Ingest(p); err != nil {
					t.Error(err)
					return
				}
				if si == 0 && i%6 == 5 {
					clock.Advance(time.Minute)
					s.CompactNow()
				}
			}
		}(si)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, query := range []func() error{
		func() error {
			rows, _, err := s.Hotspots(ctx, time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 5)
			for _, r := range rows {
				if r.Incl < r.Excl || r.Frac <= 0 || r.Frac > 1 {
					return fmt.Errorf("inconsistent hotspot row %+v", r)
				}
			}
			return err
		},
		func() error {
			tree, _, err := s.Aggregate(ctx, time.Time{}, time.Time{}, Labels{})
			if err != nil {
				return err
			}
			gid, _ := tree.Schema.Lookup(cct.MetricGPUTime)
			var excl float64
			tree.Visit(func(n *cct.Node) { excl += n.ExclValue(gid) })
			if incl := tree.Root.InclValue(gid); incl != excl {
				return fmt.Errorf("aggregate root inclusive %v, exclusive sum %v", incl, excl)
			}
			var sb strings.Builder
			return flamegraph.Folded(&sb, tree, cct.MetricGPUTime)
		},
		func() error {
			now := clock.Now()
			res, err := s.Diff(ctx, now.Add(-time.Minute), now, Labels{}, cct.MetricGPUTime, 5)
			if err != nil {
				return err
			}
			if gid, ok := res.Tree.Schema.Lookup(cct.MetricGPUTime); ok && res.Tree.Root.InclValue(gid) != res.Net {
				return fmt.Errorf("diff tree total %v, net %v", res.Tree.Root.InclValue(gid), res.Net)
			}
			return nil
		},
	} {
		readers.Add(1)
		go func(query func() error) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := query(); err != nil && !errors.Is(err, ErrNoData) {
					t.Error(err)
					return
				}
			}
		}(query)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
