package profstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// refStore is the naive single-map reference implementation the sharded,
// cached store is checked against: one flat bucket map per tier, linear
// scans, no locks, no cache, no persistence. It shares only the cct
// substrate (Merge/Diff/Normalize) and the pure ranking helpers with the
// real store — everything the tentpole changed (routing, striped locking,
// generation-stamped caching, per-shard compaction) is reimplemented here
// in the simplest possible form.
type refStore struct {
	cfg    Config
	fine   map[int64]map[string]*refSeries
	coarse map[int64]map[string]*refSeries
}

type refSeries struct {
	labels   Labels
	tree     *cct.Tree
	profiles int
}

func newRefStore(cfg Config) *refStore {
	return &refStore{
		cfg:    cfg.withDefaults(),
		fine:   make(map[int64]map[string]*refSeries),
		coarse: make(map[int64]map[string]*refSeries),
	}
}

func (r *refStore) ingest(p *profiler.Profile) {
	start := r.cfg.Now().Truncate(r.cfg.Window).UnixNano()
	w := r.fine[start]
	if w == nil {
		w = make(map[string]*refSeries)
		r.fine[start] = w
	}
	labels := LabelsOf(p.Meta)
	ser := w[labels.Key()]
	if ser == nil {
		ser = &refSeries{labels: labels, tree: cct.New()}
		w[labels.Key()] = ser
	}
	cct.Merge(ser.tree, cct.NormalizeAddresses(p.Tree))
	ser.profiles++
}

func (r *refStore) compact(now time.Time) {
	fineHorizon := now.Add(-time.Duration(r.cfg.Retention) * r.cfg.Window).Truncate(r.cfg.Window)
	for _, start := range sortedKeys(r.fine) {
		if !time.Unix(0, start).Before(fineHorizon) {
			continue
		}
		cStart := time.Unix(0, start).Truncate(r.cfg.coarse()).UnixNano()
		cw := r.coarse[cStart]
		if cw == nil {
			cw = make(map[string]*refSeries)
			r.coarse[cStart] = cw
		}
		w := r.fine[start]
		for _, k := range sortedKeys(w) {
			ser := w[k]
			dst := cw[k]
			if dst == nil {
				dst = &refSeries{labels: ser.labels, tree: cct.New()}
				cw[k] = dst
			}
			cct.Merge(dst.tree, ser.tree)
			dst.profiles += ser.profiles
		}
		delete(r.fine, start)
	}
	coarseHorizon := now.Add(-time.Duration(r.cfg.CoarseRetention) * r.cfg.coarse()).Truncate(r.cfg.coarse())
	for _, start := range sortedKeys(r.coarse) {
		if time.Unix(0, start).Before(coarseHorizon) {
			delete(r.coarse, start)
		}
	}
}

func (r *refStore) aggregate(from, to time.Time, filter Labels) (*cct.Tree, AggregateInfo, error) {
	out := cct.New()
	info := AggregateInfo{}
	seen := make(map[string]bool)
	fold := func(buckets map[int64]map[string]*refSeries) {
		for _, start := range sortedKeys(buckets) {
			st := time.Unix(0, start)
			if !from.IsZero() && st.Before(from) {
				continue
			}
			if !to.IsZero() && !st.Before(to) {
				continue
			}
			matched := false
			w := buckets[start]
			for _, k := range sortedKeys(w) {
				ser := w[k]
				if !ser.labels.Matches(filter) {
					continue
				}
				cct.Merge(out, ser.tree)
				info.Profiles += ser.profiles
				matched = true
				if !seen[k] {
					seen[k] = true
					info.Series = append(info.Series, k)
				}
			}
			if matched {
				info.Windows++
			}
		}
	}
	fold(r.fine)
	fold(r.coarse)
	if info.Windows == 0 {
		return nil, info, ErrNoData
	}
	sort.Strings(info.Series)
	return out, info, nil
}

// foldAggs enumerates every matched series in the canonical (tier,
// bucket start, series key) order, visiting each once per bucket — the
// naive reference enumeration behind topK and search.
func (r *refStore) foldAggs(from, to time.Time, filter Labels, visit func(key string, labels Labels, ser *refSeries)) (AggregateInfo, error) {
	info := AggregateInfo{}
	seen := make(map[string]bool)
	fold := func(buckets map[int64]map[string]*refSeries) {
		for _, start := range sortedKeys(buckets) {
			st := time.Unix(0, start)
			if !from.IsZero() && st.Before(from) {
				continue
			}
			if !to.IsZero() && !st.Before(to) {
				continue
			}
			matched := false
			w := buckets[start]
			for _, k := range sortedKeys(w) {
				ser := w[k]
				if !ser.labels.Matches(filter) {
					continue
				}
				visit(k, ser.labels, ser)
				info.Profiles += ser.profiles
				matched = true
				if !seen[k] {
					seen[k] = true
					info.Series = append(info.Series, k)
				}
			}
			if matched {
				info.Windows++
			}
		}
	}
	fold(r.fine)
	fold(r.coarse)
	if info.Windows == 0 {
		return info, ErrNoData
	}
	sort.Strings(info.Series)
	return info, nil
}

// topK is the uncached reference for Store.TopK: every (bucket, series)
// aggregate recomputed fresh from the tree, no close-time cache, no
// index. It shares the accumulator with the store so the float operations
// are bit-identical; only the aggregate provenance differs.
func (r *refStore) topK(from, to time.Time, filter Labels, metric string, k int) ([]TopKRow, AggregateInfo, error) {
	if metric == "" {
		metric = cct.MetricGPUTime
	}
	acc := newTopKAcc(metric)
	info, err := r.foldAggs(from, to, filter, func(key string, _ Labels, ser *refSeries) {
		acc.addSeries(key, computeSeriesAgg(ser.tree))
	})
	if err != nil {
		return nil, info, err
	}
	rows, err := acc.finish(k)
	return rows, info, err
}

// search is the uncached reference for Store.Search: every series
// inspected, aggregates recomputed fresh.
func (r *refStore) search(from, to time.Time, filter Labels, frame, metric string, limit int) ([]SearchRow, AggregateInfo, error) {
	if metric == "" {
		metric = cct.MetricGPUTime
	}
	acc := newSearchAcc(frame, metric)
	info, err := r.foldAggs(from, to, filter, func(key string, labels Labels, ser *refSeries) {
		acc.addSeries(key, labels, computeSeriesAgg(ser.tree))
	})
	if err != nil {
		return nil, info, err
	}
	rows, err := acc.finish(limit)
	return rows, info, err
}

func (r *refStore) hotspots(from, to time.Time, filter Labels, metric string, top int) ([]Hotspot, AggregateInfo, error) {
	tree, info, err := r.aggregate(from, to, filter)
	if err != nil {
		return nil, info, err
	}
	rows, err := rankHotspots(tree, metric, top)
	return rows, info, err
}

func (r *refStore) diff(before, after time.Time, filter Labels, metric string, top int) (*DiffResult, error) {
	resolveFold := func(t time.Time) (*cct.Tree, error) {
		w := r.fine[t.Truncate(r.cfg.Window).UnixNano()]
		if w == nil {
			w = r.coarse[t.Truncate(r.cfg.coarse()).UnixNano()]
		}
		if w == nil {
			return nil, ErrNoData
		}
		out := cct.New()
		matched := false
		for _, k := range sortedKeys(w) {
			if ser := w[k]; ser.labels.Matches(filter) {
				cct.Merge(out, ser.tree)
				matched = true
			}
		}
		if !matched {
			return nil, ErrNoData
		}
		return out, nil
	}
	bTree, err := resolveFold(before)
	if err != nil {
		return nil, err
	}
	aTree, err := resolveFold(after)
	if err != nil {
		return nil, err
	}
	return buildDiffResult(bTree, aTree, metric, top)
}

// mustJSON renders v for byte comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// equivSeriesPool is the label universe of the property test: enough
// distinct series to land on several shards, including pairs differing in
// one field only (filter edge cases).
var equivSeriesPool = []Labels{
	{"UNet", "Nvidia", "pytorch"},
	{"UNet", "AMD", "pytorch"},
	{"UNet", "Nvidia", "jax"},
	{"DLRM", "Nvidia", "jax"},
	{"DLRM", "AMD", "pytorch"},
	{"Bert", "AMD", "jax"},
	{"Resnet", "Nvidia", "pytorch"},
}

// TestPropertyEquivalenceWithReferenceStore drives randomized
// ingest/advance/compact/retain interleavings against the naive reference
// store and every (shards, cache) variant simultaneously, and requires
// Hotspots, Diff, Windows and Aggregate to match the reference at every
// checkpoint.
func TestPropertyEquivalenceWithReferenceStore(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalenceScript(t, seed)
		})
	}
}

func runEquivalenceScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := newClock(base)
	cfgBase := Config{Window: time.Minute, Retention: 4, CoarseFactor: 3, CoarseRetention: 5, Now: clock.Now}

	type variant struct {
		name string
		s    *Store
	}
	var variants []variant
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, cacheSize := range []int{0, 64} {
			cfg := cfgBase
			cfg.Shards = shards
			cfg.CacheSize = cacheSize
			v := variant{fmt.Sprintf("shards=%d/cache=%d", shards, cacheSize), New(cfg)}
			variants = append(variants, v)
			defer v.s.Close()
		}
	}
	ref := newRefStore(cfgBase)

	var windowStarts []time.Time
	noteWindow := func(ts time.Time) {
		start := ts.Truncate(cfgBase.Window)
		for _, w := range windowStarts {
			if w.Equal(start) {
				return
			}
		}
		windowStarts = append(windowStarts, start)
	}

	verify := func(step int) {
		t.Helper()
		// Hotspot variants: unfiltered, one-field filters, a bounded range,
		// and the cpu metric.
		queries := []struct {
			from, to time.Time
			filter   Labels
			metric   string
			top      int
		}{
			{time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 0},
			{time.Time{}, time.Time{}, Labels{Vendor: "nvidia"}, cct.MetricGPUTime, 5},
			{time.Time{}, time.Time{}, Labels{Workload: "unet", Framework: "jax"}, cct.MetricCPUTime, 3},
		}
		if len(windowStarts) > 1 {
			lo := windowStarts[rng.Intn(len(windowStarts))]
			queries = append(queries, struct {
				from, to time.Time
				filter   Labels
				metric   string
				top      int
			}{lo, lo.Add(3 * cfgBase.Window), Labels{}, cct.MetricGPUTime, 0})
		}
		for qi, q := range queries {
			wantRows, wantInfo, wantErr := ref.hotspots(q.from, q.to, q.filter, q.metric, q.top)
			for _, v := range variants {
				gotRows, gotInfo, gotErr := v.s.Hotspots(context.Background(), q.from, q.to, q.filter, q.metric, q.top)
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoData) && !errors.Is(gotErr, ErrUnknownMetric)) {
					t.Fatalf("step %d %s hotspots[%d]: err %v, ref err %v", step, v.name, qi, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if mustJSON(t, gotRows) != mustJSON(t, wantRows) || mustJSON(t, gotInfo) != mustJSON(t, wantInfo) {
					t.Fatalf("step %d %s hotspots[%d] diverged from reference:\n got %s %s\nwant %s %s",
						step, v.name, qi, mustJSON(t, gotRows), mustJSON(t, gotInfo), mustJSON(t, wantRows), mustJSON(t, wantInfo))
				}
			}
		}
		// Fleet queries: TopK and Search over the close-time aggregates
		// must match the naive reference that recomputes every aggregate.
		topkQueries := []struct {
			from, to time.Time
			filter   Labels
			metric   string
			k        int
		}{
			{time.Time{}, time.Time{}, Labels{}, "", 0},
			{time.Time{}, time.Time{}, Labels{Vendor: "nvidia"}, cct.MetricGPUTime, 3},
			{time.Time{}, time.Time{}, Labels{}, cct.MetricCPUTime, 0},
		}
		if len(windowStarts) > 1 {
			lo := windowStarts[rng.Intn(len(windowStarts))]
			topkQueries = append(topkQueries, struct {
				from, to time.Time
				filter   Labels
				metric   string
				k        int
			}{lo, lo.Add(2 * cfgBase.Window), Labels{}, "", 2})
		}
		for qi, q := range topkQueries {
			wantRows, wantInfo, wantErr := ref.topK(q.from, q.to, q.filter, q.metric, q.k)
			for _, v := range variants {
				gotRows, gotInfo, gotErr := v.s.TopK(context.Background(), q.from, q.to, q.filter, q.metric, q.k)
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoData) && !errors.Is(gotErr, ErrUnknownMetric)) {
					t.Fatalf("step %d %s topk[%d]: err %v, ref err %v", step, v.name, qi, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if mustJSON(t, gotRows) != mustJSON(t, wantRows) || mustJSON(t, gotInfo) != mustJSON(t, wantInfo) {
					t.Fatalf("step %d %s topk[%d] diverged from reference:\n got %s %s\nwant %s %s",
						step, v.name, qi, mustJSON(t, gotRows), mustJSON(t, gotInfo), mustJSON(t, wantRows), mustJSON(t, wantInfo))
				}
			}
		}
		searchQueries := []struct {
			frame  string
			filter Labels
			metric string
			limit  int
		}{
			{"gemm", Labels{}, "", 0},
			{"relu", Labels{Framework: "pytorch"}, cct.MetricGPUTime, 2},
			{"aten::conv2d", Labels{}, cct.MetricCPUTime, 0},
			{"no_such_kernel", Labels{}, "", 0},
		}
		for qi, q := range searchQueries {
			wantRows, wantInfo, wantErr := ref.search(time.Time{}, time.Time{}, q.filter, q.frame, q.metric, q.limit)
			for _, v := range variants {
				gotRows, gotInfo, gotErr := v.s.Search(context.Background(), time.Time{}, time.Time{}, q.filter, q.frame, q.metric, q.limit)
				if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNoData) && !errors.Is(gotErr, ErrUnknownMetric)) {
					t.Fatalf("step %d %s search[%d]: err %v, ref err %v", step, v.name, qi, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if mustJSON(t, gotRows) != mustJSON(t, wantRows) || mustJSON(t, gotInfo) != mustJSON(t, wantInfo) {
					t.Fatalf("step %d %s search[%d] diverged from reference:\n got %s %s\nwant %s %s",
						step, v.name, qi, mustJSON(t, gotRows), mustJSON(t, gotInfo), mustJSON(t, wantRows), mustJSON(t, wantInfo))
				}
			}
		}
		if len(windowStarts) >= 2 {
			b := windowStarts[rng.Intn(len(windowStarts))]
			a := windowStarts[rng.Intn(len(windowStarts))]
			filter := Labels{}
			if rng.Intn(2) == 1 {
				filter = Labels{Workload: equivSeriesPool[rng.Intn(len(equivSeriesPool))].Workload}
			}
			wantDiff, wantErr := ref.diff(b, a, filter, cct.MetricGPUTime, 0)
			for _, v := range variants {
				gotDiff, gotErr := v.s.Diff(context.Background(), b, a, filter, cct.MetricGPUTime, 0)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d %s diff(%v,%v): err %v, ref err %v", step, v.name, b, a, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if mustJSON(t, gotDiff) != mustJSON(t, wantDiff) {
					t.Fatalf("step %d %s diff diverged from reference:\n got %s\nwant %s",
						step, v.name, mustJSON(t, gotDiff), mustJSON(t, wantDiff))
				}
			}
		}
		// Window listings must agree between variants (the reference does
		// not model WindowInfo; the shards=1/cache=0 variant is the
		// pre-shard shape, golden-pinned by TestQueryGolden).
		want := mustJSON(t, variants[0].s.Windows())
		for _, v := range variants[1:] {
			if got := mustJSON(t, v.s.Windows()); got != want {
				t.Fatalf("step %d %s windows diverged: got %s want %s", step, v.name, got, want)
			}
		}
	}

	const steps = 150
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r < 5: // ingest one profile into every store
			lb := equivSeriesPool[rng.Intn(len(equivSeriesPool))]
			pc := uint64(0x1000 + rng.Intn(1<<14)*8)
			scale := float64(rng.Intn(9) + 1)
			ref.ingest(synthProfile(lb.Workload, lb.Vendor, lb.Framework, pc, scale))
			for _, v := range variants {
				mustIngest(t, v.s, synthProfile(lb.Workload, lb.Vendor, lb.Framework, pc, scale))
			}
			noteWindow(clock.Now())
		case r < 7: // advance the shared clock
			clock.Advance(time.Duration(rng.Intn(90)+15) * time.Second)
		case r < 8: // retention jump: expire fine (sometimes coarse) windows
			clock.Advance(time.Duration(rng.Intn(8)+4) * time.Minute)
			fallthrough
		case r < 9: // compaction everywhere
			now := clock.Now()
			ref.compact(now)
			for _, v := range variants {
				v.s.CompactNow()
			}
		default: // repeat queries back-to-back so cached paths serve
			verify(i)
		}
		if i%7 == 0 {
			verify(i)
		}
	}
	verify(steps)

	// The cached variants must actually have exercised the cache.
	for _, v := range variants {
		if cs := v.s.Stats().Cache; cs != nil && cs.Hits == 0 {
			t.Errorf("%s: cache never hit during the property run (%+v)", v.name, cs)
		}
	}
}
