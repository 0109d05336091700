package profstore

// Fleet-wide queries over the close-time aggregates: TopK ranks frame
// labels by exclusive metric across every matching series without folding
// a single tree, and Search finds the series that contain a given frame
// with one label lookup per series. Both fold in the store's canonical
// (tier, bucket start, series key) order and go through the same
// generation-stamped cache as Hotspots, so results are byte-identical for
// every shard count, cache setting and restart history — pinned by the
// golden and property tests against the naive uncached reference.

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"deepcontext/internal/cct"
)

// TopKRow is one fleet-wide ranking row: a frame label's exclusive metric
// summed across every matched series and bucket.
type TopKRow struct {
	Rank  int     `json:"rank"`
	Label string  `json:"label"`
	Kind  string  `json:"kind"`
	Excl  float64 `json:"excl"`
	// Frac is Excl relative to the sum over all labels.
	Frac float64 `json:"frac"`
	// Series counts distinct series contributing a nonzero value.
	Series int `json:"series"`
}

// SearchRow is one series that contains the searched frame, with the
// frame's exclusive metric summed over the matched buckets.
type SearchRow struct {
	Rank      int     `json:"rank"`
	Series    string  `json:"series"`
	Workload  string  `json:"workload"`
	Vendor    string  `json:"vendor"`
	Framework string  `json:"framework"`
	Excl      float64 `json:"excl"`
	// Windows counts the buckets in range where the series' frame carried
	// a nonzero value.
	Windows int `json:"windows"`
}

// topkAcc accumulates per-label exclusive sums in canonical fold order.
// The store and the reference implementation share it, so both perform
// bit-identical float operations; they differ only in where the
// per-series aggregates come from (cached at window close vs recomputed).
type topkAcc struct {
	metric string
	known  map[string]bool
	order  []string
	accs   map[string]*topkLabelAcc
	// ids assigns each series key a dense id on first contribution, so
	// per-label distinct-series tracking is one bitmap write instead of a
	// string-map insert per (label, series) pair — the dominant cost of a
	// 10k-series fold.
	ids map[string]int
}

type topkLabelAcc struct {
	kind string
	excl float64
	seen bitset
}

// bitset is a grow-on-write bitmap over the accumulator's dense series
// ids.
type bitset []uint64

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func newTopKAcc(metric string) *topkAcc {
	return &topkAcc{metric: metric, known: make(map[string]bool), accs: make(map[string]*topkLabelAcc), ids: make(map[string]int)}
}

// addSeries folds one (bucket, series) aggregate. Labels accumulate in
// the agg's ascending label order.
func (t *topkAcc) addSeries(key string, agg *seriesAgg) {
	for _, m := range agg.metrics {
		t.known[m] = true
	}
	mi := agg.metricIndex(t.metric)
	if mi < 0 {
		return
	}
	id, ok := t.ids[key]
	if !ok {
		id = len(t.ids)
		t.ids[key] = id
	}
	for li, label := range agg.labels {
		v := agg.sums[li][mi]
		if v == 0 {
			continue
		}
		a := t.accs[label]
		if a == nil {
			a = &topkLabelAcc{kind: agg.kinds[li]}
			t.accs[label] = a
			t.order = append(t.order, label)
		}
		a.excl += v
		a.seen.set(id)
	}
}

// finish ranks the accumulated labels: stable sort by |excl| descending
// over the ascending-label pre-order, top k kept (0 = all).
func (t *topkAcc) finish(k int) ([]TopKRow, error) {
	if !t.known[t.metric] {
		names := make([]string, 0, len(t.known))
		for m := range t.known {
			names = append(names, m)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("metric %q not present (known: %s): %w",
			t.metric, strings.Join(names, ", "), ErrUnknownMetric)
	}
	sort.Strings(t.order)
	total := 0.0
	for _, label := range t.order {
		total += t.accs[label].excl
	}
	rows := make([]TopKRow, 0, len(t.order))
	for _, label := range t.order {
		a := t.accs[label]
		if a.excl == 0 {
			continue
		}
		r := TopKRow{Label: label, Kind: a.kind, Excl: a.excl, Series: a.seen.count()}
		if total != 0 {
			r.Frac = a.excl / total
		}
		rows = append(rows, r)
	}
	rows = topByMagnitude(rows, k, func(r *TopKRow) float64 { return r.Excl })
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows, nil
}

// searchAcc accumulates one frame label's per-series sums in canonical
// fold order; shared with the reference implementation like topkAcc.
type searchAcc struct {
	frame  string
	metric string
	known  map[string]bool
	accs   map[string]*searchSeriesAcc
}

type searchSeriesAcc struct {
	labels  Labels
	excl    float64
	windows int
}

func newSearchAcc(frame, metric string) *searchAcc {
	return &searchAcc{frame: frame, metric: metric, known: make(map[string]bool), accs: make(map[string]*searchSeriesAcc)}
}

// addSeries folds one (bucket, series) aggregate: a nonzero exclusive
// value for the searched frame adds to the series' total and window count.
func (s *searchAcc) addSeries(key string, labels Labels, agg *seriesAgg) {
	for _, m := range agg.metrics {
		s.known[m] = true
	}
	li := agg.labelIndex(s.frame)
	if li < 0 {
		return
	}
	mi := agg.metricIndex(s.metric)
	if mi < 0 {
		return
	}
	v := agg.sums[li][mi]
	if v == 0 {
		return
	}
	a := s.accs[key]
	if a == nil {
		a = &searchSeriesAcc{labels: labels}
		s.accs[key] = a
	}
	a.excl += v
	a.windows++
}

// finish ranks the matched series: stable sort by |excl| descending over
// ascending series-key pre-order, top limit kept (0 = all).
func (s *searchAcc) finish(limit int) ([]SearchRow, error) {
	if !s.known[s.metric] {
		names := make([]string, 0, len(s.known))
		for m := range s.known {
			names = append(names, m)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("metric %q not present (known: %s): %w",
			s.metric, strings.Join(names, ", "), ErrUnknownMetric)
	}
	keys := make([]string, 0, len(s.accs))
	for k := range s.accs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]SearchRow, 0, len(keys))
	for _, k := range keys {
		a := s.accs[k]
		rows = append(rows, SearchRow{
			Series: k, Workload: a.labels.Workload, Vendor: a.labels.Vendor,
			Framework: a.labels.Framework, Excl: a.excl, Windows: a.windows,
		})
	}
	rows = topByMagnitude(rows, limit, func(r *SearchRow) float64 { return r.Excl })
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows, nil
}

// TopK ranks frame labels by exclusive metric across every series
// matching filter in buckets whose start lies in [from, to), reading the
// close-time per-series aggregates instead of folding trees (a series
// whose current window has not closed yet is aggregated on the fly). With
// the query cache enabled the returned rows may be shared and must be
// treated as read-only.
func (s *Store) TopK(ctx context.Context, from, to time.Time, filter Labels, metric string, k int) ([]TopKRow, AggregateInfo, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	return cachedRange(s, from, to,
		func() string {
			return fmt.Sprintf("topk|%d|%d|%s|%q|%d", from.UnixNano(), to.UnixNano(), filter.Key(), metric, k)
		},
		func() (*topkAcc, AggregateInfo, error) {
			return foldTopK(s.walker(ctx, from, to, filter), from, to, filter, metric)
		},
		func(acc *topkAcc) ([]TopKRow, error) { return acc.finish(k) })
}

// Search returns the series matching filter whose trees contain frame (a
// display label, e.g. a kernel name), ranked by the frame's exclusive
// metric over [from, to). Closed buckets are read from their close-time
// aggregates; open (still-ingesting) buckets are aggregated on the fly.
// With the query cache enabled the returned rows may be shared and must
// be treated as read-only.
func (s *Store) Search(ctx context.Context, from, to time.Time, filter Labels, frame, metric string, limit int) ([]SearchRow, AggregateInfo, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	return cachedRange(s, from, to,
		func() string {
			return fmt.Sprintf("srch|%d|%d|%s|%q|%q|%d", from.UnixNano(), to.UnixNano(), filter.Key(), frame, metric, limit)
		},
		func() (*searchAcc, AggregateInfo, error) {
			return foldSearch(s.walker(ctx, from, to, filter), from, to, filter, frame, metric)
		},
		func(acc *searchAcc) ([]SearchRow, error) { return acc.finish(limit) })
}
