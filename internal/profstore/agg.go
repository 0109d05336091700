package profstore

// Close-time aggregates for the fleet-wide queries: when a fine window
// closes — the points where the trend detector already hooks window
// lifecycle: ingest window roll, compaction and recovery — each of its
// series is reduced to per-label exclusive sums, so TopK and Search read
// the sums instead of walking the tree. The in-window ingest hot path
// stays untouched (one int64 compare, zero allocations). A series whose
// closed bucket receives late data has its aggregate cleared
// (series.changed), and queries re-derive it from the tree until the
// bucket next closes.

import (
	"sort"

	"deepcontext/internal/cct"
)

// seriesAgg is one series' close-time aggregate within one bucket:
// exclusive metric sums per frame label, accumulated in the tree's
// deterministic DFS order and then sorted by label. It answers TopK and
// Search without re-walking the merged CCT. The float operations are
// exactly those of a fresh DFS over the same tree, so a cached agg is
// bit-identical to recomputing (the equivalence harness pins this).
type seriesAgg struct {
	labels  []string    // frame labels, ascending
	kinds   []string    // kinds[i] classifies labels[i] (first DFS sighting)
	metrics []string    // the tree's schema names, in schema order
	sums    [][]float64 // sums[i][m] = Σ excl of labels[i] for metrics[m]
}

// computeSeriesAgg reduces one series tree to its per-label exclusive
// sums for every schema metric. Root is skipped (it carries no exclusive
// cost and is not a queryable frame). Accumulation happens in DFS order
// per label before the final sort, so the same tree always yields the
// same floats regardless of when the aggregate is computed.
func computeSeriesAgg(t *cct.Tree) *seriesAgg {
	a := &seriesAgg{metrics: t.Schema.Names()}
	nm := len(a.metrics)
	idx := make(map[string]int)
	t.Visit(func(n *cct.Node) {
		if n.Kind == cct.KindRoot {
			return
		}
		label := n.Label()
		i, ok := idx[label]
		if !ok {
			i = len(a.labels)
			idx[label] = i
			a.labels = append(a.labels, label)
			a.kinds = append(a.kinds, n.Kind.String())
			a.sums = append(a.sums, make([]float64, nm))
		}
		for m := 0; m < nm; m++ {
			a.sums[i][m] += n.ExclValue(cct.MetricID(m))
		}
	})
	order := make([]int, len(a.labels))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return a.labels[order[i]] < a.labels[order[j]] })
	labels := make([]string, len(order))
	kinds := make([]string, len(order))
	sums := make([][]float64, len(order))
	for to, from := range order {
		labels[to], kinds[to], sums[to] = a.labels[from], a.kinds[from], a.sums[from]
	}
	a.labels, a.kinds, a.sums = labels, kinds, sums
	return a
}

// labelIndex locates label in the sorted label set; -1 when absent.
func (a *seriesAgg) labelIndex(label string) int {
	i := sort.SearchStrings(a.labels, label)
	if i < len(a.labels) && a.labels[i] == label {
		return i
	}
	return -1
}

// metricIndex locates metric in the schema names; -1 when absent.
func (a *seriesAgg) metricIndex(metric string) int {
	for i, m := range a.metrics {
		if m == metric {
			return i
		}
	}
	return -1
}
