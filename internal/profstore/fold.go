package profstore

// The query engine: one canonical walk and one fold per query shape. A
// fold consumes (bucket, series) items in the canonical order — fine tier
// first, bucket starts ascending, series keys ascending — and never learns
// where they came from. The local store feeds it live series under its
// all-shard read lock (walkLocked); a cluster coordinator feeds it the
// sorted, ownership-filtered partials its nodes exported, each planned
// from its bytes (walkPartials in partial.go). Same items, same order,
// same float operations: a cluster answers byte-identically to one node
// holding the same data, and the AggregateInfo accounting and the
// ErrNoData texts exist exactly once.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"deepcontext/internal/cct"
)

// foldItem is one (bucket, series) contribution to a fold. A local walk
// sets ser, the live series (read-only); a tree partial sets plan, its
// bytes planned for merging. agg is the close-time aggregate: nil while
// the bucket is open or after late data, and for tree partials.
type foldItem struct {
	bucket   PartialBucket
	key      string
	labels   Labels
	profiles int
	ser      *series
	plan     *cct.Plan
	agg      *seriesAgg
}

// aggregate returns the item's per-label aggregate, reducing the live tree
// when no close-time aggregate exists.
func (it *foldItem) aggregate() *seriesAgg {
	if it.agg != nil {
		return it.agg
	}
	return computeSeriesAgg(it.ser.tree)
}

// mergeInto merges the item's tree into out: a partial's plan, or the live
// tree of a local walk. Both visit nodes in the same pre-order with the
// same metric merges, and window trees are already address-normalized, so
// the two are bit-identical for the same tree.
func (it *foldItem) mergeInto(out *cct.Tree) {
	if it.plan != nil {
		out.MergePlan(it.plan)
		return
	}
	cct.Merge(out, it.ser.tree)
}

// walkFunc feeds a fold its items in canonical order, stopping at the
// first error visit returns.
type walkFunc func(visit func(foldItem) error) error

// keyedSeries is one series of a bucket, for sorting by key.
type keyedSeries struct {
	key string
	ser *series
}

// walkLocked is the store's canonical walk: every series matching filter,
// and keep when set, in buckets whose start lies in [from, to) (zero
// bounds are open). Cancellation of ctx is honored at bucket boundaries —
// a disconnected client must not keep an all-shard fold running, and one
// atomic load per bucket is noise next to the merges. Callers hold all
// shard read locks.
func (s *Store) walkLocked(ctx context.Context, from, to time.Time, filter Labels, keep func(key string) bool, visit func(foldItem) error) error {
	var buf []keyedSeries
	for _, coarse := range []bool{false, true} {
		buckets := s.bucketsLocked(coarse)
		for _, start := range sortedKeys(buckets) {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("profstore: query canceled: %w", err)
			}
			wins := buckets[start]
			if st := wins[0].start; (!from.IsZero() && st.Before(from)) || (!to.IsZero() && !st.Before(to)) {
				continue
			}
			var err error
			bucket := PartialBucket{Coarse: coarse, StartNS: start, DurNS: int64(wins[0].dur)}
			if buf, err = walkBucket(buf, wins, bucket, filter, keep, visit); err != nil {
				return err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("profstore: query canceled: %w", err)
	}
	return nil
}

// walkBucket visits one bucket's series matching filter and keep, in key
// order. wins are the bucket's per-shard windows; series keys are disjoint
// across shards (each key routes to one shard), so gathering them is a
// union, not a merge. buf is scratch space reused across buckets.
func walkBucket(buf []keyedSeries, wins []*window, bucket PartialBucket, filter Labels, keep func(key string) bool, visit func(foldItem) error) ([]keyedSeries, error) {
	n := 0
	for _, w := range wins {
		n += len(w.series)
	}
	buf = slices.Grow(buf[:0], n)
	for _, w := range wins {
		for k, ser := range w.series {
			if ser.labels.Matches(filter) && (keep == nil || keep(k)) {
				buf = append(buf, keyedSeries{k, ser})
			}
		}
	}
	slices.SortFunc(buf, func(a, b keyedSeries) int { return strings.Compare(a.key, b.key) })
	for _, ks := range buf {
		ser := ks.ser
		if err := visit(foldItem{bucket: bucket, key: ks.key, labels: ser.labels, profiles: ser.profiles, ser: ser, agg: ser.agg}); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// foldRange drives walk through add and keeps the accounting every range
// query reports: matched buckets, profiles and distinct series. It owns
// the empty-range ErrNoData text.
func foldRange(walk walkFunc, from, to time.Time, filter Labels, add func(foldItem)) (AggregateInfo, error) {
	info := AggregateInfo{}
	seen := make(map[string]bool)
	var last PartialBucket
	err := walk(func(it foldItem) error {
		if info.Windows == 0 || it.bucket != last {
			last = it.bucket
			info.Windows++
		}
		add(it)
		info.Profiles += it.profiles
		if !seen[it.key] {
			seen[it.key] = true
			info.Series = append(info.Series, it.key)
		}
		return nil
	})
	if err != nil {
		return info, err
	}
	if info.Windows == 0 {
		return info, fmt.Errorf("no data for filter %s in [%v, %v): %w", filter.Key(), from, to, ErrNoData)
	}
	sort.Strings(info.Series)
	return info, nil
}

// foldTree merges every walked tree into one fresh tree: the aggregate
// behind Aggregate, Hotspots, /flame and /analyze. Window trees hold
// exclusive aggregates only, and so does the result: a reader that needs
// inclusive ones derives them after the shard locks drop.
func foldTree(walk walkFunc, from, to time.Time, filter Labels) (*cct.Tree, AggregateInfo, error) {
	out := cct.New()
	info, err := foldRange(walk, from, to, filter, func(it foldItem) { it.mergeInto(out) })
	if err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// foldTopK accumulates every walked series' per-label aggregate; the
// caller ranks with finish.
func foldTopK(walk walkFunc, from, to time.Time, filter Labels, metric string) (*topkAcc, AggregateInfo, error) {
	acc := newTopKAcc(metric)
	info, err := foldRange(walk, from, to, filter, func(it foldItem) { acc.addSeries(it.key, it.aggregate()) })
	return acc, info, err
}

// foldSearch accumulates the searched frame's per-series sums; the caller
// ranks with finish.
func foldSearch(walk walkFunc, from, to time.Time, filter Labels, frame, metric string) (*searchAcc, AggregateInfo, error) {
	acc := newSearchAcc(frame, metric)
	info, err := foldRange(walk, from, to, filter, func(it foldItem) { acc.addSeries(it.key, it.labels, it.aggregate()) })
	return acc, info, err
}

// diffSide is one diff instant as the fold sees it, on one node or merged
// across a cluster: the bucket containing the instant in each tier,
// whether any shard or node holds it, and a walk over each tier's
// filter-matched series.
type diffSide struct {
	fineNS, coarseNS         int64
	fineExists, coarseExists bool
	fine, coarse             walkFunc
}

// resolve picks the bucket the instant folds, fine preferred over coarse:
// one shard or node still holding a fine window pins the side to the fine
// tier.
func (d *diffSide) resolve() (winKey, bool) {
	switch {
	case d.fineExists:
		return winKey{d.fineNS, false}, true
	case d.coarseExists:
		return winKey{d.coarseNS, true}, true
	}
	return winKey{}, false
}

// foldDiffSide merges the resolved bucket's matched series into a fresh
// tree of exclusive aggregates. Unlike a range fold it reads exactly one
// bucket — a coarse fallback must not sweep in fine windows sharing its
// range. The caller prefixes errors with the side's name.
func foldDiffSide(d *diffSide, t time.Time, filter Labels) (*cct.Tree, error) {
	key, ok := d.resolve()
	if !ok {
		return nil, fmt.Errorf("no window contains %v: %w", t, ErrNoData)
	}
	walk := d.fine
	if key.coarse {
		walk = d.coarse
	}
	out := cct.New()
	matched := false
	err := walk(func(it foldItem) error {
		it.mergeInto(out)
		matched = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !matched {
		return nil, fmt.Errorf("no series match %s in window %v: %w",
			filter.Key(), time.Unix(0, key.start).UTC(), ErrNoData)
	}
	return out, nil
}

// diffSideLocked builds instant t's two-tier view over the live store.
// Its walks read live trees, so they must run under the same all-shard
// read lock. Callers hold all shard read locks.
func (s *Store) diffSideLocked(t time.Time, filter Labels) *diffSide {
	d := &diffSide{fineNS: t.Truncate(s.cfg.Window).UnixNano(), coarseNS: t.Truncate(s.cfg.coarse()).UnixNano()}
	walk := func(coarse bool, startNS int64) (walkFunc, bool) {
		var wins []*window
		for _, sh := range s.shards {
			if w := sh.tier(coarse)[startNS]; w != nil {
				wins = append(wins, w)
			}
		}
		return func(visit func(foldItem) error) error {
			if len(wins) == 0 {
				return nil
			}
			bucket := PartialBucket{Coarse: coarse, StartNS: startNS, DurNS: int64(wins[0].dur)}
			_, err := walkBucket(nil, wins, bucket, filter, nil, visit)
			return err
		}, len(wins) > 0
	}
	d.fine, d.fineExists = walk(false, d.fineNS)
	d.coarse, d.coarseExists = walk(true, d.coarseNS)
	return d
}

// cached is one memoized range-query answer.
type cached[R any] struct {
	r    R
	info AggregateInfo
}

// cachedRange answers one local range query: from the query cache when
// every bucket in [from, to) still carries the generation stamps the entry
// recorded, else by running fold under the all-shard read lock — the cut
// the stamps are taken at — and finish after the lock drops (finish sees
// only fold's fresh, caller-owned state). qkey is built only when the
// cache is on; a failed or canceled query is never cached.
func cachedRange[S, R any](s *Store, from, to time.Time, qkey func() string, fold func() (S, AggregateInfo, error), finish func(S) (R, error)) (R, AggregateInfo, error) {
	var key string
	var deps []dep
	s.rlockAll()
	if s.cache != nil {
		key, deps = qkey(), s.rangeDepsLocked(from, to)
		if v, ok := s.cache.serve(key, "", deps); ok {
			s.runlockAll()
			c := v.(*cached[R])
			return c.r, c.info, nil
		}
	}
	st, info, err := fold()
	s.runlockAll()
	var r R
	if err == nil {
		r, err = finish(st)
	}
	if err != nil {
		return r, info, err
	}
	s.cache.put(key, "", deps, &cached[R]{r, info})
	return r, info, nil
}
