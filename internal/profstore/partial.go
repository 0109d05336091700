package profstore

// Cluster partials: the export side and the coordinator's entry points to
// the query engine (fold.go). Each node exports its matched (bucket,
// series) pairs from the store's canonical walk — tree bytes for the
// aggregate-shaped queries, close-time aggregates for the fleet queries.
// The coordinator sorts the union into canonical order, plans each tree
// partial straight from its bytes as it is visited (no tree is decoded),
// and feeds the very fold a single node runs over its live series: the
// exported Fold* functions are thin adapters over foldTree, foldTopK,
// foldSearch and foldDiffSide, not a second implementation. A cluster of N
// therefore answers byte-identical to one node holding the same data, which
// the multi-node equivalence matrix pins.
//
// A partial's tree is its profdb v5 database. A series encodes it once and
// keeps the bytes until its tree next changes (series.encoded), so
// repeated queries over closed windows re-encode nothing. Between nodes,
// partials travel in internal/cluster's binary peer wire, which carries
// those bytes verbatim and aggregates and findings as exact float bits; the
// partial types' JSON tags serve tooling, never a peer.
//
// The same partials double as the handoff payload: a node joining the
// cluster imports moved series with replace semantics (idempotent under
// re-delivery) plus their trend-tracker state, and the old owner drops what
// it no longer owns after the routing table commits.

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore/persist"
	"deepcontext/internal/profstore/trend"
)

// Coverage annotates a degraded cluster result: how many nodes were asked
// and how many answered. Complete results — including every single-node
// query — leave it nil, so healthy responses stay byte-identical to the
// single-node goldens.
type Coverage struct {
	NodesTotal int      `json:"nodes_total"`
	NodesUp    int      `json:"nodes_up"`
	Down       []string `json:"down,omitempty"`
}

// PartialBucket identifies one resolution bucket of a partial.
type PartialBucket struct {
	Coarse  bool  `json:"coarse"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// AggData is the exported form of a close-time series aggregate (agg.go's
// seriesAgg): parallel label/kind rows with one metric-sum vector each. The
// peer wire carries every sum's exact IEEE-754 bits, so a folded aggregate
// is bit-equal whether it traveled or not.
type AggData struct {
	Labels  []string    `json:"labels"`
	Kinds   []string    `json:"kinds"`
	Metrics []string    `json:"metrics"`
	Sums    [][]float64 `json:"sums"`
}

func (a *AggData) toSeriesAgg() *seriesAgg {
	return &seriesAgg{labels: a.Labels, kinds: a.Kinds, metrics: a.Metrics, sums: a.Sums}
}

func aggData(a *seriesAgg) *AggData {
	return &AggData{Labels: a.labels, Kinds: a.kinds, Metrics: a.metrics, Sums: a.sums}
}

// SeriesPartial is one (bucket, series) contribution to a scatter-gather
// fold: the series' tree bytes (persist's profdb encoding) or its close-time
// aggregate, depending on the query kind. An exported Tree is the series'
// cached encoding, shared with every other export of the same tree: it must
// not be modified.
type SeriesPartial struct {
	Bucket   PartialBucket `json:"bucket"`
	Key      string        `json:"key"`
	Labels   Labels        `json:"labels"`
	Profiles int           `json:"profiles"`
	Tree     []byte        `json:"tree,omitempty"`
	Agg      *AggData      `json:"agg,omitempty"`
}

// DecodeTree decodes the partial's tree bytes into a tree of its own. On
// the served path only handoff import (ImportPartials) calls it, since it
// installs the tree as a live series; queries plan the bytes instead
// (planTree).
func (p *SeriesPartial) DecodeTree() (*cct.Tree, error) {
	prof, err := persist.DecodeProfile(p.Tree)
	if err != nil {
		return nil, p.treeError(err)
	}
	return prof.Tree, nil
}

// planPartial plans one tree partial's bytes; a variable so tests can
// check that every plan a fold takes is released.
var planPartial = profdb.PlanBundle

// planTree plans the partial's tree bytes for merging, accepting exactly
// the bytes DecodeTree accepts. The caller releases the plans once merged.
func (p *SeriesPartial) planTree() (*profdb.Plans, error) {
	ps, err := planPartial(p.Tree)
	if err != nil {
		return nil, p.treeError(err)
	}
	return ps, nil
}

func (p *SeriesPartial) treeError(err error) error {
	return fmt.Errorf("profstore: partial %s@%d: %w", p.Key, p.Bucket.StartNS, err)
}

// PartialMode selects what each exported partial carries.
type PartialMode int

const (
	// PartialTrees exports encoded series trees — the aggregate-shaped
	// queries (hotspots, diff, flame, analyze) and handoff need them.
	PartialTrees PartialMode = iota
	// PartialAggs exports close-time aggregates — all TopK and Search need.
	PartialAggs
)

// PartialsQuery selects what Partials exports.
type PartialsQuery struct {
	From, To time.Time
	Filter   Labels
	Mode     PartialMode
	// Keep, when set, restricts the export to series keys it accepts —
	// handoff exports pass "new owner differs from me" here.
	Keep func(key string) bool
	// WithTrend carries the exported series' trend-tracker state, so a
	// handed-off series keeps its regression history and watermark.
	WithTrend bool
}

// PartialSet is one node's export: matched partials in canonical fold order
// plus, for handoff, the moved series' trend state (trend.EncodeStates).
type PartialSet struct {
	Series []SeriesPartial `json:"series,omitempty"`
	Trend  []byte          `json:"trend,omitempty"`
}

// Partials exports this store's contribution to a scatter-gather fold (or a
// handoff) under one all-shard read lock. Each tree partial is its series'
// cached encoding, encoded under the lock only when the tree changed since
// the last export; the bytes are immutable, so ingest can proceed the
// moment the lock drops. Matching nothing returns an empty set, not
// ErrNoData: only the coordinator sees the whole cluster.
func (s *Store) Partials(ctx context.Context, q PartialsQuery) (PartialSet, error) {
	var set PartialSet
	var err error
	s.rlockAll()
	set.Series, err = exportWalk(func(visit func(foldItem) error) error {
		return s.walkLocked(ctx, q.From, q.To, q.Filter, q.Keep, visit)
	}, q.Mode, s.met)
	if err == nil && q.WithTrend {
		set.Trend, err = s.exportTrendLocked(q.Keep)
	}
	s.runlockAll()
	if err != nil {
		return PartialSet{}, err
	}
	return set, nil
}

// exportWalk turns every item a local walk visits into a partial: its
// aggregate, or its series' cached encoding. met counts the encodings.
func exportWalk(walk walkFunc, mode PartialMode, met *storeMetrics) ([]SeriesPartial, error) {
	var out []SeriesPartial
	err := walk(func(it foldItem) error {
		p := SeriesPartial{Bucket: it.bucket, Key: it.key, Labels: it.labels, Profiles: it.profiles}
		if mode == PartialAggs {
			p.Agg = aggData(it.aggregate())
		} else {
			blob, err := it.ser.encoded(met)
			if err != nil {
				return fmt.Errorf("profstore: encode partial %s@%d: %w", it.key, it.bucket.StartNS, err)
			}
			p.Tree = blob
		}
		out = append(out, p)
		return nil
	})
	return out, err
}

// exportTrendLocked collects the trend state of every series keep accepts,
// across all shards. Callers hold all shard read locks.
func (s *Store) exportTrendLocked(keep func(key string) bool) ([]byte, error) {
	moved := make(map[string]*trend.SeriesState)
	for _, sh := range s.shards {
		blob, err := sh.tracker.EncodeState()
		if err != nil {
			return nil, fmt.Errorf("profstore: export trend state: %w", err)
		}
		if len(blob) == 0 {
			continue
		}
		states, err := trend.DecodeState(blob)
		if err != nil {
			return nil, fmt.Errorf("profstore: export trend state: %w", err)
		}
		for key, st := range states {
			if keep == nil || keep(key) {
				moved[key] = st
			}
		}
	}
	return trend.EncodeStates(moved)
}

// walkPartials feeds a fold from a multi-node union of partials: sorted
// into the store's canonical order — fine tier first, bucket starts
// ascending, series keys ascending; keys are disjoint across owners, so the
// order is total. A tree partial is planned from its bytes just before its
// visit and its pooled plan released right after, so a fold holds one plan
// at a time and builds no tree but its own result.
func walkPartials(parts []SeriesPartial, mode PartialMode) walkFunc {
	return func(visit func(foldItem) error) error {
		sort.SliceStable(parts, func(i, j int) bool {
			a, b := parts[i].Bucket, parts[j].Bucket
			if a.Coarse != b.Coarse {
				return !a.Coarse
			}
			if a.StartNS != b.StartNS {
				return a.StartNS < b.StartNS
			}
			return parts[i].Key < parts[j].Key
		})
		for i := range parts {
			p := &parts[i]
			it := foldItem{bucket: p.Bucket, key: p.Key, labels: p.Labels, profiles: p.Profiles}
			switch {
			case mode == PartialTrees:
				ps, err := p.planTree()
				if err != nil {
					return err
				}
				it.plan = ps.Records[0].Plan
				err = visit(it)
				ps.Release()
				if err != nil {
					return err
				}
				continue
			case p.Agg == nil:
				return fmt.Errorf("profstore: partial %s@%d carries no aggregate", p.Key, p.Bucket.StartNS)
			default:
				it.agg = p.Agg.toSeriesAgg()
			}
			if err := visit(it); err != nil {
				return err
			}
		}
		return nil
	}
}

// FoldAggregate merges a multi-node union of tree partials into one fresh
// tree, its inclusive aggregates derived, byte-equal to Store.Aggregate
// over the same data — error text included (HTTP error bodies are
// compared too).
func FoldAggregate(parts []SeriesPartial, from, to time.Time, filter Labels) (*cct.Tree, AggregateInfo, error) {
	tree, info, err := foldTree(walkPartials(parts, PartialTrees), from, to, filter)
	if err == nil {
		tree.DeriveInclusive()
	}
	return tree, info, err
}

// FoldHotspots ranks a multi-node union of tree partials, byte-equal to
// Store.Hotspots.
func FoldHotspots(parts []SeriesPartial, from, to time.Time, filter Labels, metric string, top int) ([]Hotspot, AggregateInfo, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	tree, info, err := foldTree(walkPartials(parts, PartialTrees), from, to, filter)
	if err != nil {
		return nil, info, err
	}
	rows, err := rankHotspots(tree, metric, top)
	return rows, info, err
}

// FoldTopK ranks a multi-node union of aggregate partials, byte-equal to
// Store.TopK.
func FoldTopK(parts []SeriesPartial, from, to time.Time, filter Labels, metric string, k int) ([]TopKRow, AggregateInfo, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	acc, info, err := foldTopK(walkPartials(parts, PartialAggs), from, to, filter, metric)
	if err != nil {
		return nil, info, err
	}
	rows, err := acc.finish(k)
	return rows, info, err
}

// FoldSearch ranks a multi-node union of aggregate partials, byte-equal to
// Store.Search: the same fold over the same aggregates.
func FoldSearch(parts []SeriesPartial, from, to time.Time, filter Labels, frame, metric string, limit int) ([]SearchRow, AggregateInfo, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	acc, info, err := foldSearch(walkPartials(parts, PartialAggs), from, to, filter, frame, metric)
	if err != nil {
		return nil, info, err
	}
	rows, err := acc.finish(limit)
	return rows, info, err
}

// DiffPartials is one node's export for one diff instant: whether each tier
// holds a bucket containing the instant, and the filter-matched series of
// each. The coordinator needs both tiers because resolution — fine preferred
// over coarse — is a cluster-wide decision: one node still holding a fine
// window pins the whole diff to the fine tier, exactly as one shard does on
// a single node.
type DiffPartials struct {
	FineStartNS   int64           `json:"fine_start_ns"`
	CoarseStartNS int64           `json:"coarse_start_ns"`
	FineExists    bool            `json:"fine_exists"`
	CoarseExists  bool            `json:"coarse_exists"`
	Fine          []SeriesPartial `json:"fine,omitempty"`
	Coarse        []SeriesPartial `json:"coarse,omitempty"`
}

// DiffPartials exports this store's contribution to one diff instant: the
// two-tier view Store.Diff folds, each series as its cached encoding.
func (s *Store) DiffPartials(ctx context.Context, t time.Time, filter Labels) (DiffPartials, error) {
	s.rlockAll()
	d := s.diffSideLocked(t, filter)
	out := DiffPartials{FineStartNS: d.fineNS, CoarseStartNS: d.coarseNS, FineExists: d.fineExists, CoarseExists: d.coarseExists}
	var err error
	if out.Fine, err = exportWalk(d.fine, PartialTrees, s.met); err == nil {
		out.Coarse, err = exportWalk(d.coarse, PartialTrees, s.met)
	}
	s.runlockAll()
	if err != nil {
		return DiffPartials{}, err
	}
	if err := ctx.Err(); err != nil {
		return DiffPartials{}, fmt.Errorf("profstore: query canceled: %w", err)
	}
	return out, nil
}

// FoldDiffSide resolves and merges one side of a cluster diff over every
// node's export into a tree of exclusive aggregates, byte-equal to the
// same side of Store.Diff — errors included. The caller wraps the error
// with the before/after prefix.
func FoldDiffSide(parts []DiffPartials, t time.Time, filter Labels) (*cct.Tree, error) {
	var d diffSide
	var fine, coarse []SeriesPartial
	for _, p := range parts {
		if p.FineExists {
			d.fineExists, d.fineNS = true, p.FineStartNS
		}
		if p.CoarseExists {
			d.coarseExists, d.coarseNS = true, p.CoarseStartNS
		}
		fine = append(fine, p.Fine...)
		coarse = append(coarse, p.Coarse...)
	}
	d.fine, d.coarse = walkPartials(fine, PartialTrees), walkPartials(coarse, PartialTrees)
	return foldDiffSide(&d, t, filter)
}

// BuildDiff assembles the signed comparison of two folded sides, byte-equal
// to Store.Diff over the same data.
func BuildDiff(beforeTree, afterTree *cct.Tree, metric string, top int) (*DiffResult, error) {
	metric = cmp.Or(metric, cct.MetricGPUTime)
	return buildDiffResult(beforeTree, afterTree, metric, top)
}

// SortFindings orders findings in the canonical /regressions order —
// (window start, series, frame, direction) — and applies limit by keeping
// the newest. Store.Regressions and the coordinator's multi-node union
// both go through it.
func SortFindings(fs []trend.Finding, limit int) []trend.Finding {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.AfterUnixNano != b.AfterUnixNano {
			return a.AfterUnixNano < b.AfterUnixNano
		}
		if a.Series != b.Series {
			return a.Series < b.Series
		}
		if a.Frame != b.Frame {
			return a.Frame < b.Frame
		}
		return a.Direction > b.Direction
	})
	if limit > 0 && len(fs) > limit {
		fs = fs[len(fs)-limit:]
	}
	return fs
}

// ImportPartials installs handed-off series with replace semantics — a
// re-delivered import overwrites rather than double-counts, so a crashed
// handoff can simply re-run — and adopts the carried trend state (watermark
// rules make that idempotent too). It returns how many series-buckets were
// installed.
func (s *Store) ImportPartials(set PartialSet) (int, error) {
	n := 0
	for i := range set.Series {
		p := &set.Series[i]
		tree, err := p.DecodeTree()
		if err != nil {
			return n, err
		}
		sh := s.shardFor(p.Key)
		sh.mu.Lock()
		sh.replaceSeriesLocked(p.Bucket.StartNS, p.Bucket.DurNS, p.Bucket.Coarse, p.Key, p.Labels, tree, p.Profiles)
		sh.mu.Unlock()
		n++
	}
	if len(set.Trend) > 0 {
		states, err := trend.DecodeState(set.Trend)
		if err != nil {
			return n, fmt.Errorf("profstore: import trend state: %w", err)
		}
		for _, key := range sortedKeys(states) {
			sh := s.shardFor(key)
			sh.mu.Lock()
			sh.tracker.Adopt(key, states[key])
			sh.mu.Unlock()
		}
	}
	return n, nil
}

// replaceSeriesLocked installs one handed-off series tree, overwriting any
// existing series of the same key in the bucket (adoptSeriesLocked's merge
// semantics would double-count a re-delivered handoff). Callers hold sh.mu
// exclusively.
func (sh *shard) replaceSeriesLocked(startNS, durNS int64, coarse bool, key string, labels Labels, tree *cct.Tree, profiles int) {
	m := sh.tier(coarse)
	w := m[startNS]
	if w == nil {
		w = &window{
			start:  time.Unix(0, startNS),
			dur:    time.Duration(durNS),
			series: make(map[string]*series),
		}
		m[startNS] = w
	}
	w.series[key] = &series{labels: labels, tree: tree, profiles: profiles}
	sh.gens[winKey{startNS, coarse}]++
}

// DropSeries removes every series whose key drop accepts, from both tiers of
// every shard, along with its trend state — the old owner's cleanup after a
// handoff commits. Emptied windows are deleted. WAL records of dropped
// series are neutralized by the snapshot the caller takes right after. It
// returns how many series-buckets were removed.
func (s *Store) DropSeries(drop func(key string) bool) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, coarse := range []bool{false, true} {
			m := sh.tier(coarse)
			for _, start := range sortedKeys(m) {
				w := m[start]
				for _, key := range sortedKeys(w.series) {
					if !drop(key) {
						continue
					}
					delete(w.series, key)
					n++
					sh.gens[winKey{start, coarse}]++
					sh.tracker.Remove(key)
				}
				if len(w.series) == 0 {
					delete(m, start)
					delete(sh.gens, winKey{start, coarse})
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}
