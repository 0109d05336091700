package profstore

import (
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profstore/trend"
)

// RegressionQuery filters the store's retained trend findings.
type RegressionQuery struct {
	// Filter matches findings by series labels (empty fields are
	// wildcards, case-insensitive — the same semantics as every query).
	Filter Labels
	// Since, when non-zero, keeps only findings whose confirming window
	// starts at or after it.
	Since time.Time
	// Direction keeps only +1 (share increases — regressions) or -1
	// (decreases — improvements) findings; 0 keeps both.
	Direction int
	// Limit bounds the result, keeping the newest findings; 0 is
	// unbounded.
	Limit int
}

// Regressions returns the retained change-point findings matching q,
// sorted by (confirming window, series, frame, direction) — an order
// independent of shard count, cache configuration and restart history.
// Findings reflect windows already observed; call TrendSweep first to
// observe windows that closed since the last ingest.
func (s *Store) Regressions(q RegressionQuery) []trend.Finding {
	s.rlockAll()
	var all []trend.Finding
	for _, sh := range s.shards {
		all = sh.tracker.AppendFindings(all)
	}
	s.runlockAll()

	out := all[:0]
	for _, f := range all {
		if q.Direction != 0 && f.Direction != q.Direction {
			continue
		}
		if !q.Since.IsZero() && f.AfterUnixNano < q.Since.UnixNano() {
			continue
		}
		labels := Labels{Workload: f.Workload, Vendor: f.Vendor, Framework: f.Framework}
		if !labels.Matches(q.Filter) {
			continue
		}
		out = append(out, f)
	}
	return SortFindings(out, q.Limit)
}

// TrendSweep closes every fine window that has ended under the store's
// clock but has not been processed yet — trend observation plus
// close-time aggregates, the same pass ingest and compaction run
// incrementally. Query handlers call it so findings and the fleet-query
// aggregates are current even when ingest has gone quiet.
func (s *Store) TrendSweep() {
	t0 := time.Now()
	now := s.cfg.Now()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closeWindowsLocked(now)
		sh.mu.Unlock()
	}
	s.met.sweepSeconds.Observe(time.Since(t0))
}

// TrendStats summarizes the regression detector across all shards.
type TrendStats struct {
	Series     int   `json:"series"`
	Frames     int   `json:"frames"`
	Findings   int64 `json:"findings"`
	Suppressed int64 `json:"suppressed"`
	Late       int64 `json:"late,omitempty"`
}

// metricShares reduces one series' window tree to frame label → share of
// the tree's metric total, the sum of every node's exclusive value (the
// root's inclusive sum; a window tree stores no inclusive slots). Shares
// aggregate by label across calling contexts (per-label exclusive sums are
// accumulated first, then divided once, so the same tree always yields the
// same floats). Returns false when the metric is absent or the total is
// not positive.
func metricShares(t *cct.Tree, metric string) (map[string]float64, bool) {
	id, ok := t.Schema.Lookup(metric)
	if !ok {
		return nil, false
	}
	total := 0.0
	sums := make(map[string]float64)
	t.Visit(func(n *cct.Node) {
		v := n.ExclValue(id)
		total += v
		if v != 0 && n.Kind != cct.KindRoot {
			sums[n.Label()] += v
		}
	})
	if total <= 0 {
		return nil, false
	}
	out := make(map[string]float64, len(sums))
	for label, v := range sums {
		out[label] = v / total
	}
	return out, true
}
