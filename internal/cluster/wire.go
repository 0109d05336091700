package cluster

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/persist"
	"deepcontext/internal/profstore/trend"
)

// PartialsRequest is the body of POST /cluster/partials — one node's share
// of a scatter-gather query. Kind selects the shape: "range" exports
// [From, To) partials (trees or aggs), "diff" exports both tiers' buckets
// at the Before/After instants, "regressions" exports raw findings plus
// trend stats. Sweep closes due windows first, so a cluster query triggers
// the same trend side effects on every node that a single-node query does.
type PartialsRequest struct {
	Kind   string           `json:"kind"`
	Mode   string           `json:"mode,omitempty"` // "trees" | "aggs"
	FromNS int64            `json:"from_ns,omitempty"`
	ToNS   int64            `json:"to_ns,omitempty"`
	Filter profstore.Labels `json:"filter"`
	Sweep  bool             `json:"sweep,omitempty"`

	// Diff instants (kind "diff").
	BeforeNS int64 `json:"before_ns,omitempty"`
	AfterNS  int64 `json:"after_ns,omitempty"`

	// Regression filters (kind "regressions"); the limit is applied only
	// by the coordinator, which sees the whole cluster.
	Direction int   `json:"direction,omitempty"`
	SinceNS   int64 `json:"since_ns,omitempty"`
}

// PartialsResponse is one node's answer. Peers exchange it as a peer-wire
// message (peerwire.go); its JSON tags serve tooling only.
type PartialsResponse struct {
	Set      profstore.PartialSet    `json:"set"`
	Before   *profstore.DiffPartials `json:"before,omitempty"`
	After    *profstore.DiffPartials `json:"after,omitempty"`
	Findings []trend.Finding         `json:"findings,omitempty"`
	Trend    *profstore.TrendStats   `json:"trend,omitempty"`
}

func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// ServePartials evaluates one partials request against the local store. The
// coordinator's local fast path and the /cluster/partials handler both call
// it, so a node's own share is computed by literally the same code whether
// it traveled or not.
func ServePartials(ctx context.Context, store *profstore.Store, req *PartialsRequest) (*PartialsResponse, error) {
	resp := &PartialsResponse{}
	switch req.Kind {
	case "range":
		if req.Sweep {
			store.TrendSweep()
		}
		mode := profstore.PartialTrees
		if req.Mode == "aggs" {
			mode = profstore.PartialAggs
		}
		set, err := store.Partials(ctx, profstore.PartialsQuery{
			From:   nsTime(req.FromNS),
			To:     nsTime(req.ToNS),
			Filter: req.Filter,
			Mode:   mode,
		})
		if err != nil {
			return nil, err
		}
		resp.Set = set
	case "diff":
		before, err := store.DiffPartials(ctx, nsTime(req.BeforeNS), req.Filter)
		if err != nil {
			return nil, err
		}
		after, err := store.DiffPartials(ctx, nsTime(req.AfterNS), req.Filter)
		if err != nil {
			return nil, err
		}
		resp.Before, resp.After = &before, &after
	case "regressions":
		store.TrendSweep()
		resp.Findings = store.Regressions(profstore.RegressionQuery{
			Filter:    req.Filter,
			Since:     nsTime(req.SinceNS),
			Direction: req.Direction,
		})
		resp.Trend = store.Stats().Trend
	default:
		return nil, fmt.Errorf("cluster: unknown partials kind %q", req.Kind)
	}
	return resp, nil
}

// IngestSummary is the response of POST /cluster/ingest — the same counts
// the public /ingest reports, so the router can merge them into its own.
type IngestSummary struct {
	Ingested int      `json:"ingested"`
	Series   []string `json:"series"`
	Windows  []string `json:"windows"`
}

// IngestPlans is the one local apply of an ingest body: /ingest's local
// share, /cluster/ingest and ApplyForward all go through it. It folds a
// planned database's records into store in order, each through
// Store.IngestPlan with the bytes it was planned from as its WAL record,
// and reports them. route, when non-nil, sees each record first and
// returns true for one it sent elsewhere (the router's forwards); that
// record is skipped here. An error is the store failing to apply a
// record; the records ahead of it stay applied.
func IngestPlans(store *profstore.Store, ps *profdb.Plans, route func(profstore.Labels, *profdb.Planned) bool) (IngestSummary, error) {
	var sum IngestSummary
	for i := range ps.Records {
		rec := &ps.Records[i]
		labels := profstore.LabelsOf(rec.Meta)
		if route != nil && route(labels, rec) {
			continue
		}
		start, err := store.IngestPlan(labels, rec.Plan, rec.Encoded())
		if err != nil {
			return sum, err
		}
		sum.Ingested++
		sum.Series = append(sum.Series, labels.Key())
		if ws := start.Format(time.RFC3339Nano); !slices.Contains(sum.Windows, ws) {
			sum.Windows = append(sum.Windows, ws)
		}
	}
	return sum, nil
}

// EncodeForward packs profiles into one forward body: the bundle an
// /ingest body of those profiles would be, joined from each profile's
// standalone database (a body of one profile is that database itself).
func EncodeForward(profs []*profiler.Profile) ([]byte, error) {
	dbs := make([][]byte, len(profs))
	for i, p := range profs {
		db, err := persist.EncodeProfile(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: encode forward: %w", err)
		}
		dbs[i] = db
	}
	b, err := profdb.JoinBundles(dbs)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode forward: %w", err)
	}
	return b, nil
}

// ApplyForward ingests a forward body read from r, at most maxBytes (> 0)
// long: one database, planned whole (profdb.PlanBundleLimit) and applied
// through IngestPlans, as /cluster/ingest does. Errors matching
// profdb.ErrCorrupt or ErrTooLarge are the sender's fault; anything else is
// this node failing to store.
func ApplyForward(store *profstore.Store, r io.Reader, maxBytes int64) (IngestSummary, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return IngestSummary{}, fmt.Errorf("cluster: read forward: %w", err)
	}
	ps, err := profdb.PlanBundleLimit(raw, maxBytes)
	if err != nil {
		return IngestSummary{}, fmt.Errorf("cluster: forward decode: %w", err)
	}
	defer ps.Release()
	return IngestPlans(store, ps, nil)
}
