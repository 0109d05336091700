package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

// Forwarder accumulates profiles bound for one destination node as a
// profdb v3 batch of full frames — the v3 wire with no session state,
// since a full frame decodes standalone. Profiles are captured the moment
// they are added: a delta session's materialized profile mutates in
// place when the next frame applies, so deferring the encode would
// forward the wrong snapshot.
type Forwarder struct {
	batch profdb.StreamBatch
}

func NewForwarder() *Forwarder {
	return &Forwarder{batch: profdb.StreamBatch{Seq: 1}}
}

// Add puts one profile into the batch, encoded now.
func (f *Forwarder) Add(p *profiler.Profile) error {
	full, err := persist.EncodeProfile(p)
	if err != nil {
		return fmt.Errorf("cluster: encode forward: %w", err)
	}
	f.AddEncoded(p.Meta, full)
	return nil
}

// AddEncoded puts one profile into the batch as the profdb bytes the
// router received and validated it as (profdb.Planned.Encoded), with its
// metadata.
func (f *Forwarder) AddEncoded(meta profiler.Meta, full []byte) {
	f.batch.Frames = append(f.batch.Frames, profdb.StreamFrame{
		Magic: profdb.FormatMagicV3,
		Epoch: 1,
		Seq:   uint64(len(f.batch.Frames) + 1),
		Meta:  meta,
		Full:  full,
	})
}

// Len is how many profiles the batch holds.
func (f *Forwarder) Len() int { return len(f.batch.Frames) }

// Bytes serializes the batch for POST /cluster/ingest.
func (f *Forwarder) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := profdb.WriteBatch(gob.NewEncoder(&buf), &f.batch); err != nil {
		return nil, fmt.Errorf("cluster: encode forward: %w", err)
	}
	return buf.Bytes(), nil
}

// EncodeForward packs profiles into one forward batch.
func EncodeForward(profs []*profiler.Profile) ([]byte, error) {
	fw := NewForwarder()
	for _, p := range profs {
		if err := fw.Add(p); err != nil {
			return nil, err
		}
	}
	return fw.Bytes()
}

// ApplyForward ingests a forwarded batch stream: gob-framed StreamBatches
// of full frames, applied through the store's prepared-batch path (one
// shard-lock acquisition per shard per batch). Each frame's Full bytes are
// planned once, with no tree built, and, being what was validated, logged
// as this node's WAL payload. Delta frames are rejected — forwards are
// stateless by design. Errors matching profdb.ErrCorrupt or ErrTooLarge
// are the sender's fault; anything else is this node failing to store.
func ApplyForward(store *profstore.Store, r io.Reader, maxBytes int64) (IngestSummary, error) {
	var sum IngestSummary
	dec := gob.NewDecoder(r)
	seenWin := map[string]bool{}
	for {
		batch, err := profdb.ReadBatch(dec)
		if errors.Is(err, io.EOF) {
			return sum, nil
		}
		if err != nil {
			return sum, fmt.Errorf("cluster: forward decode: %w", err)
		}
		if batch.Close {
			return sum, nil
		}
		starts, series, err := applyForwardBatch(store, batch, maxBytes)
		if err != nil {
			return sum, err
		}
		sum.Ingested += len(series)
		sum.Series = append(sum.Series, series...)
		for _, start := range starts {
			if ws := start.Format(time.RFC3339Nano); !seenWin[ws] {
				seenWin[ws] = true
				sum.Windows = append(sum.Windows, ws)
			}
		}
	}
}

// applyForwardBatch plans every frame of one forward batch into pooled
// plans and ingests them as one prepared batch, returning each profile's
// window start and series key.
func applyForwardBatch(store *profstore.Store, batch *profdb.StreamBatch, maxBytes int64) ([]time.Time, []string, error) {
	prep := make([]profstore.PreparedProfile, 0, len(batch.Frames))
	series := make([]string, 0, len(batch.Frames))
	planned := make([]*profdb.Plans, 0, len(batch.Frames))
	defer func() {
		for _, ps := range planned {
			ps.Release()
		}
	}()
	for i := range batch.Frames {
		f := &batch.Frames[i]
		if f.Delta {
			return nil, nil, fmt.Errorf("cluster: forward batch carries a delta frame (seq %d): %w", f.Seq, profdb.ErrCorrupt)
		}
		ps, err := profdb.PlanBundleLimit(f.Full, maxBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: forward frame decode: %w", err)
		}
		planned = append(planned, ps)
		rec := &ps.Records[0]
		labels := profstore.LabelsOf(rec.Meta)
		pp, err := store.PreparePlan(labels, rec.Plan, rec.Encoded())
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: forward ingest: %w", err)
		}
		prep = append(prep, pp)
		series = append(series, labels.Key())
	}
	starts, err := store.IngestPrepared(prep)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: forward ingest: %w", err)
	}
	return starts, series, nil
}
