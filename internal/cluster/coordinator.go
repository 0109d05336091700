package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
	"deepcontext/internal/telemetry"
)

// Config assembles a Coordinator.
type Config struct {
	// Self is this node's ID; it must appear in Table.
	Self string
	// Store is the local shard of the fleet's data.
	Store *profstore.Store
	// Table is the initial routing table.
	Table *Table
	// Path, when non-empty, persists routing-table commits (CLUSTER.json
	// under the data dir). Empty keeps membership in memory only.
	Path string
	// Telemetry receives the per-peer metrics; nil disables them.
	Telemetry *telemetry.Registry
	// Options tunes the per-peer clients.
	Options Options
}

// Coordinator is one node's view of the cluster: the routing table and
// ring, a client per peer, and the scatter-gather query layer. All methods
// are safe for concurrent use.
type Coordinator struct {
	self  string
	store *profstore.Store
	reg   *telemetry.Registry
	opts  Options
	path  string

	degraded  *telemetry.Counter
	forwarded *telemetry.Counter

	mu    sync.RWMutex
	table *Table
	ring  *Ring
	peers map[string]*peer
}

// New builds a coordinator from a validated table containing Self.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Table.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Table.Has(cfg.Self) {
		return nil, fmt.Errorf("cluster: node id %q not in routing table", cfg.Self)
	}
	c := &Coordinator{
		self:  cfg.Self,
		store: cfg.Store,
		reg:   cfg.Telemetry,
		opts:  cfg.Options.withDefaults(),
		path:  cfg.Path,
		peers: make(map[string]*peer),
	}
	if c.reg != nil {
		c.degraded = c.reg.Counter("dcserver_cluster_degraded_queries_total",
			"Scatter-gather queries answered with partial coverage.")
		c.forwarded = c.reg.Counter("dcserver_cluster_forwarded_profiles_total",
			"Profiles forwarded to their owning node.")
		c.reg.GaugeFunc("dcserver_cluster_table_generation",
			"Routing table generation in effect.", func() float64 {
				c.mu.RLock()
				defer c.mu.RUnlock()
				return float64(c.table.Generation)
			})
		c.reg.GaugeFunc("dcserver_cluster_nodes",
			"Nodes in the routing table.", func() float64 {
				c.mu.RLock()
				defer c.mu.RUnlock()
				return float64(len(c.table.Nodes))
			})
	}
	c.install(cfg.Table.Clone())
	return c, nil
}

// install swaps the table, ring and peer set. Callers must have validated
// the table; peers are reused when their address is unchanged so health
// history and HTTP connections survive a same-membership commit.
func (c *Coordinator) install(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	peers := make(map[string]*peer, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.ID == c.self {
			continue
		}
		if old := c.peers[n.ID]; old != nil && old.base == n.Addr {
			peers[n.ID] = old
			continue
		}
		peers[n.ID] = newPeer(n, c.reg, c.opts)
	}
	c.table = t
	c.ring = t.Ring()
	c.peers = peers
}

// SetTable validates, persists (when configured) and installs a new
// routing table. The persisted rename is this node's commit point.
func (c *Coordinator) SetTable(t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if !t.Has(c.self) {
		return fmt.Errorf("cluster: node id %q not in proposed table", c.self)
	}
	c.mu.RLock()
	cur := c.table
	c.mu.RUnlock()
	if t.Generation < cur.Generation {
		return fmt.Errorf("cluster: proposed table generation %d behind current %d", t.Generation, cur.Generation)
	}
	if t.Generation == cur.Generation && !t.Equal(cur) {
		return fmt.Errorf("cluster: conflicting table at generation %d", t.Generation)
	}
	t = t.Clone()
	if c.path != "" {
		if err := SaveTable(c.path, t); err != nil {
			return err
		}
	}
	c.install(t)
	return nil
}

// Table snapshots the current routing table.
func (c *Coordinator) Table() *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.Clone()
}

// Self returns this node's ID.
func (c *Coordinator) Self() string { return c.self }

// Store returns the local store.
func (c *Coordinator) Store() *profstore.Store { return c.store }

// Owner returns the node ID owning a series key under the current table.
func (c *Coordinator) Owner(key string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Owner(key)
}

// OwnerOf routes a profile's labels.
func (c *Coordinator) OwnerOf(labels profstore.Labels) string {
	return c.Owner(labels.Key())
}

// snapshot captures a consistent (table, ring, peers) view for one
// operation.
func (c *Coordinator) snapshot() (*Table, *Ring, map[string]*peer) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table, c.ring, c.peers
}

// nodeReply is one node's partials answer within a fan-out.
type nodeReply struct {
	id   string
	resp *PartialsResponse
	err  error
}

// fanOut asks every node in the table for its share concurrently — the
// local share through ServePartials directly, remote shares through each
// peer with retry/backoff — and reports which nodes failed. A local error
// fails the whole query (it is a real evaluation error, not an
// availability problem); remote failures degrade to partial coverage.
func (c *Coordinator) fanOut(ctx context.Context, req *PartialsRequest) ([]nodeReply, *profstore.Coverage, error) {
	table, _, peers := c.snapshot()
	replies := make([]nodeReply, len(table.Nodes))
	var wg sync.WaitGroup
	for i, n := range table.Nodes {
		replies[i].id = n.ID
		if n.ID == c.self {
			replies[i].resp, replies[i].err = ServePartials(ctx, c.store, req)
			continue
		}
		p := peers[n.ID]
		wg.Add(1)
		go func(r *nodeReply, p *peer) {
			defer wg.Done()
			r.resp, r.err = p.postPartials(ctx, "/cluster/partials", req)
		}(&replies[i], p)
	}
	wg.Wait()
	var down []string
	for i := range replies {
		if replies[i].err == nil {
			continue
		}
		if replies[i].id == c.self {
			return nil, nil, replies[i].err
		}
		if ctx.Err() != nil {
			return nil, nil, replies[i].err
		}
		down = append(down, replies[i].id)
	}
	var cov *profstore.Coverage
	if len(down) > 0 {
		sort.Strings(down)
		cov = &profstore.Coverage{NodesTotal: len(table.Nodes), NodesUp: len(table.Nodes) - len(down), Down: down}
		if c.degraded != nil {
			c.degraded.Inc()
		}
	}
	return replies, cov, nil
}

// gatherRange fans out a range query and returns the ownership-filtered
// union of partials: a partial survives only if this coordinator's ring
// says the answering node owns its series. During a half-finished
// membership change both the old and the new owner may hold a series; the
// filter keeps exactly one copy, so folds never double-count.
func (c *Coordinator) gatherRange(ctx context.Context, req *PartialsRequest) ([]profstore.SeriesPartial, *profstore.Coverage, error) {
	replies, cov, err := c.fanOut(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	_, ring, _ := c.snapshot()
	var parts []profstore.SeriesPartial
	for i := range replies {
		r := &replies[i]
		if r.resp == nil {
			continue
		}
		for _, p := range r.resp.Set.Series {
			if ring.Owner(p.Key) == r.id {
				parts = append(parts, p)
			}
		}
	}
	return parts, cov, nil
}

// Hotspots answers /hotspots for the whole cluster, byte-identical to a
// single node holding the union of the data.
func (c *Coordinator) Hotspots(ctx context.Context, from, to time.Time, filter profstore.Labels, metric string, top int) ([]profstore.Hotspot, profstore.AggregateInfo, error) {
	parts, cov, err := c.gatherRange(ctx, &PartialsRequest{
		Kind: "range", Mode: "trees", FromNS: unixNS(from), ToNS: unixNS(to), Filter: filter,
	})
	if err != nil {
		return nil, profstore.AggregateInfo{}, err
	}
	rows, info, err := profstore.FoldHotspots(parts, from, to, filter, metric, top)
	info.Coverage = cov
	return rows, info, err
}

// Aggregate answers the aggregate-shaped endpoints (/flame, /analyze).
func (c *Coordinator) Aggregate(ctx context.Context, from, to time.Time, filter profstore.Labels) (*cct.Tree, profstore.AggregateInfo, error) {
	parts, cov, err := c.gatherRange(ctx, &PartialsRequest{
		Kind: "range", Mode: "trees", FromNS: unixNS(from), ToNS: unixNS(to), Filter: filter,
	})
	if err != nil {
		return nil, profstore.AggregateInfo{}, err
	}
	tree, info, err := profstore.FoldAggregate(parts, from, to, filter)
	info.Coverage = cov
	return tree, info, err
}

// TopK answers /topk for the whole cluster.
func (c *Coordinator) TopK(ctx context.Context, from, to time.Time, filter profstore.Labels, metric string, k int) ([]profstore.TopKRow, profstore.AggregateInfo, error) {
	parts, cov, err := c.gatherRange(ctx, &PartialsRequest{
		Kind: "range", Mode: "aggs", FromNS: unixNS(from), ToNS: unixNS(to), Filter: filter, Sweep: true,
	})
	if err != nil {
		return nil, profstore.AggregateInfo{}, err
	}
	rows, info, err := profstore.FoldTopK(parts, from, to, filter, metric, k)
	info.Coverage = cov
	return rows, info, err
}

// Search answers /search for the whole cluster.
func (c *Coordinator) Search(ctx context.Context, from, to time.Time, filter profstore.Labels, frame, metric string, limit int) ([]profstore.SearchRow, profstore.AggregateInfo, error) {
	parts, cov, err := c.gatherRange(ctx, &PartialsRequest{
		Kind: "range", Mode: "aggs", FromNS: unixNS(from), ToNS: unixNS(to), Filter: filter, Sweep: true,
	})
	if err != nil {
		return nil, profstore.AggregateInfo{}, err
	}
	rows, info, err := profstore.FoldSearch(parts, from, to, filter, frame, metric, limit)
	info.Coverage = cov
	return rows, info, err
}

// Diff answers /diff for the whole cluster: both tiers of both instants are
// gathered from every node, resolution (fine preferred) is decided over the
// union, and each side folds in sorted series-key order — mirroring
// Store.Diff bucket for bucket, error for error.
func (c *Coordinator) Diff(ctx context.Context, before, after time.Time, filter profstore.Labels, metric string, top int) (*profstore.DiffResult, error) {
	replies, cov, err := c.fanOut(ctx, &PartialsRequest{
		Kind: "diff", BeforeNS: unixNS(before), AfterNS: unixNS(after), Filter: filter,
	})
	if err != nil {
		return nil, err
	}
	_, ring, _ := c.snapshot()
	var befores, afters []profstore.DiffPartials
	for i := range replies {
		r := &replies[i]
		if r.resp == nil || r.resp.Before == nil || r.resp.After == nil {
			continue
		}
		befores = append(befores, filterDiffPartials(*r.resp.Before, ring, r.id))
		afters = append(afters, filterDiffPartials(*r.resp.After, ring, r.id))
	}
	beforeTree, err := profstore.FoldDiffSide(befores, before, filter)
	if err != nil {
		return nil, fmt.Errorf("profstore: before: %w", err)
	}
	afterTree, err := profstore.FoldDiffSide(afters, after, filter)
	if err != nil {
		return nil, fmt.Errorf("profstore: after: %w", err)
	}
	res, err := profstore.BuildDiff(beforeTree, afterTree, metric, top)
	if err != nil {
		return nil, err
	}
	res.Coverage = cov
	return res, nil
}

func filterDiffPartials(d profstore.DiffPartials, ring *Ring, owner string) profstore.DiffPartials {
	keep := func(in []profstore.SeriesPartial) []profstore.SeriesPartial {
		var out []profstore.SeriesPartial
		for _, p := range in {
			if ring.Owner(p.Key) == owner {
				out = append(out, p)
			}
		}
		return out
	}
	d.Fine = keep(d.Fine)
	d.Coarse = keep(d.Coarse)
	return d
}

// Regressions answers /regressions for the whole cluster: every node
// sweeps, reports its raw findings, the coordinator ownership-filters,
// merges in canonical order and applies the limit globally. Trend stats
// sum across nodes.
func (c *Coordinator) Regressions(ctx context.Context, q profstore.RegressionQuery) ([]trend.Finding, *profstore.TrendStats, *profstore.Coverage, error) {
	replies, cov, err := c.fanOut(ctx, &PartialsRequest{
		Kind: "regressions", Filter: q.Filter, Direction: q.Direction, SinceNS: unixNS(q.Since),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	_, ring, _ := c.snapshot()
	var all []trend.Finding
	stats := &profstore.TrendStats{}
	for i := range replies {
		r := &replies[i]
		if r.resp == nil {
			continue
		}
		for _, f := range r.resp.Findings {
			if ring.Owner(f.Series) == r.id {
				all = append(all, f)
			}
		}
		if t := r.resp.Trend; t != nil {
			stats.Series += t.Series
			stats.Frames += t.Frames
			stats.Findings += t.Findings
			stats.Suppressed += t.Suppressed
			stats.Late += t.Late
		}
	}
	return profstore.SortFindings(all, q.Limit), stats, cov, nil
}

// ForwardBytes sends a forward body (an /ingest body, see EncodeForward)
// holding n profiles to their owning node's /cluster/ingest. No retry: a
// re-delivered merge would double-count; the caller surfaces the error to
// its client instead.
func (c *Coordinator) ForwardBytes(ctx context.Context, nodeID string, body []byte, n int) (IngestSummary, error) {
	var sum IngestSummary
	c.mu.RLock()
	p := c.peers[nodeID]
	c.mu.RUnlock()
	if p == nil {
		return sum, fmt.Errorf("cluster: no peer %q in routing table", nodeID)
	}
	if err := p.do(ctx, http.MethodPost, "/cluster/ingest", "application/octet-stream", body, decodeJSON(&sum), false); err != nil {
		return sum, err
	}
	if c.forwarded != nil {
		c.forwarded.Add(int64(n))
	}
	return sum, nil
}

// NodeStatus is one row of /cluster/status.
type NodeStatus struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Self        bool   `json:"self,omitempty"`
	Up          bool   `json:"up"`
	LastError   string `json:"last_error,omitempty"`
	LastContact string `json:"last_contact,omitempty"`
}

// Status is the /cluster/status body.
type Status struct {
	Self       string       `json:"self"`
	Generation uint64       `json:"generation"`
	Degraded   bool         `json:"degraded"`
	Nodes      []NodeStatus `json:"nodes"`
}

// Status probes every peer's /healthz (bounded by ctx) and reports the
// cluster's health as this node sees it. A peer that answers in another
// peer-wire version is down: none of its partials would decode.
func (c *Coordinator) Status(ctx context.Context) Status {
	table, _, peers := c.snapshot()
	out := Status{Self: c.self, Generation: table.Generation, Nodes: make([]NodeStatus, len(table.Nodes))}
	var wg sync.WaitGroup
	for i, n := range table.Nodes {
		out.Nodes[i] = NodeStatus{ID: n.ID, Addr: n.Addr}
		if n.ID == c.self {
			out.Nodes[i].Self = true
			out.Nodes[i].Up = true
			continue
		}
		p := peers[n.ID]
		wg.Add(1)
		go func(ns *NodeStatus, p *peer) {
			defer wg.Done()
			err := p.do(ctx, http.MethodGet, "/healthz", "", nil, checkHealthz, false)
			up, lastErr, lastContact := p.status()
			ns.Up = up && err == nil
			ns.LastError = lastErr
			if !lastContact.IsZero() {
				ns.LastContact = lastContact.UTC().Format(time.RFC3339Nano)
			}
		}(&out.Nodes[i], p)
	}
	wg.Wait()
	for _, ns := range out.Nodes {
		if !ns.Up {
			out.Degraded = true
		}
	}
	return out
}

// checkHealthz refuses a /healthz answer whose peer_wire is not this
// node's WireVersion; a node older than the field reports none.
func checkHealthz(b []byte) error {
	var h struct {
		PeerWire uint64 `json:"peer_wire"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return err
	}
	if h.PeerWire != WireVersion {
		return fmt.Errorf("%w: /healthz reports version %d, this node speaks %d", ErrWireVersion, h.PeerWire, WireVersion)
	}
	return nil
}

func unixNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}
