package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"

	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
)

// Membership changes follow recover.go's staged-migration discipline,
// lifted to the cluster:
//
//  1. Export: every node (old and new membership) exports the series whose
//     owner under the NEW ring is not itself — trees plus trend state.
//  2. Import: the coordinator routes the exports to their new owners, which
//     install them with replace semantics and snapshot (the durable stage).
//  3. Commit: every node persists the new table via an atomic temp+rename —
//     each node's commit point — and swaps it in memory.
//  4. Drop: every node drops what it no longer owns under its own committed
//     table, then snapshots.
//
// A crash at any point leaves the cluster correct: before a node's commit
// it routes and filters by the old table (data still on old owners — drops
// only start after every commit succeeded); after it, by the new one (the
// copies imported in stage 2 serve). Ownership filtering at query time
// hides the transient duplicates. Re-running Join with the same table
// resumes idempotently — replace-imports overwrite rather than
// double-count, table commits at an equal generation are accepted when the
// tables match, and drops of already-dropped series are no-ops.
//
// The one operational caveat: profiles ingested for a MOVED series between
// stage 1's export and stage 3's commit land on the old owner and are
// dropped in stage 4. Run joins on a quiet cluster (or re-drive recent
// ingest afterwards); docs/OPERATIONS.md §11 spells this out.

// ExportRequest is the body of POST /cluster/export: the proposed table
// whose ring decides what moves.
type ExportRequest struct {
	Table *Table `json:"table"`
}

// ExportMoved computes one node's handoff export: every series this node
// holds whose owner under next's ring is some other node.
func ExportMoved(ctx context.Context, store *profstore.Store, self string, next *Table) (profstore.PartialSet, error) {
	if err := next.Validate(); err != nil {
		return profstore.PartialSet{}, err
	}
	ring := next.Ring()
	return store.Partials(ctx, profstore.PartialsQuery{
		Mode:      profstore.PartialTrees,
		Keep:      func(key string) bool { return ring.Owner(key) != self },
		WithTrend: true,
	})
}

// ImportSet installs a handoff delivery and, when the store is durable,
// snapshots before reporting success — the import is not acknowledged
// until it would survive a crash.
func ImportSet(store *profstore.Store, set profstore.PartialSet) (int, error) {
	n, err := store.ImportPartials(set)
	if err != nil {
		return n, err
	}
	if store.Config().Dir != "" {
		if _, err := store.Snapshot(); err != nil {
			return n, fmt.Errorf("cluster: import snapshot: %w", err)
		}
	}
	return n, nil
}

// DropUnowned removes every series the node does not own under its current
// table and snapshots. Called after the table committed everywhere.
func (c *Coordinator) DropUnowned() (int, error) {
	_, ring, _ := c.snapshot()
	n := c.store.DropSeries(func(key string) bool { return ring.Owner(key) != c.self })
	if n > 0 && c.store.Config().Dir != "" {
		if _, err := c.store.Snapshot(); err != nil {
			return n, fmt.Errorf("cluster: drop snapshot: %w", err)
		}
	}
	return n, nil
}

// JoinReport summarizes one Join run.
type JoinReport struct {
	Generation uint64         `json:"generation"`
	Exported   map[string]int `json:"exported"`
	Imported   map[string]int `json:"imported"`
	Dropped    map[string]int `json:"dropped"`
}

// Join drives a membership change from this node: export moved series from
// every current member, import them at their new owners, commit the table
// everywhere, then drop. Idempotent — re-run it with the same proposed
// table after any failure.
func (c *Coordinator) Join(ctx context.Context, next *Table) (*JoinReport, error) {
	if err := next.Validate(); err != nil {
		return nil, err
	}
	if !next.Has(c.self) {
		return nil, fmt.Errorf("cluster: coordinating node %q must be in the proposed table", c.self)
	}
	cur := c.Table()
	if next.Generation < cur.Generation {
		return nil, fmt.Errorf("cluster: proposed generation %d behind current %d", next.Generation, cur.Generation)
	}
	if next.Generation == cur.Generation && !next.Equal(cur) {
		return nil, fmt.Errorf("cluster: conflicting table at generation %d (bump the generation)", next.Generation)
	}

	// The union of both memberships participates: current members hand
	// off, new members receive — and a node that imported during a
	// crashed earlier run exports nothing for the keys it now owns.
	union := unionNodes(cur, next)
	newRing := next.Ring()
	rep := &JoinReport{
		Generation: next.Generation,
		Exported:   map[string]int{},
		Imported:   map[string]int{},
		Dropped:    map[string]int{},
	}

	// Stage 1: export. Every reachable member must answer — a handoff
	// with an absent member would silently strand its moved series.
	byDest := map[string]*profstore.PartialSet{}
	trendByKey := map[string]*trend.SeriesState{}
	for _, n := range union {
		var set profstore.PartialSet
		if n.ID == c.self {
			var err error
			set, err = ExportMoved(ctx, c.store, c.self, next)
			if err != nil {
				return rep, err
			}
		} else {
			resp, err := c.peerFor(n).postPartials(ctx, "/cluster/export", &ExportRequest{Table: next})
			if err != nil {
				return rep, fmt.Errorf("cluster: export from %s: %w", n.ID, err)
			}
			set = resp.Set
		}
		rep.Exported[n.ID] = len(set.Series)
		for _, p := range set.Series {
			dest := newRing.Owner(p.Key)
			if dest == n.ID {
				continue
			}
			d := byDest[dest]
			if d == nil {
				d = &profstore.PartialSet{}
				byDest[dest] = d
			}
			d.Series = append(d.Series, p)
		}
		if len(set.Trend) > 0 {
			states, err := trend.DecodeState(set.Trend)
			if err != nil {
				return rep, fmt.Errorf("cluster: export from %s: %w", n.ID, err)
			}
			for key, st := range states {
				trendByKey[key] = st
			}
		}
	}
	for dest, set := range byDest {
		states := map[string]*trend.SeriesState{}
		for key, st := range trendByKey {
			if newRing.Owner(key) == dest {
				states[key] = st
			}
		}
		blob, err := trend.EncodeStates(states)
		if err != nil {
			return rep, fmt.Errorf("cluster: encode trend for %s: %w", dest, err)
		}
		set.Trend = blob
	}

	// Stage 2: import at the new owners.
	for _, dest := range sortedDests(byDest) {
		set := byDest[dest]
		if dest == c.self {
			n, err := ImportSet(c.store, *set)
			if err != nil {
				return rep, fmt.Errorf("cluster: import at %s: %w", dest, err)
			}
			rep.Imported[dest] = n
			continue
		}
		node, ok := findNode(next, dest)
		if !ok {
			return rep, fmt.Errorf("cluster: destination %q not in proposed table", dest)
		}
		resp := struct {
			Imported int `json:"imported"`
		}{}
		msg := EncodePartials(&PartialsResponse{Set: *set})
		if err := c.peerFor(node).do(ctx, http.MethodPost, "/cluster/import", "application/octet-stream", msg, decodeJSON(&resp), true); err != nil {
			return rep, fmt.Errorf("cluster: import at %s: %w", dest, err)
		}
		rep.Imported[dest] = resp.Imported
	}

	// Stage 3: commit the table on every member — remote nodes first,
	// self last, so a crash mid-commit leaves this coordinator able to
	// re-run the join against the old local table.
	for _, n := range union {
		if n.ID == c.self {
			continue
		}
		resp := struct {
			Generation uint64 `json:"generation"`
		}{}
		if err := c.peerFor(n).postJSON(ctx, "/cluster/table", next, decodeJSON(&resp), true); err != nil {
			return rep, fmt.Errorf("cluster: commit at %s: %w", n.ID, err)
		}
	}
	if err := c.SetTable(next); err != nil {
		return rep, err
	}

	// Stage 4: drop at every remaining member (a removed node keeps its
	// data only until it is decommissioned; it is no longer queried).
	for _, n := range next.Nodes {
		if n.ID == c.self {
			dropped, err := c.DropUnowned()
			if err != nil {
				return rep, err
			}
			rep.Dropped[n.ID] = dropped
			continue
		}
		resp := struct {
			Dropped int `json:"dropped"`
		}{}
		if err := c.peerFor(n).do(ctx, http.MethodPost, "/cluster/drop", "", nil, decodeJSON(&resp), true); err != nil {
			return rep, fmt.Errorf("cluster: drop at %s: %w", n.ID, err)
		}
		rep.Dropped[n.ID] = resp.Dropped
	}
	return rep, nil
}

// peerFor returns (creating if needed) a client for a node that may not be
// in the installed peer set yet — joins talk to proposed members before the
// table commits.
func (c *Coordinator) peerFor(n Node) *peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.peers[n.ID]; p != nil && p.base == n.Addr {
		return p
	}
	p := newPeer(n, c.reg, c.opts)
	c.peers[n.ID] = p
	return p
}

func unionNodes(a, b *Table) []Node {
	seen := map[string]bool{}
	var out []Node
	for _, t := range []*Table{a, b} {
		for _, n := range t.Nodes {
			if !seen[n.ID] {
				seen[n.ID] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func findNode(t *Table, id string) (Node, bool) {
	for _, n := range t.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

func sortedDests(m map[string]*profstore.PartialSet) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
