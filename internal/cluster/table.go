// Package cluster turns N dcserver processes into one profstore: a
// consistent-hash routing table extends the store's deterministic FNV-1a
// series-key hash across nodes, an ingest router forwards profiles to their
// owner as /ingest bodies (profdb v4 bundles), and a scatter-gather
// coordinator fans queries out and folds the partial results in the exact
// (tier, bucket start, series key) order of the single-node fold — so a
// cluster of N answers byte-identical to one node holding the same data.
//
// Membership changes reuse recover.go's staged-migration discipline: moved
// series are exported as partials (trees + trend state), imported with
// replace semantics on the new owner, the routing table commits via an
// atomic temp+rename per node, and only then do old owners drop what they
// no longer own. Every step is idempotent, so a crashed join simply
// re-runs. Queries stay correct throughout because the coordinator keeps a
// partial only if its own ring says the sending node owns the series —
// duplicate copies during a half-finished join are filtered, never
// double-counted.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Node is one cluster member: a stable identity and its HTTP base URL.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Table is the routing table: a generation-stamped node list. Equal tables
// build equal rings on every node — the list is kept sorted by ID.
type Table struct {
	Generation uint64 `json:"generation"`
	Nodes      []Node `json:"nodes"`
}

// Validate checks structural soundness: at least one node, unique non-empty
// IDs, non-empty addresses, sorted by ID.
func (t *Table) Validate() error {
	if t == nil || len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: table has no nodes")
	}
	seen := make(map[string]bool, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.ID == "" {
			return fmt.Errorf("cluster: node %d has empty id", i)
		}
		if strings.ContainsAny(n.ID, " ,=") {
			return fmt.Errorf("cluster: node id %q contains a reserved character", n.ID)
		}
		if n.Addr == "" {
			return fmt.Errorf("cluster: node %q has empty addr", n.ID)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		if i > 0 && t.Nodes[i-1].ID >= n.ID {
			return fmt.Errorf("cluster: nodes not sorted by id (%q before %q)", t.Nodes[i-1].ID, n.ID)
		}
	}
	return nil
}

// Has reports whether the table contains the node id.
func (t *Table) Has(id string) bool {
	for _, n := range t.Nodes {
		if n.ID == id {
			return true
		}
	}
	return false
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{Generation: t.Generation, Nodes: make([]Node, len(t.Nodes))}
	copy(out.Nodes, t.Nodes)
	return out
}

// Equal reports whether two tables have the same generation and node list.
func (t *Table) Equal(o *Table) bool {
	if t.Generation != o.Generation || len(t.Nodes) != len(o.Nodes) {
		return false
	}
	for i := range t.Nodes {
		if t.Nodes[i] != o.Nodes[i] {
			return false
		}
	}
	return true
}

// ParsePeers parses the -peers flag: "id=addr,id=addr,...". Addresses
// without a scheme get http://. The result is sorted by ID and validated.
func ParsePeers(s string) (*Table, error) {
	t := &Table{Generation: 1}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=addr)", part)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		t.Nodes = append(t.Nodes, Node{ID: strings.TrimSpace(id), Addr: strings.TrimRight(addr, "/")})
	}
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i].ID < t.Nodes[j].ID })
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// TableFile is the routing table's filename inside a node's data directory.
const TableFile = "CLUSTER.json"

// LoadTable reads a persisted routing table; (nil, nil) when absent.
func LoadTable(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: load table: %w", err)
	}
	t := &Table{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("cluster: load table %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SaveTable persists the routing table atomically — temp file, fsync,
// rename — the same publish discipline as persist's snapshots. The rename
// is a node's commit point for a membership change.
func SaveTable(path string, t *Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("cluster: save table: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cluster: save table: %w", err)
	}
	f, err := os.CreateTemp(dir, ".cluster-*")
	if err != nil {
		return fmt.Errorf("cluster: save table: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("cluster: save table: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("cluster: save table: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cluster: save table: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: save table: %w", err)
	}
	return nil
}
