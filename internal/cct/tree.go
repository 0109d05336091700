package cct

// Node is one calling-context-tree node: a unified frame, its children, and
// exclusive/inclusive metric aggregates.
type Node struct {
	Frame
	Parent   *Node
	id       FrameID
	children map[FrameID]*Node
	order    []*Node

	// Excl aggregates samples attributed directly to this node;
	// Incl additionally includes all descendants. The profiler maintains
	// Incl by root-ward propagation on every update (the paper's Fig. 5).
	// Stored and shipped trees carry Excl only, and a reader derives Incl
	// from it (Tree.DeriveInclusive).
	Excl []Metric
	Incl []Metric
}

// Children returns the node's children in insertion order.
func (n *Node) Children() []*Node { return n.order }

// Child returns the child unifying with f, or nil. Children are keyed by
// interned FrameID on the hot path; this frame-keyed accessor serves the
// cold paths (Diff, tests) by identity comparison over the child list.
func (n *Node) Child(f Frame) *Node {
	k := keyOf(f)
	for _, c := range n.order {
		if keyOf(c.Frame) == k {
			return c
		}
	}
	return nil
}

// Path returns the frames from the root (exclusive) down to this node.
func (n *Node) Path() []Frame {
	var rev []Frame
	for cur := n; cur != nil && cur.Kind != KindRoot; cur = cur.Parent {
		rev = append(rev, cur.Frame)
	}
	out := make([]Frame, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Depth returns the node's distance from the root.
func (n *Node) Depth() int {
	d := 0
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		d++
	}
	return d
}

// ExclValue returns the exclusive sum for id (0 when unset).
func (n *Node) ExclValue(id MetricID) float64 {
	if int(id) >= len(n.Excl) {
		return 0
	}
	return n.Excl[id].Sum
}

// InclValue returns the inclusive sum for id (0 when unset).
func (n *Node) InclValue(id MetricID) float64 {
	if int(id) >= len(n.Incl) {
		return 0
	}
	return n.Incl[id].Sum
}

// InclMetric returns the inclusive aggregate for id, or nil.
func (n *Node) InclMetric(id MetricID) *Metric {
	if int(id) >= len(n.Incl) || n.Incl[id].Empty() {
		return nil
	}
	return &n.Incl[id]
}

// ExclMetric returns the exclusive aggregate for id, or nil.
func (n *Node) ExclMetric(id MetricID) *Metric {
	if int(id) >= len(n.Excl) || n.Excl[id].Empty() {
		return nil
	}
	return &n.Excl[id]
}

func (n *Node) ensure(size int) {
	grow(&n.Excl, size)
	grow(&n.Incl, size)
}

// grow extends *ms to size slots, in one exact-size allocation: merge and
// record paths call it for every fresh node, and append's doubling both
// over-allocates and re-zeroes the array several times on the way up. It
// writes *ms only when it grows: the record path calls it for every
// ancestor of every sample.
func grow(ms *[]Metric, size int) {
	if len(*ms) < size {
		out := make([]Metric, size)
		copy(out, *ms)
		*ms = out
	}
}

// NodeBytes is the calibrated in-memory footprint of one CCT node, used for
// the Figure 6 memory-overhead model.
const NodeBytes = 160

// Tree is one calling context tree with a metric schema.
type Tree struct {
	Schema   *Schema
	Root     *Node
	interner *Interner
	// ids caches interner assignments privately: a tree is recorded into
	// by one thread, so warm-path unification is a single unsynchronized
	// map lookup — the shared interner's lock is only taken for
	// identities this tree has never seen.
	ids   map[frameKey]FrameID
	arena []Node
	nodes int
	// PropagationSteps counts parent-link hops performed by metric
	// propagation; the profiler charges virtual time per step.
	PropagationSteps int64
	// InsertedFrames counts frames examined by InsertPath for cost
	// accounting.
	InsertedFrames int64
}

// New returns an empty tree with a private frame interner.
func New() *Tree { return NewWithInterner(NewInterner()) }

// NewWithInterner returns an empty tree unifying frames through in. Shard
// trees that will later be folded together share one interner so their
// FrameIDs agree and the fold can skip re-interning.
func NewWithInterner(in *Interner) *Tree {
	t := &Tree{
		Schema:   NewSchema(),
		Root:     &Node{Frame: Frame{Kind: KindRoot}},
		interner: in,
		ids:      make(map[frameKey]FrameID, 16),
	}
	t.Root.id = t.intern(t.Root.Frame)
	t.nodes = 1
	return t
}

// intern resolves f's FrameID through the tree-private cache.
func (t *Tree) intern(f Frame) FrameID {
	k := keyOf(f)
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := t.interner.internKey(k, f)
	t.ids[k] = id
	return id
}

// Interner returns the tree's frame interner.
func (t *Tree) Interner() *Interner { return t.interner }

// alloc carves one zeroed node out of the tree's arena. Blocks grow with
// the tree (clamped to [16, 1024] nodes) so small trees stay small while
// large trees amortize allocation to one call per thousand nodes.
func (t *Tree) alloc() *Node {
	if len(t.arena) == 0 {
		block := t.nodes
		if block < 16 {
			block = 16
		} else if block > 1024 {
			block = 1024
		}
		t.arena = make([]Node, block)
	}
	n := &t.arena[0]
	t.arena = t.arena[1:]
	return n
}

// NodeCount returns the number of nodes including the root.
func (t *Tree) NodeCount() int { return t.nodes }

// FootprintBytes models the tree's memory footprint.
func (t *Tree) FootprintBytes() int64 {
	per := int64(NodeBytes + 48*t.Schema.Len())
	return int64(t.nodes) * per
}

// MetricID interns a metric name.
func (t *Tree) MetricID(name string) MetricID { return t.Schema.ID(name) }

// InsertPath inserts the call path (outermost frame first) below the root,
// unifying frames with existing nodes, and returns the leaf node.
func (t *Tree) InsertPath(path []Frame) *Node {
	n := t.Root
	for _, f := range path {
		t.InsertedFrames++
		n = t.child(n, f)
	}
	return n
}

// InsertUnder extends an existing node with additional frames; it is how the
// profiler appends kernel and instruction frames below a cached API node.
func (t *Tree) InsertUnder(n *Node, path []Frame) *Node {
	for _, f := range path {
		t.InsertedFrames++
		n = t.child(n, f)
	}
	return n
}

func (t *Tree) child(n *Node, f Frame) *Node {
	return t.childByID(n, t.intern(f), f)
}

// childLookup returns n's child unifying with f, or nil, through the
// FrameID children index — without interning unseen identities (an identity
// the tree's interner has never assigned cannot name an existing child).
// Diff and Equivalent use it to match children across trees in O(1) per
// probe; the frame-keyed Node.Child stays for callers without a tree.
func (t *Tree) childLookup(n *Node, f Frame) *Node {
	if n.children == nil {
		return nil
	}
	id, ok := t.interner.Lookup(f)
	if !ok {
		return nil
	}
	return n.children[id]
}

// childByID returns n's child for the interned identity id, creating it with
// frame f on first sight. This is the ingestion hot path: one integer map
// lookup, no string building, nodes carved from the arena.
func (t *Tree) childByID(n *Node, id FrameID, f Frame) *Node {
	if n.children == nil {
		n.children = make(map[FrameID]*Node, 4)
	}
	c, ok := n.children[id]
	if !ok {
		c = t.alloc()
		c.Frame = f
		c.Parent = n
		c.id = id
		n.children[id] = c
		n.order = append(n.order, c)
		t.nodes++
	}
	return c
}

// AddMetric records one sample of metric id at node n and propagates the
// inclusive aggregate to the root.
func (t *Tree) AddMetric(n *Node, id MetricID, v float64) {
	size := t.Schema.Len()
	n.ensure(size)
	n.Excl[id].Add(v)
	for cur := n; cur != nil; cur = cur.Parent {
		cur.ensure(size)
		cur.Incl[id].Add(v)
		t.PropagationSteps++
	}
}

// DeriveInclusive sets every node's inclusive aggregates from the
// exclusive ones, in one post-order pass: a node's Incl is its Excl merged
// with its children's Incl, in child order. A metric no node of a subtree
// measured leaves an empty slot, as propagation does. Sum, Count, Min and
// Max come out exactly as the profiler's propagation computes them for
// integer-valued samples; the Welford pair within rounding. Any Incl the
// tree held before is replaced.
func (t *Tree) DeriveInclusive() {
	size := t.Schema.Len()
	slab := make([]Metric, t.nodes*size)
	var rec func(n *Node)
	rec = func(n *Node) {
		incl := slab[:size:size]
		slab = slab[size:]
		copy(incl, n.Excl)
		for _, c := range n.order {
			rec(c)
			for k := range c.Incl {
				if !c.Incl[k].Empty() {
					incl[k].Merge(c.Incl[k])
				}
			}
		}
		n.Incl = incl
	}
	rec(t.Root)
}

// Visit walks the tree depth-first (parent before children).
func (t *Tree) Visit(fn func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		fn(n)
		for _, c := range n.order {
			rec(c)
		}
	}
	rec(t.Root)
}

// BFS walks the tree breadth-first, the traversal the paper's example
// analyses use.
func (t *Tree) BFS(fn func(*Node) bool) {
	queue := []*Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !fn(n) {
			continue
		}
		queue = append(queue, n.order...)
	}
}

// Merge folds other's metrics and structure into t (used to combine
// per-thread subtrees or profiles from repeated runs). Inclusive slots are
// merged where other's nodes hold them, so merging trees that hold
// exclusive slots only (window trees) adds no inclusive ones. When both
// trees share one interner — per-thread shards of the same session — src
// node IDs are reused directly instead of re-interning every frame.
func (t *Tree) Merge(other *Tree) {
	// Remap other's metric IDs into t's schema.
	remap := make([]MetricID, other.Schema.Len())
	for i := 0; i < other.Schema.Len(); i++ {
		remap[i] = t.Schema.ID(other.Schema.Name(MetricID(i)))
	}
	shared := t.interner == other.interner
	var rec func(dst, src *Node)
	rec = func(dst, src *Node) {
		size := t.Schema.Len()
		grow(&dst.Excl, size)
		for i, m := range src.Excl {
			if !m.Empty() {
				dst.Excl[remap[i]].Merge(m)
			}
		}
		if len(src.Incl) > 0 {
			grow(&dst.Incl, size)
		}
		for i, m := range src.Incl {
			if !m.Empty() {
				dst.Incl[remap[i]].Merge(m)
			}
		}
		for _, c := range src.order {
			if shared {
				rec(t.childByID(dst, c.id, c.Frame), c)
			} else {
				rec(t.child(dst, c.Frame), c)
			}
		}
	}
	rec(t.Root, other.Root)
}

// BottomUp builds the inverted view: for every node with exclusive metrics,
// its reversed call path is inserted so that costs aggregate per innermost
// frame across all calling contexts (the GUI's bottom-up view).
func (t *Tree) BottomUp() *Tree {
	out := New()
	// Mirror the schema so metric IDs line up.
	for _, name := range t.Schema.Names() {
		out.Schema.ID(name)
	}
	t.Visit(func(n *Node) {
		if n.Kind == KindRoot {
			return
		}
		hasExcl := false
		for _, m := range n.Excl {
			if !m.Empty() {
				hasExcl = true
				break
			}
		}
		if !hasExcl {
			return
		}
		path := n.Path()
		rev := make([]Frame, len(path))
		for i := range path {
			rev[i] = path[len(path)-1-i]
		}
		leaf := out.Root
		for _, f := range rev {
			leaf = out.child(leaf, f)
		}
		// The full reversed chain carries the exclusive aggregate at its
		// head (depth 1 node) through the derived inclusive ones.
		grow(&leaf.Excl, out.Schema.Len())
		for i, m := range n.Excl {
			if !m.Empty() {
				leaf.Excl[i].Merge(m)
			}
		}
	})
	out.DeriveInclusive()
	return out
}
