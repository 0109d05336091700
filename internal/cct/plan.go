package cct

import (
	"fmt"
	"slices"
)

// Plan is one profile flattened for merging into a tree, with its addresses
// already normalized: the shape a served ingest folds into a window tree
// without building the profile's own tree first. It holds the profile's
// metric names, its nodes in DFS pre-order (each naming an earlier node as
// its parent and carrying a NormalizeFrame'd frame), and every node's
// exclusive metric slots. A plan carries no inclusive slots: a tree it is
// merged into holds exclusive aggregates only, and a reader that needs
// inclusive ones derives them (Tree.DeriveInclusive).
//
// A plan is filled by one producer — profdb's record planner, reading
// database bytes into the plan's own slot buffer (Slots), or FromTree,
// sharing a tree's metric arrays — through Reset, AddName and Add, and
// consumed by Tree.MergePlan. Siblings that unify only after
// normalization (same name and library, different PCs) are folded into
// the first of them as they are added, in add order, so merging a plan is
// bit-identical to merging the tree NormalizeAddresses would have built.
// Plans are reusable: Reset keeps every buffer. A plan is not safe for
// concurrent use, MergePlan included.
type Plan struct {
	names []string
	nodes []planNode
	slots []Metric
	// of maps every added node, by add order, to the plan node it landed
	// in: itself, or the earlier sibling it was folded into.
	of []int32
	// sib indexes siblings by unification key. A raw key (the frame as
	// added) under its added parent rejects duplicate siblings; a
	// normalized key under its plan parent finds the node to fold into.
	sib      map[sibKey]int32
	nameSeen map[string]struct{}
	// MergePlan scratch: metric remapping and plan node → tree node.
	remap []MetricID
	dst   []*Node
}

type planNode struct {
	frame  Frame
	parent int32
	excl   []Metric
}

// sibKey is one sibling-index entry: parent is the parent's index shifted
// left once, with the low bit set for normalized keys.
type sibKey struct {
	parent int32
	key    frameKey
}

// planReuse bounds the buffers a pooled plan keeps between profiles, in
// nodes (slots count as nodes too): clearing a map costs its capacity, and
// one huge profile must not pin its buffers for every small one after it.
const planReuse = 1 << 14

// Reset empties the plan for the next profile, keeping its buffers but no
// reference to what it was filled from; reset a plan before pooling it.
func (p *Plan) Reset() {
	p.names = p.names[:0]
	clear(p.nodes)
	if cap(p.nodes) > planReuse || cap(p.slots) > 16*planReuse {
		p.nodes, p.slots, p.of, p.dst = nil, nil, nil, nil
	}
	p.nodes = p.nodes[:0]
	p.slots = p.slots[:0]
	p.of = p.of[:0]
	if p.sib == nil || len(p.sib) > planReuse {
		p.sib = make(map[sibKey]int32, 64)
	} else {
		clear(p.sib)
	}
	if p.nameSeen == nil || len(p.nameSeen) > planReuse {
		p.nameSeen = make(map[string]struct{}, 16)
	} else {
		clear(p.nameSeen)
	}
}

// Len reports the plan's node count after folding, root included.
func (p *Plan) Len() int { return len(p.nodes) }

// AddName appends the next metric name; slot i of every node measures name
// i. A name may appear once.
func (p *Plan) AddName(name string) error {
	if _, dup := p.nameSeen[name]; dup {
		return fmt.Errorf("metric name %q appears twice", name)
	}
	p.nameSeen[name] = struct{}{}
	p.names = append(p.names, name)
	return nil
}

// Slots returns n zeroed metric slots from the plan's own buffer, for a
// producer to decode a node's metrics into before adding the node. Slots
// handed out earlier stay valid as the buffer grows.
func (p *Plan) Slots(n int) []Metric {
	l := len(p.slots)
	p.slots = slices.Grow(p.slots, n)[:l+n]
	s := p.slots[l : l+n : l+n]
	clear(s)
	return s
}

// Add appends the next node in DFS pre-order: f as recorded (its address
// is normalized here), parent the add index of an earlier node (ignored for
// the first node, the root), and its exclusive slots. The plan keeps excl
// as it is — it never writes to it — so it must not change until the plan
// is merged, reset or detached. Add fails
// when the node carries more slots than there are metric names, names a
// parent not yet added, or unifies with an earlier sibling as recorded — a
// profile never holds two such siblings.
func (p *Plan) Add(parent int, f Frame, excl []Metric) error {
	i := len(p.of)
	if len(excl) > len(p.names) {
		return fmt.Errorf("node %d carries %d metric slots for %d metric names", i, len(excl), len(p.names))
	}
	if i == 0 {
		p.of = append(p.of, 0)
		p.nodes = append(p.nodes, planNode{frame: Frame{Kind: KindRoot}, parent: -1, excl: excl})
		return nil
	}
	if parent < 0 || parent >= i {
		return fmt.Errorf("node %d names parent %d, which does not precede it", i, parent)
	}
	raw := sibKey{int32(parent) << 1, keyOf(f)}
	if _, dup := p.sib[raw]; dup {
		return fmt.Errorf("node %d unifies with an earlier sibling", i)
	}
	p.sib[raw] = int32(i)

	f = NormalizeFrame(f)
	pp := p.of[parent]
	norm := sibKey{pp<<1 | 1, keyOf(f)}
	if j, ok := p.sib[norm]; ok {
		n := &p.nodes[j]
		n.excl = p.fold(n.excl, excl)
		p.of = append(p.of, j)
		return nil
	}
	j := int32(len(p.nodes))
	p.sib[norm] = j
	p.of = append(p.of, j)
	p.nodes = append(p.nodes, planNode{frame: f, parent: pp, excl: excl})
	return nil
}

// fold returns dst with a colliding sibling's slots merged in, the way
// NormalizeAddresses merges both into one node: slot by slot, in add order.
// The result is a copy in the plan's buffer, since dst may belong to the
// producer. Collisions are rare; the copy costs nothing that matters.
func (p *Plan) fold(dst, src []Metric) []Metric {
	out := p.Slots(max(len(dst), len(src)))
	copy(out, dst)
	for k := range src {
		if !src[k].Empty() {
			out[k].Merge(src[k])
		}
	}
	return out
}

// FromTree resets the plan and fills it from t, the producer for profiles
// that arrive as trees: a materialized delta, a legacy gob record, a Go
// caller's profile. The plan takes t's exclusive slots only and shares
// their arrays, so t must not change until the plan is merged — or Detach
// is called. FromTree fails only for a tree whose nodes carry more metric
// slots than its schema has names.
func (p *Plan) FromTree(t *Tree) error {
	p.Reset()
	for _, name := range t.Schema.names {
		if err := p.AddName(name); err != nil {
			return err
		}
	}
	var rec func(n *Node, parent int) error
	rec = func(n *Node, parent int) error {
		self := len(p.of)
		if err := p.Add(parent, n.Frame, n.Excl); err != nil {
			return err
		}
		for _, c := range n.order {
			if err := rec(c, self); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(t.Root, 0)
}

// Detach copies every node's slots into one buffer the plan owns, so
// whatever produced them (the tree FromTree read) may change before the
// plan is merged.
func (p *Plan) Detach() {
	total := 0
	for i := range p.nodes {
		total += len(p.nodes[i].excl)
	}
	buf := make([]Metric, total)
	for i := range p.nodes {
		n := &p.nodes[i]
		k := copy(buf, n.excl)
		n.excl, buf = buf[:k:k], buf[k:]
	}
}

// MergePlan folds the plan into t: the plan's metric names are unified
// into t's schema, and each plan node, in order, is one child lookup under
// its parent's tree node plus the parallel Welford merge of its exclusive
// slots; no node gains inclusive slots. The plan is only read (beyond
// MergePlan's own scratch) and may be merged again.
func (t *Tree) MergePlan(p *Plan) {
	p.remap = p.remap[:0]
	for _, name := range p.names {
		p.remap = append(p.remap, t.Schema.ID(name))
	}
	size := t.Schema.Len()
	p.dst = slices.Grow(p.dst[:0], len(p.nodes))[:len(p.nodes)]
	for i := range p.nodes {
		pn := &p.nodes[i]
		d := t.Root
		if i > 0 {
			d = t.child(p.dst[pn.parent], pn.frame)
		}
		p.dst[i] = d
		grow(&d.Excl, size)
		for k := range pn.excl {
			if m := &pn.excl[k]; !m.Empty() {
				d.Excl[p.remap[k]].Merge(*m)
			}
		}
	}
	// A pooled plan must not keep the tree alive.
	clear(p.dst)
}
