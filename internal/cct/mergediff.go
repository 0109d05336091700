package cct

// This file implements the multi-profile algebra over calling context trees:
// Merge (a schema-unifying, associative union with metric combination, used
// to aggregate per-shard or per-run profiles) and Diff (a signed delta tree,
// used to compare a run before and after an optimization knob). Clone
// supports both without mutating inputs.
//
// Merge is associative on the exact aggregates (Sum, Count, Min, Max) and
// associative up to floating-point rounding on the Welford pair (Mean, M2),
// so shards may be combined in any grouping — the property the parallel
// batch runner relies on when it merges worker results as they finish.

import "sync"

// Merge folds src into dst: src's metric schema is unified into dst's (IDs
// are remapped by name), src's structure is unioned into dst's (frames unify
// by their equivalence key), and per-node aggregates are combined with the
// parallel Welford rule. src is not modified.
func Merge(dst, src *Tree) { dst.Merge(src) }

// MergeAll unions trees into a fresh tree, leaving the inputs untouched.
func MergeAll(trees ...*Tree) *Tree {
	out := New()
	for _, t := range trees {
		Merge(out, t)
	}
	return out
}

// Clone returns a deep copy of t (metrics, structure and schema; the
// bookkeeping counters PropagationSteps/InsertedFrames are not carried over).
func Clone(t *Tree) *Tree {
	out := New()
	Merge(out, t)
	return out
}

// remapInto mirrors src's metric names into dst and returns the ID mapping.
func remapInto(dst, src *Schema) []MetricID {
	remap := make([]MetricID, src.Len())
	for i := 0; i < src.Len(); i++ {
		remap[i] = dst.ID(src.Name(MetricID(i)))
	}
	return remap
}

// deltaMetric is the signed difference a − b of two aggregates. Sum carries
// the signed delta; Min and Max mirror it (the extremes of a difference of
// aggregates are not recoverable); M2 is dropped. Count records the total
// number of samples that contributed (a plus b), NOT the count delta: a
// delta between two runs with equal sample counts must stay visible to
// Empty(), or downstream tree operations (BottomUp, Merge, Clone) would
// silently discard it. Count deltas live where they belong — in the Sum of
// count-valued metrics such as kernel_launches. A metric absent on both
// sides stays empty.
func deltaMetric(a, b Metric) Metric {
	if a.Count == 0 && b.Count == 0 {
		return Metric{}
	}
	d := a.Sum - b.Sum
	n := a.Count + b.Count
	return Metric{Sum: d, Count: n, Min: d, Max: d, Mean: d / float64(n)}
}

// NormalizeAddresses returns a new tree with every address-unified frame
// re-keyed by NormalizeFrame; nodes whose normalized frames collide under
// the unification key are merged (metrics combine, children interleave), so
// metric sums are conserved. The input is not modified. Within one process
// the paper's lib+PC rule is exact, but PCs are not comparable across runs
// or machines — code layout shifts — so profiles must be normalized before
// a cross-run Merge or Diff, or identical kernels appear as disjoint
// contexts. It is a Plan built from t, merged into an empty tree, whose
// inclusive aggregates are then derived from the merged exclusive ones. It
// panics on a tree whose nodes carry more metric slots than its schema has
// names, which no Tree method builds.
func NormalizeAddresses(t *Tree) *Tree {
	p := normalizePlans.Get().(*Plan)
	defer func() {
		p.Reset()
		normalizePlans.Put(p)
	}()
	if err := p.FromTree(t); err != nil {
		panic("cct: NormalizeAddresses: " + err.Error())
	}
	out := New()
	out.MergePlan(p)
	out.DeriveInclusive()
	return out
}

// normalizePlans recycles NormalizeAddresses' plans: a fresh plan's sibling
// index grows from nothing on every call.
var normalizePlans = sync.Pool{New: func() any { return new(Plan) }}

// NormalizeFrame re-keys an address-unified frame (native, GPU-API, kernel,
// instruction) by a hash of its stable identity — name and library —
// instead of its run-specific program counter, and returns any other frame
// unchanged. It is the one normalization rule: the store folds every
// profile through it, by way of a Plan.
func NormalizeFrame(f Frame) Frame {
	switch f.Kind {
	case KindNative, KindGPUAPI, KindKernel, KindInstruction:
		f.PC = stableID2(f.Name, f.Lib)
	}
	return f
}

// stableID is FNV-1a, a deterministic stand-in for an address.
func stableID(s string) uint64 {
	return fnvStr(14695981039346656037, s)
}

// stableID2 hashes a+"@"+b without building the joined string — it runs
// once per address-unified node of every ingested profile.
// The digest is identical to stableID(a+"@"+b).
func stableID2(a, b string) uint64 {
	h := fnvStr(14695981039346656037, a)
	h ^= '@'
	h *= 1099511628211
	return fnvStr(h, b)
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Diff returns the signed delta tree a − b: its schema is the union of both
// schemas, its structure the union of both node sets, and every node
// carries deltaMetric of the two sides' exclusive aggregates (a node absent
// on one side contributes zero), with inclusive aggregates derived from
// those. Only Sum and Count of an inclusive slot are delta figures: its
// Min, Max, Mean and M2 are those of the merged per-node deltas below it.
// Positive values mean a spent more than b — with a = after and b =
// before, positive deltas are regressions. Neither input is modified, and
// neither needs inclusive aggregates.
func Diff(a, b *Tree) *Tree {
	out := New()
	remapA := remapInto(out.Schema, a.Schema)
	remapB := remapInto(out.Schema, b.Schema)
	size := out.Schema.Len()

	var rec func(dst, an, bn *Node)
	rec = func(dst, an, bn *Node) {
		dst.Excl = make([]Metric, size)
		bE := make([]Metric, size)
		if an != nil {
			for i := range an.Excl {
				dst.Excl[remapA[i]] = an.Excl[i]
			}
		}
		if bn != nil {
			for i := range bn.Excl {
				bE[remapB[i]] = bn.Excl[i]
			}
		}
		for id := range dst.Excl {
			dst.Excl[id] = deltaMetric(dst.Excl[id], bE[id])
		}
		// Children present in a keep a's order; b-only children follow.
		if an != nil {
			for _, ac := range an.order {
				var bc *Node
				if bn != nil {
					bc = b.childLookup(bn, ac.Frame)
				}
				rec(out.child(dst, ac.Frame), ac, bc)
			}
		}
		if bn != nil {
			for _, bc := range bn.order {
				if an != nil && a.childLookup(an, bc.Frame) != nil {
					continue
				}
				rec(out.child(dst, bc.Frame), nil, bc)
			}
		}
	}
	rec(out.Root, a.Root, b.Root)
	out.DeriveInclusive()
	return out
}
