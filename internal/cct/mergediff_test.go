package cct

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randTree builds a small random tree from the rng: random paths over a
// small frame alphabet, random samples over a few metrics (some metrics are
// interned in per-tree order to exercise schema unification).
func randTree(rng *rand.Rand) *Tree {
	t := New()
	metrics := []string{MetricGPUTime, MetricCPUTime, MetricKernelCount, "papi:cycles"}
	rng.Shuffle(len(metrics), func(i, j int) { metrics[i], metrics[j] = metrics[j], metrics[i] })
	nPaths := 1 + rng.Intn(8)
	for p := 0; p < nPaths; p++ {
		depth := 1 + rng.Intn(4)
		var frames []Frame
		for d := 0; d < depth; d++ {
			switch rng.Intn(3) {
			case 0:
				frames = append(frames, PythonFrame("train.py", 10+rng.Intn(3), "step"))
			case 1:
				frames = append(frames, OperatorFrame([]string{"aten::mm", "aten::relu", "aten::index"}[rng.Intn(3)]))
			default:
				frames = append(frames, Frame{Kind: KindKernel, Name: "k", Lib: "[gpu]", PC: uint64(rng.Intn(4))})
			}
		}
		n := t.InsertPath(frames)
		for s := 0; s < 1+rng.Intn(3); s++ {
			id := t.MetricID(metrics[rng.Intn(len(metrics))])
			t.AddMetric(n, id, float64(rng.Intn(1000)))
		}
	}
	return t
}

// metricsByName flattens a tree into path-key → metric-name → aggregate, the
// order-independent view two equal trees must agree on.
func metricsByName(t *Tree) map[string]map[string]Metric {
	out := make(map[string]map[string]Metric)
	t.Visit(func(n *Node) {
		var key string
		for _, f := range n.Path() {
			key += f.Key() + ";"
		}
		for i := range n.Excl {
			if n.Excl[i].Empty() && n.Incl[i].Empty() {
				continue
			}
			if out[key] == nil {
				out[key] = make(map[string]Metric)
			}
			name := t.Schema.Name(MetricID(i))
			m := out[key][name]
			m = n.Excl[i] // store excl; incl checked via root totals
			out[key][name] = m
		}
	})
	return out
}

func metricsEqual(a, b Metric, tol float64) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.Min != b.Min || a.Max != b.Max {
		return false
	}
	return math.Abs(a.Mean-b.Mean) <= tol*(1+math.Abs(a.Mean)) &&
		math.Abs(a.M2-b.M2) <= tol*(1+math.Abs(a.M2))
}

func treesEquivalent(t *testing.T, x, y *Tree) bool {
	t.Helper()
	mx, my := metricsByName(x), metricsByName(y)
	if len(mx) != len(my) {
		t.Logf("node sets differ: %d vs %d", len(mx), len(my))
		return false
	}
	for key, ms := range mx {
		for name, m := range ms {
			if !metricsEqual(m, my[key][name], 1e-9) {
				t.Logf("path %q metric %s: %+v vs %+v", key, name, m, my[key][name])
				return false
			}
		}
	}
	return true
}

// Merge must be associative: merge(a, merge(b, c)) == merge(merge(a, b), c)
// exactly on Sum/Count/Min/Max and within rounding on Mean/M2 — the property
// that lets the batch runner combine shards in completion order.
func TestMergeAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randTree(rng), randTree(rng), randTree(rng)

		left := Clone(a)
		Merge(left, b)
		Merge(left, c)

		bc := Clone(b)
		Merge(bc, c)
		right := Clone(a)
		Merge(right, bc)

		return treesEquivalent(t, left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeUnifiesSchemas(t *testing.T) {
	a, b := New(), New()
	ga := a.MetricID(MetricGPUTime)
	a.AddMetric(a.InsertPath([]Frame{OperatorFrame("aten::mm")}), ga, 100)
	// b interns metrics in a different order, so raw IDs disagree.
	cb := b.MetricID(MetricCPUTime)
	gb := b.MetricID(MetricGPUTime)
	n := b.InsertPath([]Frame{OperatorFrame("aten::mm")})
	b.AddMetric(n, cb, 7)
	b.AddMetric(n, gb, 50)

	Merge(a, b)
	gid, _ := a.Schema.Lookup(MetricGPUTime)
	cid, _ := a.Schema.Lookup(MetricCPUTime)
	if got := a.Root.InclValue(gid); got != 150 {
		t.Fatalf("gpu total = %v, want 150", got)
	}
	if got := a.Root.InclValue(cid); got != 7 {
		t.Fatalf("cpu total = %v, want 7", got)
	}
	if b.Root.InclValue(gb) != 50 {
		t.Fatal("merge mutated src")
	}
}

func TestCloneIsDeepAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randTree(rng)
	c := Clone(a)
	if !treesEquivalent(t, a, c) {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not touch the original.
	id := c.MetricID(MetricGPUTime)
	before := a.Root.InclValue(id)
	c.AddMetric(c.InsertPath([]Frame{OperatorFrame("aten::new")}), id, 999)
	if a.Root.InclValue(id) != before {
		t.Fatal("clone shares state with original")
	}
}

func TestDiffSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTree(rng)
	d := Diff(a, a)
	if d.NodeCount() != a.NodeCount() {
		t.Fatalf("diff nodes = %d, want %d", d.NodeCount(), a.NodeCount())
	}
	d.Visit(func(n *Node) {
		for i := range n.Excl {
			if n.Excl[i].Sum != 0 || n.Incl[i].Sum != 0 {
				t.Fatalf("self-diff nonzero at %q metric %s", n.Label(), d.Schema.Name(MetricID(i)))
			}
		}
	})
}

func TestDiffSignedDeltas(t *testing.T) {
	before, after := New(), New()
	gb := before.MetricID(MetricGPUTime)
	ga := after.MetricID(MetricGPUTime)

	slow := []Frame{PythonFrame("train.py", 1, "step"), OperatorFrame("aten::index")}
	fast := []Frame{PythonFrame("train.py", 1, "step"), OperatorFrame("aten::index_select")}
	before.AddMetric(before.InsertPath(slow), gb, 1000)
	after.AddMetric(after.InsertPath(fast), ga, 300)

	d := Diff(after, before)
	id, _ := d.Schema.Lookup(MetricGPUTime)
	if got := d.Root.InclValue(id); got != -700 {
		t.Fatalf("root delta = %v, want -700 (improvement)", got)
	}
	// The derived inclusive slot merges the per-node deltas: its Sum and
	// Count are the delta's, its extremes those of the nodes below.
	if got, want := d.Root.Incl[id], (Metric{Sum: -700, Count: 2, Min: -1000, Max: 300}); got.Sum != want.Sum || got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("root inclusive slot = %+v, want Sum/Count/Min/Max of %+v", got, want)
	}
	var labels []string
	var sums []float64
	d.Visit(func(n *Node) {
		if n.Kind == KindOperator {
			labels = append(labels, n.Label())
			sums = append(sums, n.ExclValue(id))
		}
	})
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	if len(labels) != 2 {
		t.Fatalf("operators in diff = %v", labels)
	}
	for i, l := range labels {
		want := map[string]float64{"aten::index": -1000, "aten::index_select": 300}[l]
		_ = i
		var got float64
		d.Visit(func(n *Node) {
			if n.Kind == KindOperator && n.Label() == l {
				got = n.ExclValue(id)
			}
		})
		if got != want {
			t.Fatalf("%s delta = %v, want %v", l, got, want)
		}
	}
}

// Diff must honour merge: diff(merge(a,b), b) restores a's totals.
func TestDiffInvertsMergeOnTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randTree(rng), randTree(rng)
		ab := Clone(a)
		Merge(ab, b)
		d := Diff(ab, b)
		for _, name := range a.Schema.Names() {
			ida, _ := a.Schema.Lookup(name)
			idd, ok := d.Schema.Lookup(name)
			if !ok {
				return false
			}
			if math.Abs(d.Root.InclValue(idd)-a.Root.InclValue(ida)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Random trees hold kernels named alike at different PCs, which normalize
// into one node: totals are conserved, and a normalized tree normalizes to
// an equal copy.
func TestNormalizeAddressesConservesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		a := randTree(rng)
		norm := NormalizeAddresses(a)
		for _, name := range a.Schema.Names() {
			ida, _ := a.Schema.Lookup(name)
			idn, _ := norm.Schema.Lookup(name)
			if a.Root.InclValue(ida) != norm.Root.InclValue(idn) {
				t.Fatalf("tree %d: %s total %v -> %v", i, name, a.Root.InclValue(ida), norm.Root.InclValue(idn))
			}
		}
		if !treesEquivalent(t, norm, NormalizeAddresses(norm)) {
			t.Fatalf("tree %d: normalizing a normalized tree changed it", i)
		}
	}
}

func TestNormalizeAddressesUnifiesAcrossRuns(t *testing.T) {
	// Two runs of the "same" program with shifted code layout: identical
	// kernel names at different PCs.
	run1, run2 := New(), New()
	id1 := run1.MetricID(MetricGPUTime)
	id2 := run2.MetricID(MetricGPUTime)
	k1 := []Frame{OperatorFrame("aten::mm"), {Kind: KindKernel, Name: "gemm", Lib: "[gpu]", PC: 0x1000}}
	k2 := []Frame{OperatorFrame("aten::mm"), {Kind: KindKernel, Name: "gemm", Lib: "[gpu]", PC: 0x2468}}
	run1.AddMetric(run1.InsertPath(k1), id1, 100)
	run2.AddMetric(run2.InsertPath(k2), id2, 150)

	// Raw diff sees two distinct kernels (+150 / -100).
	raw := Diff(run2, run1)
	if raw.NodeCount() != 4 { // root, op, 2 kernels
		t.Fatalf("raw diff nodes = %d, want 4", raw.NodeCount())
	}
	// Normalized diff unifies them into one kernel with delta +50.
	norm := Diff(NormalizeAddresses(run2), NormalizeAddresses(run1))
	if norm.NodeCount() != 3 {
		t.Fatalf("normalized diff nodes = %d, want 3", norm.NodeCount())
	}
	id, _ := norm.Schema.Lookup(MetricGPUTime)
	var kdelta float64
	norm.Visit(func(n *Node) {
		if n.Kind == KindKernel {
			kdelta = n.ExclValue(id)
		}
	})
	if kdelta != 50 {
		t.Fatalf("kernel delta = %v, want 50", kdelta)
	}
	// Idempotent: normalizing twice is a no-op.
	once := NormalizeAddresses(run1)
	twice := NormalizeAddresses(once)
	if !treesEquivalent(t, once, twice) {
		t.Fatal("NormalizeAddresses not idempotent")
	}
}

// randRawTree builds a random tree whose exclusive slots are set directly:
// signed fractional sums (float addition order shows in the bits), slots
// left empty, slots with a sum but no count, and nodes whose slot arrays
// stop short of the schema, so some subtrees never measure a metric.
func randRawTree(rng *rand.Rand) *Tree {
	t := New()
	metrics := 1 + rng.Intn(4)
	for i := 0; i < metrics; i++ {
		t.MetricID([]string{MetricGPUTime, MetricCPUTime, MetricKernelCount, "papi:cycles"}[i])
	}
	for p := 0; p < 1+rng.Intn(12); p++ {
		var frames []Frame
		for d := 0; d < 1+rng.Intn(5); d++ {
			frames = append(frames, OperatorFrame([]string{"a", "b", "c"}[rng.Intn(3)]))
		}
		t.InsertPath(frames)
	}
	t.Visit(func(n *Node) {
		n.Excl = make([]Metric, rng.Intn(metrics+1))
		for i := range n.Excl {
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				n.Excl[i] = Metric{Sum: rng.NormFloat64() * 1e3} // a sum with no count
			default:
				n.Excl[i] = Metric{Sum: rng.NormFloat64() * 1e3, Count: 1 + rng.Int63n(3)}
			}
		}
	})
	return t
}

// WalkInclusive yields, once per node and children first, exactly the
// bits DeriveInclusive stores — on signed, sparse and diff trees — and
// leaves Incl alone.
func TestWalkInclusiveEqualsDerive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randRawTree(rng)
		for _, tree := range []*Tree{a, Diff(a, randRawTree(rng)), Diff(randTree(rng), randTree(rng))} {
			tree.Visit(func(n *Node) { n.Incl = nil })
			walked := make([]map[*Node]float64, tree.Schema.Len())
			for id := range walked {
				walked[id] = make(map[*Node]float64)
				tree.WalkInclusive(MetricID(id), func(n *Node, v float64) {
					for _, c := range n.Children() {
						if _, done := walked[id][c]; !done {
							t.Errorf("seed %d: %s yielded before its child %s", seed, n.Label(), c.Label())
						}
					}
					if _, again := walked[id][n]; again {
						t.Errorf("seed %d: %s yielded twice", seed, n.Label())
					}
					walked[id][n] = v
				})
				if len(walked[id]) != tree.NodeCount() {
					t.Errorf("seed %d: %d nodes yielded of %d", seed, len(walked[id]), tree.NodeCount())
				}
			}
			tree.Visit(func(n *Node) {
				if n.Incl != nil {
					t.Errorf("seed %d: WalkInclusive wrote Incl", seed)
				}
			})
			tree.DeriveInclusive()
			tree.Visit(func(n *Node) {
				for id := range walked {
					if got, want := walked[id][n], n.InclValue(MetricID(id)); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("seed %d: %s metric %d: walked %v, derived %v", seed, n.Label(), id, got, want)
					}
				}
			})
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
