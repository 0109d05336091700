package cct

import (
	"math"
	"testing"
	"testing/quick"
)

func samplePath(op string) []Frame {
	return []Frame{
		PythonFrame("train.py", 10, "main"),
		PythonFrame("model.py", 55, "forward"),
		OperatorFrame(op),
		NativeFrame("at::native::"+op, "libtorch.so", 0x1000, "op.cpp", 5),
		{Kind: KindGPUAPI, Name: "cudaLaunchKernel", Lib: "libcudart.so", PC: 0x2000},
		{Kind: KindKernel, Name: op + "_kernel", Lib: "[gpu]", PC: 0x3000},
	}
}

func TestFrameUnificationRules(t *testing.T) {
	// Python: file+line, not function name.
	a := PythonFrame("m.py", 3, "f")
	b := PythonFrame("m.py", 3, "g")
	if a.Key() != b.Key() {
		t.Fatal("python frames with same file:line should unify")
	}
	if PythonFrame("m.py", 4, "f").Key() == a.Key() {
		t.Fatal("different lines should not unify")
	}
	// Native: lib+PC, not name.
	n1 := NativeFrame("f", "lib.so", 0x10, "", 0)
	n2 := NativeFrame("f_alias", "lib.so", 0x10, "", 0)
	if n1.Key() != n2.Key() {
		t.Fatal("native frames with same lib+pc should unify")
	}
	if NativeFrame("f", "other.so", 0x10, "", 0).Key() == n1.Key() {
		t.Fatal("different libs should not unify")
	}
	// Operators: by name.
	if OperatorFrame("aten::conv2d").Key() != OperatorFrame("aten::conv2d").Key() {
		t.Fatal("same-name operators should unify")
	}
	// Kernel and native with identical lib+pc but different kinds unify
	// under the same rule (both are (lib,pc) frames).
	k := Frame{Kind: KindKernel, Name: "k", Lib: "lib.so", PC: 0x10}
	if k.Key() != n1.Key() {
		t.Fatal("(lib,pc) unification should be kind-independent per paper rule")
	}
}

func TestInsertPathUnifies(t *testing.T) {
	tr := New()
	l1 := tr.InsertPath(samplePath("aten::conv2d"))
	l2 := tr.InsertPath(samplePath("aten::conv2d"))
	if l1 != l2 {
		t.Fatal("identical paths should reach the same leaf")
	}
	l3 := tr.InsertPath(samplePath("aten::matmul"))
	if l3 == l1 {
		t.Fatal("different ops should diverge")
	}
	// Shared prefix: root + 2 python frames shared; then 4 each.
	want := 1 + 2 + 4 + 4
	if tr.NodeCount() != want {
		t.Fatalf("nodes = %d, want %d", tr.NodeCount(), want)
	}
}

func TestAddMetricPropagatesToRoot(t *testing.T) {
	tr := New()
	id := tr.MetricID(MetricGPUTime)
	leaf := tr.InsertPath(samplePath("aten::conv2d"))
	tr.AddMetric(leaf, id, 100)
	tr.AddMetric(leaf, id, 50)
	if got := leaf.ExclValue(id); got != 150 {
		t.Fatalf("leaf excl = %v", got)
	}
	if got := tr.Root.InclValue(id); got != 150 {
		t.Fatalf("root incl = %v", got)
	}
	// Mid-path node carries inclusive but not exclusive.
	mid := tr.Root.Child(PythonFrame("train.py", 10, "main"))
	if mid.InclValue(id) != 150 || mid.ExclValue(id) != 0 {
		t.Fatalf("mid incl=%v excl=%v", mid.InclValue(id), mid.ExclValue(id))
	}
}

func TestMetricAggregates(t *testing.T) {
	var m Metric
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(v)
	}
	if m.Count != 8 || m.Sum != 40 || m.Min != 2 || m.Max != 9 {
		t.Fatalf("aggregates: %+v", m)
	}
	if math.Abs(m.Mean-5) > 1e-9 {
		t.Fatalf("mean = %v", m.Mean)
	}
	if sd := stdDev(m); math.Abs(sd-2) > 1e-9 {
		t.Fatalf("stddev = %v", sd)
	}
}

// stdDev is the population standard deviation Welford's M2 carries.
func stdDev(m Metric) float64 {
	if m.Count < 2 {
		return 0
	}
	return math.Sqrt(m.M2 / float64(m.Count))
}

// leafCount counts the non-root nodes without children.
func leafCount(t *Tree) int {
	n := 0
	t.Visit(func(nd *Node) {
		if len(nd.order) == 0 && nd != t.Root {
			n++
		}
	})
	return n
}

func TestMetricMergeEqualsSequential(t *testing.T) {
	f := func(xs, ys []float64) bool {
		var a, b, all Metric
		ok := func(v float64) bool { return !math.IsNaN(v) && math.Abs(v) < 1e12 }
		for _, x := range xs {
			if !ok(x) {
				return true
			}
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			if !ok(y) {
				return true
			}
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		if a.Count != all.Count || math.Abs(a.Sum-all.Sum) > 1e-6*(1+math.Abs(all.Sum)) {
			return false
		}
		if a.Count > 0 && math.Abs(a.Mean-all.Mean) > 1e-6*(1+math.Abs(all.Mean)) {
			return false
		}
		return math.Abs(stdDev(a)-stdDev(all)) < 1e-6*(1+stdDev(all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: root inclusive sum equals the total of all added samples
// (metric conservation), for arbitrary insertion patterns.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint8, vals []uint16) bool {
		tr := New()
		id := tr.MetricID(MetricGPUTime)
		var total float64
		for i, op := range ops {
			if len(vals) == 0 {
				break
			}
			v := float64(vals[i%len(vals)])
			leaf := tr.InsertPath(samplePath([]string{"a", "b", "c", "d"}[int(op)%4]))
			tr.AddMetric(leaf, id, v)
			total += v
		}
		return math.Abs(tr.Root.InclValue(id)-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertUnder(t *testing.T) {
	tr := New()
	api := tr.InsertPath(samplePath("aten::conv2d")[:5])
	leaf := tr.InsertUnder(api, []Frame{{Kind: KindKernel, Name: "k", Lib: "[gpu]", PC: 0x99}})
	if leaf.Parent != api {
		t.Fatal("InsertUnder did not extend node")
	}
}

func TestPathAndDepth(t *testing.T) {
	tr := New()
	leaf := tr.InsertPath(samplePath("aten::conv2d"))
	p := leaf.Path()
	if len(p) != 6 || p[0].Kind != KindPython || p[5].Kind != KindKernel {
		t.Fatalf("path = %v", p)
	}
	if leaf.Depth() != 6 {
		t.Fatalf("depth = %d", leaf.Depth())
	}
}

func TestBFSAndLeaves(t *testing.T) {
	tr := New()
	tr.InsertPath(samplePath("aten::conv2d"))
	tr.InsertPath(samplePath("aten::matmul"))
	var visited int
	tr.BFS(func(n *Node) bool { visited++; return true })
	if visited != tr.NodeCount() {
		t.Fatalf("BFS visited %d of %d", visited, tr.NodeCount())
	}
	if n := leafCount(tr); n != 2 {
		t.Fatalf("leaves = %d", n)
	}
	// Pruning works.
	visited = 0
	tr.BFS(func(n *Node) bool { visited++; return n.Kind == KindRoot })
	if visited != 2 { // root + its single python child
		t.Fatalf("pruned BFS visited %d", visited)
	}
}

func TestMergeCombinesTrees(t *testing.T) {
	a, b := New(), New()
	ida := a.MetricID(MetricGPUTime)
	idb := b.MetricID(MetricGPUTime)
	a.AddMetric(a.InsertPath(samplePath("aten::conv2d")), ida, 10)
	b.AddMetric(b.InsertPath(samplePath("aten::conv2d")), idb, 20)
	b.AddMetric(b.InsertPath(samplePath("aten::matmul")), idb, 5)
	a.Merge(b)
	if got := a.Root.InclValue(ida); got != 35 {
		t.Fatalf("merged root = %v, want 35", got)
	}
	if n := leafCount(a); n != 2 {
		t.Fatalf("merged leaves = %d", n)
	}
}

func TestMergeRemapsSchemas(t *testing.T) {
	a, b := New(), New()
	a.MetricID("only_in_a")
	ida := a.MetricID(MetricGPUTime)
	idb := b.MetricID(MetricGPUTime) // different numeric ID than in a
	if ida == idb {
		t.Fatal("test setup: IDs should differ")
	}
	b.AddMetric(b.InsertPath(samplePath("x")), idb, 7)
	a.Merge(b)
	if got := a.Root.InclValue(ida); got != 7 {
		t.Fatalf("remapped merge = %v, want 7", got)
	}
}

func TestBottomUpAggregatesAcrossContexts(t *testing.T) {
	tr := New()
	id := tr.MetricID(MetricGPUTime)
	// Same kernel reached from two different Python contexts.
	p1 := []Frame{PythonFrame("a.py", 1, "f"), OperatorFrame("aten::conv2d"), {Kind: KindKernel, Name: "implicit_gemm", Lib: "g", PC: 0x1}}
	p2 := []Frame{PythonFrame("b.py", 2, "g"), OperatorFrame("aten::conv2d"), {Kind: KindKernel, Name: "implicit_gemm", Lib: "g", PC: 0x1}}
	tr.AddMetric(tr.InsertPath(p1), id, 30)
	tr.AddMetric(tr.InsertPath(p2), id, 70)
	bu := tr.BottomUp()
	buID, ok := bu.Schema.Lookup(MetricGPUTime)
	if !ok {
		t.Fatal("schema not mirrored")
	}
	// In the bottom-up view the kernel is a direct child of the root and
	// aggregates both contexts.
	kernel := bu.Root.Child(Frame{Kind: KindKernel, Name: "implicit_gemm", Lib: "g", PC: 0x1})
	if kernel == nil {
		t.Fatal("kernel not at top of bottom-up view")
	}
	if got := kernel.InclValue(buID); got != 100 {
		t.Fatalf("bottom-up kernel total = %v, want 100", got)
	}
	// Total conserved.
	if got := bu.Root.InclValue(buID); got != 100 {
		t.Fatalf("bottom-up root = %v", got)
	}
	// The two callers appear beneath the kernel.
	if len(kernel.Children()) != 1 { // operator frame unifies
		t.Fatalf("children under kernel = %d", len(kernel.Children()))
	}
	opn := kernel.Children()[0]
	if len(opn.Children()) != 2 {
		t.Fatalf("distinct callers = %d, want 2", len(opn.Children()))
	}
}

// Property: bottom-up view conserves every metric total.
func TestBottomUpConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := New()
		id := tr.MetricID(MetricGPUTime)
		var total float64
		for i, op := range ops {
			v := float64(i + 1)
			leaf := tr.InsertPath(samplePath([]string{"a", "b", "c"}[int(op)%3]))
			tr.AddMetric(leaf, id, v)
			total += v
		}
		bu := tr.BottomUp()
		buID, _ := bu.Schema.Lookup(MetricGPUTime)
		return math.Abs(bu.Root.InclValue(buID)-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintGrowsWithNodes(t *testing.T) {
	tr := New()
	before := tr.FootprintBytes()
	tr.InsertPath(samplePath("aten::conv2d"))
	if tr.FootprintBytes() <= before {
		t.Fatal("footprint did not grow")
	}
}

func TestFrameLabels(t *testing.T) {
	if PythonFrame("m.py", 3, "f").Label() != "m.py:3 (f)" {
		t.Fatal("python label wrong")
	}
	if (Frame{Kind: KindRoot}).Label() != "<root>" {
		t.Fatal("root label wrong")
	}
	if OperatorFrame("x").Label() != "x" {
		t.Fatal("op label wrong")
	}
}
