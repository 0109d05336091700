package flamegraph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"deepcontext/internal/cct"
)

func sampleTree() *cct.Tree {
	t := cct.New()
	gid := t.MetricID(cct.MetricGPUTime)
	conv := t.InsertPath([]cct.Frame{
		cct.PythonFrame("model.py", 10, "forward"),
		cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "implicit_gemm", Lib: "[gpu]", PC: 0x1},
	})
	t.AddMetric(conv, gid, 700)
	norm := t.InsertPath([]cct.Frame{
		cct.PythonFrame("model.py", 11, "forward"),
		cct.OperatorFrame("aten::instance_norm"),
		{Kind: cct.KindKernel, Name: "batch_norm_kernel", Lib: "[gpu]", PC: 0x2},
	})
	t.AddMetric(norm, gid, 300)
	return t
}

func TestBuildTopDown(t *testing.T) {
	m, err := Build(sampleTree(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Root.Value != 1000 {
		t.Fatalf("root value = %v", m.Root.Value)
	}
	if len(m.Root.Children) != 2 {
		t.Fatalf("root children = %d", len(m.Root.Children))
	}
	// Children sorted by value: conv line first.
	if m.Root.Children[0].Frac < m.Root.Children[1].Frac {
		t.Fatal("children not sorted by value")
	}
}

func TestHottestPathHighlight(t *testing.T) {
	m, _ := Build(sampleTree(), Options{})
	path := m.HottestPath()
	if len(path) != 3 {
		t.Fatalf("hot path len = %d", len(path))
	}
	if path[2].Label != "implicit_gemm" {
		t.Fatalf("hot leaf = %s", path[2].Label)
	}
}

func TestBuildBottomUpAggregates(t *testing.T) {
	m, err := Build(sampleTree(), Options{View: BottomUp})
	if err != nil {
		t.Fatal(err)
	}
	// Kernels appear at depth 1 in the bottom-up view.
	labels := map[string]bool{}
	for _, c := range m.Root.Children {
		labels[c.Label] = true
	}
	if !labels["implicit_gemm"] || !labels["batch_norm_kernel"] {
		t.Fatalf("bottom-up top level = %v", labels)
	}
	if m.Root.Value != 1000 {
		t.Fatalf("bottom-up total = %v", m.Root.Value)
	}
}

func TestBuildUnknownMetric(t *testing.T) {
	if _, err := Build(sampleTree(), Options{Metric: "nope"}); err == nil {
		t.Fatal("unknown metric should error")
	}
}

func TestMinFracPrunes(t *testing.T) {
	m, _ := Build(sampleTree(), Options{MinFrac: 0.5})
	if len(m.Root.Children) != 1 {
		t.Fatalf("pruning failed: %d children", len(m.Root.Children))
	}
}

func TestAnnotationsColorBoxes(t *testing.T) {
	tree := sampleTree()
	// Find the conv kernel node to annotate.
	var target *cct.Node
	tree.Visit(func(n *cct.Node) {
		if n.Name == "implicit_gemm" {
			target = n
		}
	})
	m, _ := Build(tree, Options{Annotations: map[*cct.Node]Annotation{
		target: {Text: "hotspot 70%", Severity: "critical"},
	}})
	hot := m.HottestPath()
	leaf := hot[len(hot)-1]
	if leaf.Issue != "hotspot 70%" || leaf.Severity != "critical" {
		t.Fatalf("annotation lost: %+v", leaf)
	}
}

func TestRenderText(t *testing.T) {
	m, _ := Build(sampleTree(), Options{})
	var sb strings.Builder
	RenderText(&sb, m, 0)
	out := sb.String()
	for _, want := range []string{"implicit_gemm", "aten::conv2d", "model.py:10", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text render missing %q:\n%s", want, out)
		}
	}
}

func TestFolded(t *testing.T) {
	var sb strings.Builder
	if err := Folded(&sb, sampleTree(), cct.MetricGPUTime); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded lines = %v", lines)
	}
	if !strings.Contains(lines[0], ";aten::conv2d;implicit_gemm 700") {
		t.Fatalf("folded line = %q", lines[0])
	}
	if err := Folded(&sb, sampleTree(), "bogus"); err == nil {
		t.Fatal("bogus metric should error")
	}
}

func TestRenderHTMLSelfContained(t *testing.T) {
	m, _ := Build(sampleTree(), Options{})
	var buf bytes.Buffer
	if err := RenderHTML(&buf, m); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "implicit_gemm", "MODEL =", "gpu_time_ns"} {
		if !strings.Contains(html, want) {
			t.Fatalf("html missing %q", want)
		}
	}
	// No external resources: the page must work offline in a WebView.
	for _, banned := range []string{"http://", "https://", "src="} {
		if strings.Contains(html, banned) {
			t.Fatalf("html references external resource (%q)", banned)
		}
	}
}

func TestClip(t *testing.T) {
	if clip("short", 10) != "short" {
		t.Fatal("clip mangled short string")
	}
	if got := clip("averyverylongfunctionname", 12); len(got) > 14 {
		t.Fatalf("clip too long: %q", got)
	}
}

// signedTree builds a diff-style tree with one regression and one
// improvement of equal magnitude, so the net root delta cancels.
func signedTree() *cct.Tree {
	before, after := cct.New(), cct.New()
	gb := before.MetricID(cct.MetricGPUTime)
	ga := after.MetricID(cct.MetricGPUTime)
	worse := []cct.Frame{cct.PythonFrame("t.py", 1, "step"), cct.OperatorFrame("aten::index")}
	same := []cct.Frame{cct.PythonFrame("t.py", 1, "step"), cct.OperatorFrame("aten::mm")}
	better := []cct.Frame{cct.PythonFrame("t.py", 1, "step"), cct.OperatorFrame("aten::copy_")}
	before.AddMetric(before.InsertPath(worse), gb, 100)
	before.AddMetric(before.InsertPath(same), gb, 500)
	before.AddMetric(before.InsertPath(better), gb, 400)
	after.AddMetric(after.InsertPath(worse), ga, 400)
	after.AddMetric(after.InsertPath(same), ga, 500)
	after.AddMetric(after.InsertPath(better), ga, 100)
	return cct.Diff(after, before)
}

func TestBuildSigned(t *testing.T) {
	m, err := Build(signedTree(), Options{Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Signed {
		t.Fatal("model not marked signed")
	}
	// Net delta cancels, but both sides must survive pruning and be sized
	// by magnitude: |+300| + |-300| = 600 total absolute change.
	if m.Root.Value != 0 {
		t.Fatalf("root delta = %v, want 0", m.Root.Value)
	}
	if len(m.Root.Children) != 1 {
		t.Fatalf("root children = %d", len(m.Root.Children))
	}
	step := m.Root.Children[0]
	if len(step.Children) != 2 {
		t.Fatalf("signed children pruned: %d (want regression and improvement)", len(step.Children))
	}
	var pos, neg bool
	for _, c := range step.Children {
		if c.Value == 300 {
			pos = true
		}
		if c.Value == -300 {
			neg = true
		}
		if c.Frac != 0.5 {
			t.Fatalf("child frac = %v, want 0.5 of total absolute change", c.Frac)
		}
	}
	if !pos || !neg {
		t.Fatalf("missing signed sides: pos=%v neg=%v", pos, neg)
	}
}

func TestRenderTextSigned(t *testing.T) {
	m, err := Build(signedTree(), Options{Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderText(&sb, m, 0)
	out := sb.String()
	if !strings.Contains(out, "diff flame graph") {
		t.Fatalf("missing diff header:\n%s", out)
	}
	if !strings.Contains(out, "+") || !strings.Contains(out, "-50.00%") {
		t.Fatalf("signed render lacks signed bars/percentages:\n%s", out)
	}
}

func TestRenderHTMLSigned(t *testing.T) {
	m, err := Build(signedTree(), Options{Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderHTML(&buf, m); err != nil {
		t.Fatal(err)
	}
	if ok, _ := regexp.MatchString(`const SIGNED =\s*true`, buf.String()); !ok {
		t.Fatal("html not marked signed")
	}
}

// Regression: a diff tree whose before/after sample counts match must stay
// visible to the bottom-up view (deltaMetric once emitted Count==0 there,
// which Tree.BottomUp treated as Empty and dropped).
func TestBuildSignedBottomUp(t *testing.T) {
	m, err := Build(signedTree(), Options{Signed: true, View: BottomUp})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Root.Children) == 0 {
		t.Fatal("signed bottom-up view lost all delta frames")
	}
	labels := map[string]float64{}
	for _, c := range m.Root.Children {
		labels[c.Label] = c.Value
	}
	if labels["aten::index"] != 300 || labels["aten::copy_"] != -300 {
		t.Fatalf("bottom-up deltas = %v, want aten::index=+300 aten::copy_=-300", labels)
	}
}

// foldedReference is the renderer Folded replaced — a path, a []string,
// a join and an fmt.Fprintf per node — kept as the oracle its bytes must
// equal.
func foldedReference(w *strings.Builder, tree *cct.Tree, metric string) {
	id, _ := tree.Schema.Lookup(metric)
	tree.Visit(func(n *cct.Node) {
		v := n.ExclValue(id)
		if v <= 0 || n.Kind == cct.KindRoot {
			return
		}
		var parts []string
		for _, f := range n.Path() {
			parts = append(parts, strings.ReplaceAll(f.Label(), ";", ","))
		}
		fmt.Fprintf(w, "%s %.0f\n", strings.Join(parts, ";"), v)
	})
}

// randFoldedTree builds a tree whose labels hold ';' and empty names, with
// a root-kind frame inside it, and whose exclusive values include zero,
// negatives, fractions, huge values, NaN and both infinities.
func randFoldedTree(rng *rand.Rand) *cct.Tree {
	t := cct.New()
	gid := t.MetricID(cct.MetricGPUTime)
	names := []string{"a", "b;c", ";", "", "aten::mm", "x;;y"}
	values := []float64{0, 1, 2.5, 0.4, 0.5, -3, 1e21, 123456789.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for p := 0; p < 1+rng.Intn(10); p++ {
		var frames []cct.Frame
		for d := 0; d < 1+rng.Intn(4); d++ {
			switch rng.Intn(6) {
			case 0:
				frames = append(frames, cct.PythonFrame("m;odel.py", rng.Intn(3), names[rng.Intn(len(names))]))
			case 1:
				frames = append(frames, cct.Frame{Kind: cct.KindRoot})
			default:
				frames = append(frames, cct.OperatorFrame(names[rng.Intn(len(names))]))
			}
		}
		n := t.InsertPath(frames)
		t.AddMetric(n, gid, values[rng.Intn(len(values))])
	}
	return t
}

// Folded streams exactly the bytes the per-node renderer wrote.
func TestFoldedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trees := []*cct.Tree{sampleTree(), signedTree()}
	for i := 0; i < 300; i++ {
		trees = append(trees, randFoldedTree(rng))
	}
	for i, tree := range trees {
		var got, want strings.Builder
		if err := Folded(&got, tree, cct.MetricGPUTime); err != nil {
			t.Fatal(err)
		}
		foldedReference(&want, tree, cct.MetricGPUTime)
		if got.String() != want.String() {
			t.Fatalf("tree %d: folded output differs\n got: %q\nwant: %q", i, got.String(), want.String())
		}
	}
}

// wideAggregate is the aggregate of eight series of 256 calling contexts
// each (python line → operator → kernel): 417 nodes.
func wideAggregate() *cct.Tree {
	t := cct.New()
	gid := t.MetricID(cct.MetricGPUTime)
	for s := 0; s < 8; s++ {
		for i := 0; i < 256; i++ {
			n := t.InsertPath([]cct.Frame{
				cct.PythonFrame("train.py", i%40+1, fmt.Sprintf("fn%d", i%40)),
				cct.OperatorFrame(fmt.Sprintf("aten::op%d", i%60)),
				{Kind: cct.KindKernel, Name: fmt.Sprintf("kern%d", i), Lib: "[gpu]", PC: uint64(0x1000 + i*16)},
			})
			t.AddMetric(n, gid, float64(i+1))
		}
	}
	return t
}

// A folded render allocates its output and a prefix buffer, not a path,
// a slice and a string per node: the per-node renderer took ~294 KB.
func TestFoldedAllocBound(t *testing.T) {
	tree := wideAggregate()
	if n := tree.NodeCount(); n != 417 {
		t.Fatalf("fixture has %d nodes, want 417", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var sb strings.Builder
		if err := Folded(&sb, tree, cct.MetricGPUTime); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 64<<10 {
		t.Fatalf("Folded of a 417-node tree allocated %d B per call, want ≤ %d", got, 64<<10)
	}
}

func BenchmarkFoldedWide(b *testing.B) {
	tree := wideAggregate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := Folded(&sb, tree, cct.MetricGPUTime); err != nil {
			b.Fatal(err)
		}
	}
}
