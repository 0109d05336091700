// Package flamegraph implements the visualization model behind DeepContext's
// GUI (paper §4.4): calling context trees rendered as flame graphs with
// switchable top-down and bottom-up views, hotspot highlighting and
// colour-coded analyzer issues. Renderers produce a self-contained HTML page
// (the WebView payload), an ASCII tree for terminals, and Brendan Gregg's
// folded-stacks format for external tooling.
package flamegraph

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"deepcontext/internal/cct"
)

// View selects the graph orientation.
type View int

const (
	// TopDown shows the calling context tree as recorded.
	TopDown View = iota
	// BottomUp aggregates metrics per innermost frame across contexts.
	BottomUp
)

// String names the view.
func (v View) String() string {
	if v == BottomUp {
		return "bottom-up"
	}
	return "top-down"
}

// Box is one flame-graph rectangle.
type Box struct {
	Label string
	Kind  string
	// Value is the inclusive metric (box width); Self is exclusive.
	Value float64
	Self  float64
	// Frac is Value relative to the root.
	Frac float64
	// Issue carries the most severe analyzer annotation, if any.
	Issue string
	// Severity is "", "info", "warning" or "critical".
	Severity string
	Children []*Box
	File     string
	Line     int
}

// Model is a renderable flame graph.
type Model struct {
	Root   *Box
	Metric string
	View   View
	// Signed marks a delta (diff) graph: box values are signed, widths are
	// by magnitude and colour encodes direction (regression vs improvement).
	Signed bool
}

// Annotation colours a node in the rendered graph.
type Annotation struct {
	Text     string
	Severity string
}

// Options configures Build.
type Options struct {
	// Metric is the metric to size boxes by (default gpu_time_ns).
	Metric string
	// View selects orientation.
	View View
	// MinFrac prunes boxes below this fraction of the root (default 1e-4).
	MinFrac float64
	// Annotations keys analyzer issues by CCT node (top-down view only).
	Annotations map[*cct.Node]Annotation
	// Signed treats the tree as a diff: values keep their sign, boxes are
	// sized and pruned by magnitude against the total absolute change, and
	// renderers colour by direction. Use with trees built by cct.Diff.
	Signed bool
}

// Build renders tree into a flame-graph model.
func Build(tree *cct.Tree, opts Options) (*Model, error) {
	if opts.Metric == "" {
		opts.Metric = cct.MetricGPUTime
	}
	if opts.MinFrac <= 0 {
		opts.MinFrac = 1e-4
	}
	src := tree
	if opts.View == BottomUp {
		src = tree.BottomUp()
		// Node identities change in the inverted tree; annotations
		// cannot be carried over.
		opts.Annotations = nil
	}
	id, ok := src.Schema.Lookup(opts.Metric)
	if !ok {
		return nil, fmt.Errorf("flamegraph: metric %q not in profile", opts.Metric)
	}
	// In signed (diff) mode a node's net inclusive delta can cancel to ~0
	// while large regressions and improvements coexist below it, so boxes
	// are sized and pruned by the subtree's total absolute exclusive change
	// ("absolute inclusive") rather than by the net value.
	var absIncl map[*cct.Node]float64
	if opts.Signed {
		absIncl = make(map[*cct.Node]float64)
		var sum func(n *cct.Node) float64
		sum = func(n *cct.Node) float64 {
			v := math.Abs(n.ExclValue(id))
			for _, c := range n.Children() {
				v += sum(c)
			}
			absIncl[n] = v
			return v
		}
		sum(src.Root)
	}
	weight := func(n *cct.Node) float64 {
		if opts.Signed {
			return absIncl[n]
		}
		return n.InclValue(id)
	}
	total := weight(src.Root)
	if total <= 0 {
		total = 1
	}
	var conv func(n *cct.Node) *Box
	conv = func(n *cct.Node) *Box {
		b := &Box{
			Label: n.Label(),
			Kind:  n.Kind.String(),
			Value: n.InclValue(id),
			Self:  n.ExclValue(id),
			Frac:  weight(n) / total,
			File:  n.File,
			Line:  n.Line,
		}
		if a, ok := opts.Annotations[n]; ok {
			b.Issue = a.Text
			b.Severity = a.Severity
		}
		for _, c := range n.Children() {
			if weight(c)/total < opts.MinFrac {
				continue
			}
			b.Children = append(b.Children, conv(c))
		}
		sort.SliceStable(b.Children, func(i, j int) bool { return b.Children[i].Frac > b.Children[j].Frac })
		return b
	}
	root := conv(src.Root)
	root.Label = "<all>"
	return &Model{Root: root, Metric: opts.Metric, View: opts.View, Signed: opts.Signed}, nil
}

// HottestPath returns the chain of maximal-value boxes from the root — the
// highlighted hot path of paper Fig. 1.
func (m *Model) HottestPath() []*Box {
	var out []*Box
	cur := m.Root
	for len(cur.Children) > 0 {
		cur = cur.Children[0] // children sorted by value
		out = append(out, cur)
	}
	return out
}

// RenderText writes an indented ASCII rendering with per-box bars. Signed
// models render '+' bars for regressions and '-' bars for improvements, with
// the sign carried on the percentage.
func RenderText(w *strings.Builder, m *Model, maxDepth int) {
	kind := "flame graph"
	if m.Signed {
		kind = "diff flame graph"
	}
	fmt.Fprintf(w, "%s (%s, %s)\n", kind, m.Metric, m.View)
	var rec func(b *Box, depth int)
	rec = func(b *Box, depth int) {
		if maxDepth > 0 && depth > maxDepth {
			return
		}
		barRune := "#"
		pct := 100 * b.Frac
		if m.Signed {
			if b.Value > 0 {
				barRune = "+"
			} else if b.Value < 0 {
				barRune, pct = "-", -pct
			}
		}
		bar := strings.Repeat(barRune, int(b.Frac*40+0.5))
		marker := ""
		if b.Severity != "" {
			marker = " [" + b.Severity + ": " + b.Issue + "]"
		}
		format := "%s%-40s %6.2f%% %s%s\n"
		if m.Signed {
			format = "%s%-40s %+7.2f%% %s%s\n"
		}
		fmt.Fprintf(w, format,
			strings.Repeat("  ", depth), clip(b.Label, 40-2*depth), pct, bar, marker)
		for _, c := range b.Children {
			rec(c, depth+1)
		}
	}
	rec(m.Root, 0)
}

func clip(s string, n int) string {
	if n < 8 {
		n = 8
	}
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Folded writes Brendan Gregg folded-stacks lines: "a;b;c value", one per
// node with a positive (or NaN) exclusive value, in pre-order, each label's
// ';' escaped as ','. One walk keeps the path to the current node as a
// shared prefix, so no line builds a path of its own.
func Folded(w *strings.Builder, tree *cct.Tree, metric string) error {
	id, ok := tree.Schema.Lookup(metric)
	if !ok {
		return fmt.Errorf("flamegraph: metric %q not in profile", metric)
	}
	// buf[start:] is the path to the node being visited: a path starts
	// below the nearest root frame (cct.Node.Path), and sep says whether
	// the node's label follows another.
	var buf []byte
	var rec func(n *cct.Node, start int, sep bool)
	rec = func(n *cct.Node, start int, sep bool) {
		mark := len(buf)
		if n.Kind == cct.KindRoot {
			start, sep = mark, false
		} else {
			if sep {
				buf = append(buf, ';')
			}
			buf, sep = appendEscaped(buf, n.Label()), true
			if v := n.ExclValue(id); !(v <= 0) {
				end := len(buf)
				buf = append(strconv.AppendFloat(append(buf, ' '), v, 'f', 0, 64), '\n')
				w.Write(buf[start:])
				buf = buf[:end]
			}
		}
		for _, c := range n.Children() {
			rec(c, start, sep)
		}
		buf = buf[:mark]
	}
	rec(tree.Root, 0, false)
	return nil
}

// appendEscaped appends label with every ';' replaced by ',', the folded
// format's frame separator.
func appendEscaped(b []byte, label string) []byte {
	for {
		i := strings.IndexByte(label, ';')
		if i < 0 {
			return append(b, label...)
		}
		b = append(append(b, label[:i]...), ',')
		label = label[i+1:]
	}
}
