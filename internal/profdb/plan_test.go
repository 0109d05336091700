package profdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// refNormalize is the normalization the store folded every profile
// through before merge plans: clone the tree with every frame passed
// through cct.NormalizeFrame, merging nodes whose normalized frames unify.
// It is the reference a plan's merge must reproduce bit for bit.
func refNormalize(t *cct.Tree) *cct.Tree {
	out := cct.New()
	names := t.Schema.Names()
	remap := make([]cct.MetricID, len(names))
	for i, name := range names {
		remap[i] = out.Schema.ID(name)
	}
	size := out.Schema.Len()
	var rec func(dst, src *cct.Node)
	rec = func(dst, src *cct.Node) {
		if len(dst.Excl) < size {
			dst.Excl = make([]cct.Metric, size)
		}
		if len(dst.Incl) < size {
			dst.Incl = make([]cct.Metric, size)
		}
		for i, m := range src.Excl {
			if !m.Empty() {
				dst.Excl[remap[i]].Merge(m)
			}
		}
		for i, m := range src.Incl {
			if !m.Empty() {
				dst.Incl[remap[i]].Merge(m)
			}
		}
		for _, c := range src.Children() {
			rec(out.InsertUnder(dst, []cct.Frame{cct.NormalizeFrame(c.Frame)}), c)
		}
	}
	rec(out.Root, t.Root)
	return out
}

// treeBytes is a tree's v5 encoding: two trees hold the same structure and
// exclusive aggregates, float bits and child order included, exactly when
// these bytes are equal.
func treeBytes(tb testing.TB, t *cct.Tree) []byte {
	return saveBytes(tb, Entry{Profile: &profiler.Profile{Tree: t}})
}

var planMetricNames = []string{cct.MetricGPUTime, cct.MetricCPUTime, cct.MetricKernelCount, "papi:cycles", cct.MetricMemcpyBytes}

// randPlanTree builds a profile tree that exercises everything a plan must
// get right: kernels, native and instruction frames named alike at
// different PCs (siblings that unify only once normalized, nested ones
// included), a random subset and order of metric names, nodes with no
// slots or fewer slots than names, slots that are empty, and non-integer
// samples so Welford's mean and M2 carry rounding.
func randPlanTree(rng *rand.Rand) *cct.Tree {
	t := cct.New()
	names := append([]string(nil), planMetricNames...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:1+rng.Intn(len(names))]
	frame := func() cct.Frame {
		switch rng.Intn(5) {
		case 0:
			return cct.PythonFrame("train.py", 10+rng.Intn(3), "step")
		case 1:
			return cct.OperatorFrame([]string{"aten::mm", "aten::relu"}[rng.Intn(2)])
		case 2:
			return cct.Frame{Kind: cct.KindKernel, Name: []string{"gemm", "relu"}[rng.Intn(2)], Lib: "[gpu]", PC: uint64(rng.Intn(4))}
		case 3:
			return cct.NativeFrame([]string{"f", "g"}[rng.Intn(2)], []string{"libA.so", "libB.so"}[rng.Intn(2)], uint64(rng.Intn(3)), "f.c", rng.Intn(2))
		default:
			return cct.Frame{Kind: cct.KindInstruction, Name: "sass", Lib: "[gpu]", PC: uint64(rng.Intn(3))}
		}
	}
	for p := 0; p < 1+rng.Intn(16); p++ {
		path := make([]cct.Frame, 1+rng.Intn(5))
		for i := range path {
			path[i] = frame()
		}
		n := t.InsertPath(path)
		for s := 0; s < rng.Intn(4); s++ {
			t.AddMetric(n, t.MetricID(names[rng.Intn(len(names))]), float64(rng.Intn(1000))+rng.Float64())
		}
	}
	t.Visit(func(n *cct.Node) {
		// A slot that is present but empty: Count 0 with a stray sum.
		if len(n.Excl) < t.Schema.Len() && rng.Intn(4) == 0 {
			n.Excl = append(n.Excl, cct.Metric{Sum: 3})
		}
	})
	return t
}

// Merging a plan — from bytes or from the tree — into warm window trees is
// bit-identical to merging the reference normalization of the decoded
// tree, over random trees with sibling collisions.
func TestPlanMergeEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	collided := 0
	for round := 0; round < 60; round++ {
		seed := rng.Int63()
		warm := func() *cct.Tree {
			r := rand.New(rand.NewSource(seed))
			w := cct.New()
			cct.Merge(w, refNormalize(randPlanTree(r)))
			return w
		}
		ref, fromBytes, fromTree := warm(), warm(), warm()
		for k := 0; k < 4; k++ {
			src := randPlanTree(rng)
			body := saveBytes(t, Entry{Name: "p", Profile: &profiler.Profile{Tree: src, Meta: profiler.Meta{Workload: "w"}}})
			decoded, err := Load(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			cct.Merge(ref, refNormalize(decoded.Tree))

			ps, err := PlanBundle(body)
			if err != nil {
				t.Fatalf("round %d: plan rejects what decode accepts: %v", round, err)
			}
			if rec := ps.Records[0]; rec.Name != "p" || rec.Meta.Workload != "w" || !bytes.Equal(rec.Encoded(), body) {
				t.Fatalf("round %d: planned record lost its name, meta or bytes", round)
			}
			if ps.Records[0].Plan.Len() < src.NodeCount() {
				collided++
			}
			fromBytes.MergePlan(ps.Records[0].Plan)
			ps.Release()

			var p cct.Plan
			if err := p.FromTree(src); err != nil {
				t.Fatal(err)
			}
			fromTree.MergePlan(&p)
		}
		want := treeBytes(t, ref)
		if got := treeBytes(t, fromBytes); !bytes.Equal(got, want) {
			t.Fatalf("round %d: plan from bytes merged differently from the reference", round)
		}
		if got := treeBytes(t, fromTree); !bytes.Equal(got, want) {
			t.Fatalf("round %d: plan from tree merged differently from the reference", round)
		}
	}
	if collided < 20 {
		t.Fatalf("only %d profiles had siblings that unify once normalized; the generator must force more", collided)
	}
}

// cct.NormalizeAddresses is a plan merged into an empty tree; it must
// still be exactly the reference.
func TestNormalizeAddressesEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		src := randPlanTree(rng)
		if !bytes.Equal(treeBytes(t, cct.NormalizeAddresses(src)), treeBytes(t, refNormalize(src))) {
			t.Fatalf("tree %d: NormalizeAddresses differs from the reference", i)
		}
	}
}

// A legacy gob body is upgraded to v5 at the door and planned like any
// other: its Encoded form is the v5 encoding of its tree, name included.
func TestPlanBundleLegacy(t *testing.T) {
	legacy := legacyFixture(t)
	entries, err := DecodeBundle(legacy)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PlanBundle(legacy)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Release()
	if len(ps.Records) != len(entries) {
		t.Fatalf("%d planned records for %d entries", len(ps.Records), len(entries))
	}
	for i, e := range entries {
		rec := &ps.Records[i]
		if rec.Name != e.Name || rec.Meta != e.Profile.Meta {
			t.Fatalf("record %d: name or meta differ", i)
		}
		back, err := DecodeBundle(rec.Encoded())
		if err != nil || back[0].Name != e.Name || Checksum(back[0].Profile) != Checksum(e.Profile) {
			t.Fatalf("record %d: Encoded is not the profile's v5 encoding (%v)", i, err)
		}
		got, want := cct.New(), cct.New()
		got.MergePlan(rec.Plan)
		cct.Merge(want, refNormalize(e.Profile.Tree))
		if !bytes.Equal(treeBytes(t, got), treeBytes(t, want)) {
			t.Fatalf("record %d: legacy plan merges differently from the reference", i)
		}
	}
}

// slotNode hand-assembles a node with the given slots, each nil for an
// empty slot or a one-sample metric of that value.
func slotNode(parent uint64, kind cct.FrameKind, name uint64, excl ...*float64) []byte {
	ms := make([]cct.Metric, len(excl))
	for i, v := range excl {
		if v != nil {
			ms[i] = cct.Metric{Sum: *v, Min: *v, Max: *v, Count: 1, Mean: *v}
		}
	}
	b := rawNode(parent, kind, name)
	return appendMetrics(b[:len(b)-1], ms) // replace the empty excl count
}

func legacyFixture(tb testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "legacy-v2.dcp"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// Both decoders hold records to the same rules the merge relies on, and
// reject what breaks them as corrupt: the served path answers 400, never
// a panic or silently lost samples.
func TestPlanAndDecodeRejectTheSameRecords(t *testing.T) {
	v := 5.0
	root := rawNode(0, cct.KindRoot, 0, 0)
	op := rawNode(1, cct.KindOperator, 1)
	for name, data := range map[string][]byte{
		"extra metric slot":  rawDatabase(rawRecord(slotNode(0, cct.KindRoot, 0, nil, &v))),
		"duplicate siblings": rawDatabase(rawRecord(root, op, op)),
		"duplicate metric name": func() []byte {
			rec := rawRecord(root)
			rec = append(append(append([]byte(nil), rec[:22]...), 2, 1, 'm', 1, 'm'), rec[25:]...)
			return rawDatabase(rec)
		}(),
	} {
		if _, err := DecodeBundle(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode err = %v, want ErrCorrupt", name, err)
		}
		if _, err := PlanBundle(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: plan err = %v, want ErrCorrupt", name, err)
		}
	}
	// The baseline these cases break is accepted by both.
	good := rawDatabase(rawRecord(slotNode(0, cct.KindRoot, 0, &v), op))
	if _, err := DecodeBundle(good); err != nil {
		t.Fatalf("baseline decode: %v", err)
	}
	ps, err := PlanBundle(good)
	if err != nil {
		t.Fatalf("baseline plan: %v", err)
	}
	ps.Release()
}

func fuzzSeedsPlan(tb testing.TB) [][]byte {
	seeds := fuzzSeedsV4(tb)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seeds = append(seeds, saveBytes(tb, Entry{Name: fmt.Sprint(i), Profile: &profiler.Profile{Tree: randPlanTree(rng)}}))
	}
	return append(seeds,
		saveBytes(tb, Entry{Profile: sampleProfile()}, Entry{Profile: &profiler.Profile{Tree: randPlanTree(rng)}}),
		rawDatabase(rawRecord(slotNode(0, cct.KindRoot, 0, nil, new(float64)))),
	)
}

// TestPlanV4ColdPoolsAllocBound plans each v4 seed with every sync.Pool
// empty — two collections clear a pool and its victim cache — which is
// what FuzzPlanRecord meets when the race detector drops pooled items, and
// holds it to that fuzzer's allocation bound. Upgrading a v4 body by
// building its tree and encoding it again broke the bound with cold pools.
func TestPlanV4ColdPoolsAllocBound(t *testing.T) {
	for i, seed := range fuzzSeedsPlan(t) {
		if !bytes.HasPrefix(seed, []byte(formatMagicV4)) {
			continue
		}
		runtime.GC()
		runtime.GC()
		var ps *Plans
		var err error
		got := heapDelta(func() { ps, err = PlanBundle(seed) })
		if err == nil {
			ps.Release()
		}
		if limit := uint64(128*len(seed) + 16<<10); got > limit {
			t.Errorf("seed %d: planning %d v4 bytes with cold pools allocated %d (limit %d)", i, len(seed), got, limit)
		}
	}
}

// FuzzPlanRecord holds the parser's two sinks to each other over arbitrary
// bytes: it never panics, a plan accepts exactly what a tree accepts, each
// planned record's received bytes decode back to its tree, what it accepts
// merges without panic, and the merge equals the reference normalization
// of the decoded tree merged the old way, bit for bit.
func FuzzPlanRecord(f *testing.F) {
	for _, seed := range fuzzSeedsPlan(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !hasMagic(data) {
			data = append([]byte(FormatMagic), data...)
		}
		var ps *Plans
		var perr error
		if got, limit := heapDelta(func() { ps, perr = PlanBundle(data) }), uint64(128*len(data)+16<<10); got > limit {
			t.Fatalf("planning %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		entries, derr := DecodeBundle(data)
		if (perr == nil) != (derr == nil) {
			t.Fatalf("plan err %v, decode err %v: the two must accept the same inputs", perr, derr)
		}
		if perr != nil {
			if !errors.Is(perr, ErrCorrupt) {
				t.Fatalf("untyped plan error: %v", perr)
			}
			return
		}
		defer ps.Release()
		if len(ps.Records) != len(entries) {
			t.Fatalf("%d planned records, %d decoded", len(ps.Records), len(entries))
		}
		for i, e := range entries {
			rec := &ps.Records[i]
			if rec.Name != e.Name || rec.Meta != e.Profile.Meta {
				t.Fatalf("record %d: name or meta differ from the decoder's", i)
			}
			if back, err := DecodeBundle(rec.Encoded()); err != nil || equivalentBits(e.Profile.Tree, back[0].Profile.Tree) != nil {
				t.Fatalf("record %d: its received bytes do not decode back to it (%v)", i, err)
			}
			got, want := cct.New(), cct.New()
			for pass := 0; pass < 2; pass++ {
				got.MergePlan(rec.Plan)
				cct.Merge(want, refNormalize(e.Profile.Tree))
			}
			if !bytes.Equal(treeBytes(t, got), treeBytes(t, want)) {
				t.Fatalf("record %d: plan merge differs from the reference", i)
			}
		}
	})
}
