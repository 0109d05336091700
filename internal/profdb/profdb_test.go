package profdb

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"deepcontext/internal/cct"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
	"deepcontext/internal/pyruntime"
)

func sampleProfile() *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	cid := tree.MetricID(cct.MetricCPUTime)
	leaf := tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 10, "main"),
		cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "implicit_gemm", Lib: "[gpu]", PC: 0x1000},
	})
	tree.AddMetric(leaf, gid, 123)
	tree.AddMetric(leaf, gid, 456)
	tree.AddMetric(leaf.Parent, cid, 42)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: "unet", Framework: "pytorch", Vendor: "Nvidia", Iterations: 100},
		Fused: map[string][]framework.FusedOrigin{
			"fusion_add_gelu": {{Name: "jax::add", PyPath: []pyruntime.Frame{{File: "m.py", Line: 3, Func: "f"}}}},
		},
		FootprintBytes: 4096,
	}
}

func TestRoundTrip(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != p.Meta {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if got.Tree.NodeCount() != p.Tree.NodeCount() {
		t.Fatalf("nodes = %d vs %d", got.Tree.NodeCount(), p.Tree.NodeCount())
	}
	gid, ok := got.Tree.Schema.Lookup(cct.MetricGPUTime)
	if !ok {
		t.Fatal("schema lost")
	}
	if got.Tree.Root.InclValue(gid) != 579 {
		t.Fatalf("root gpu = %v", got.Tree.Root.InclValue(gid))
	}
	// Aggregates survive (min/max/stddev).
	var kernel *cct.Node
	got.Tree.Visit(func(n *cct.Node) {
		if n.Kind == cct.KindKernel {
			kernel = n
		}
	})
	m := kernel.ExclMetric(gid)
	if m == nil || m.Min != 123 || m.Max != 456 || m.Count != 2 {
		t.Fatalf("kernel metric = %+v", m)
	}
	if got.Fused["fusion_add_gelu"][0].PyPath[0].File != "m.py" {
		t.Fatal("fused origins lost")
	}
	if got.FootprintBytes != 4096 {
		t.Fatal("footprint lost")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.dcp")
	if err := SaveFile(path, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Workload != "unet" {
		t.Fatalf("meta = %+v", got.Meta)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a profile")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestExportJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportJSON(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["meta"].(map[string]any)["Workload"] != "unet" {
		t.Fatal("meta missing in JSON")
	}
	s := buf.String()
	if !strings.Contains(s, "implicit_gemm") || !strings.Contains(s, cct.MetricGPUTime) {
		t.Fatal("JSON lacks kernel or metric names")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	b.Meta.Workload = "dlrm"
	var buf bytes.Buffer
	if err := SaveBundle(&buf, []Entry{{Name: "unet/nvidia/pytorch", Profile: a}, {Name: "dlrm/nvidia/pytorch", Profile: b}}); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Name != "unet/nvidia/pytorch" || entries[1].Profile.Meta.Workload != "dlrm" {
		t.Fatalf("bundle entries wrong: %q / %+v", entries[0].Name, entries[1].Profile.Meta)
	}
	if entries[0].Profile.Tree.NodeCount() != a.Tree.NodeCount() {
		t.Fatal("bundle lost nodes")
	}
}

// JoinBundles is byte-equal to encoding the joined profiles as one
// bundle, returns a single input itself, joins v4 databases as v4, and
// refuses an input whose header is not a database with profiles of the
// first input's version.
func TestJoinBundles(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	b.Meta.Workload = "dlrm"
	ab, err := EncodeBundle([]Entry{{Name: "a", Profile: a}, {Name: "b", Profile: b}})
	if err != nil {
		t.Fatal(err)
	}
	c := sampleProfile()
	c.Meta.Workload = "vit"
	cdb, err := EncodeBundle([]Entry{{Name: "c", Profile: c}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeBundle([]Entry{{Name: "a", Profile: a}, {Name: "b", Profile: b}, {Name: "c", Profile: c}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := JoinBundles([][]byte{ab, cdb})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("joined bundle differs from the bundle encoded whole")
	}
	if one, err := JoinBundles([][]byte{cdb}); err != nil || &one[0] != &cdb[0] {
		t.Fatalf("a single input was not returned itself (err %v)", err)
	}
	// v4 inputs are upgraded to v5 by whoever reads them (PlanBundle,
	// DecodeBundle) before they could reach a join, so a join takes v5 only.
	v4 := v4Fixture(t)
	for name, bad := range map[string][][]byte{
		"no inputs":      nil,
		"v5 then v4":     {ab, v4},
		"v4 then v5":     {v4, cdb},
		"v4 and v4":      {v4, v4},
		"not a database": {ab, []byte("definitely not a profile")},
		"no profiles":    {ab, []byte(FormatMagic + "\x00")},
		"hostile count":  {ab, []byte(FormatMagic + "\x7f")},
		"truncated head": {[]byte(FormatMagic)},
	} {
		if _, err := JoinBundles(bad); err == nil || (name != "no inputs" && !errors.Is(err, ErrCorrupt)) {
			t.Errorf("%s: err = %v, want one matching ErrCorrupt", name, err)
		}
	}
}

func TestBundleFileAndSingleLoadInterop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.dcp")
	a := sampleProfile()
	if err := SaveBundleFile(path, []Entry{{Name: "first", Profile: a}, {Name: "second", Profile: sampleProfile()}}); err != nil {
		t.Fatal(err)
	}
	// Load on a bundle returns the first profile.
	p, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta.Workload != "unet" {
		t.Fatalf("meta = %+v", p.Meta)
	}
	entries, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Name != "second" {
		t.Fatalf("bundle = %d entries, [1].Name=%q", len(entries), entries[1].Name)
	}
}

func TestSaveBundleRejectsEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveBundle(&buf, nil); err == nil {
		t.Fatal("empty bundle should fail")
	}
	if err := SaveBundle(&buf, []Entry{{Name: "x"}}); err == nil {
		t.Fatal("nil profile should fail")
	}
}

// The committed fixture was written by the last release whose writer was
// gob (profdb v2); it keeps the read-only legacy path honest now that no
// code in the tree can produce such a file.
func TestLoadLegacyV2Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-v2.dcp"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := LoadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 load: %v", err)
	}
	if len(entries) != 2 || entries[0].Name != "unet/nvidia/pytorch" || entries[1].Name != "dlrm/nvidia/pytorch" {
		t.Fatalf("v2 entries = %+v", entries)
	}
	want := sampleProfile()
	for i, e := range entries {
		if err := cct.Equivalent(want.Tree, e.Profile.Tree); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if Checksum(e.Profile) != Checksum(want) {
			t.Fatalf("entry %d: checksum differs from the profile the fixture was written from", i)
		}
		if !reflect.DeepEqual(e.Profile.Fused, want.Fused) || e.Profile.FootprintBytes != want.FootprintBytes {
			t.Fatalf("entry %d: fused/footprint lost: %+v", i, e.Profile)
		}
	}
	if entries[0].Profile.Meta != want.Meta || entries[1].Profile.Meta.Workload != "dlrm" {
		t.Fatalf("v2 meta = %+v / %+v", entries[0].Profile.Meta, entries[1].Profile.Meta)
	}
	// A legacy file re-saves as v5 and survives.
	var buf bytes.Buffer
	if err := SaveBundle(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(FormatMagic)) {
		t.Fatal("re-save did not write v5")
	}
	again, err := LoadBundle(&buf)
	if err != nil || len(again) != 2 || cct.Equivalent(want.Tree, again[1].Profile.Tree) != nil {
		t.Fatalf("re-saved legacy bundle: %v, %d entries", err, len(again))
	}
}

func v4Fixture(tb testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "v4.dcp"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// hasMagic reports whether data begins with the v5 or the v4 magic.
func hasMagic(data []byte) bool {
	return bytes.HasPrefix(data, []byte(FormatMagic)) || bytes.HasPrefix(data, []byte(formatMagicV4))
}

func decodeAll(tb testing.TB, data []byte) []Entry {
	entries, err := DecodeBundle(data)
	if err != nil {
		tb.Fatal(err)
	}
	return entries
}

// The committed fixture was written by the last release whose writer was
// v4, which stored inclusive slots too. It loads to the profile it was
// written from, its inclusive aggregates derived, and re-saves as v5,
// without them.
func TestLoadV4Fixture(t *testing.T) {
	data := v4Fixture(t)
	entries, err := LoadBundle(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v4 load: %v", err)
	}
	if len(entries) != 2 || entries[0].Name != "unet/nvidia/pytorch" || entries[1].Name != "dlrm/nvidia/pytorch" {
		t.Fatalf("v4 entries = %+v", entries)
	}
	want := sampleProfile()
	for i, e := range entries {
		if err := cct.Equivalent(want.Tree, e.Profile.Tree); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if Checksum(e.Profile) != Checksum(want) {
			t.Fatalf("entry %d: checksum differs from the profile the fixture was written from", i)
		}
		if !reflect.DeepEqual(e.Profile.Fused, want.Fused) || e.Profile.FootprintBytes != want.FootprintBytes {
			t.Fatalf("entry %d: fused/footprint lost: %+v", i, e.Profile)
		}
	}
	resaved := saveBytes(t, entries...)
	if !bytes.HasPrefix(resaved, []byte(FormatMagic)) || len(resaved) >= len(data) {
		t.Fatalf("re-save wrote %d bytes under %q; want v5, smaller than the %d v4 bytes", len(resaved), resaved[:len(FormatMagic)], len(data))
	}
	ps, err := PlanBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Release()
	for i := range ps.Records {
		enc := ps.Records[i].Encoded()
		if !bytes.Equal(enc, saveBytes(t, entries[i])) {
			t.Fatalf("record %d of a v4 bundle is not handed on as its v5 encoding", i)
		}
		if back := decodeAll(t, enc); Checksum(back[0].Profile) != Checksum(want) {
			t.Fatalf("record %d: its standalone form decodes to another profile", i)
		}
	}
}

// Format version 1 is gone: such a file fails as corrupt, and the error
// names the version so the operator knows what they are holding.
func TestLoadV1IsRejectedByName(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&struct {
		Magic string
		Meta  profiler.Meta
	}{Magic: "DEEPCONTEXT-PROFDB-1", Meta: sampleProfile().Meta}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 load: err = %v, want ErrCorrupt naming version 1", err)
	}
}

func TestLoadRejectsUnknownMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&bundleFormat{Magic: "DEEPCONTEXT-PROFDB-99"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("future magic should fail")
	}
}

// Merged and diffed trees must survive the round trip, including negative
// (signed-delta) sums.
func TestRoundTripMergedAndDiffedProfiles(t *testing.T) {
	a, b := sampleProfile(), sampleProfile()
	gid, _ := b.Tree.Schema.Lookup(cct.MetricGPUTime)
	b.Tree.AddMetric(b.Tree.InsertPath([]cct.Frame{cct.OperatorFrame("aten::extra")}), gid, 5000)

	merged := &profiler.Profile{Tree: cct.New(), Meta: a.Meta}
	cct.Merge(merged.Tree, a.Tree)
	cct.Merge(merged.Tree, b.Tree)
	diffed := &profiler.Profile{Tree: cct.Diff(a.Tree, b.Tree), Meta: a.Meta}

	for name, p := range map[string]*profiler.Profile{"merged": merged, "diffed": diffed} {
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			t.Fatalf("%s save: %v", name, err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s load: %v", name, err)
		}
		if got.Tree.NodeCount() != p.Tree.NodeCount() {
			t.Fatalf("%s lost nodes: %d vs %d", name, got.Tree.NodeCount(), p.Tree.NodeCount())
		}
		id, ok := got.Tree.Schema.Lookup(cct.MetricGPUTime)
		if !ok {
			t.Fatalf("%s lost schema", name)
		}
		if got.Tree.Root.InclValue(id) != p.Tree.Root.InclValue(id) {
			t.Fatalf("%s total = %v, want %v", name, got.Tree.Root.InclValue(id), p.Tree.Root.InclValue(id))
		}
	}
	// The diff total must be the signed improvement (a − b = −5000).
	id, _ := diffed.Tree.Schema.Lookup(cct.MetricGPUTime)
	if diffed.Tree.Root.InclValue(id) != -5000 {
		t.Fatalf("diff total = %v, want -5000", diffed.Tree.Root.InclValue(id))
	}
}

// Property: round-trip preserves root inclusive totals for random trees.
func TestRoundTripConservationProperty(t *testing.T) {
	f := func(vals []uint16, shape []uint8) bool {
		tree := cct.New()
		id := tree.MetricID(cct.MetricGPUTime)
		var total float64
		for i, v := range vals {
			depth := 1
			if len(shape) > 0 {
				depth = 1 + int(shape[i%len(shape)])%4
			}
			var frames []cct.Frame
			for d := 0; d < depth; d++ {
				frames = append(frames, cct.PythonFrame("f.py", d+int(v)%7, "fn"))
			}
			tree.AddMetric(tree.InsertPath(frames), id, float64(v))
			total += float64(v)
		}
		p := &profiler.Profile{Tree: tree}
		var buf bytes.Buffer
		if err := Save(&buf, p); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		gid, _ := got.Tree.Schema.Lookup(cct.MetricGPUTime)
		return math.Abs(got.Tree.Root.InclValue(gid)-total) < 1e-9 &&
			got.Tree.NodeCount() == tree.NodeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
