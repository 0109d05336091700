package profdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// cloneProfile deep-copies p through the v2 codec — byte-exact structure,
// order and aggregates, like a client keeping its last acknowledged upload.
func cloneProfile(tb testing.TB, p *profiler.Profile) *profiler.Profile {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, p); err != nil {
		tb.Fatal(err)
	}
	out, err := Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// addKernelSamples grows p the way a continuous profiler does between
// uploads: more samples on one existing kernel path.
func addKernelSamples(p *profiler.Profile, op string, pc uint64, v float64) {
	gid := p.Tree.MetricID(cct.MetricGPUTime)
	leaf := p.Tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 10, "main"),
		cct.OperatorFrame(op),
		{Kind: cct.KindKernel, Name: "k", Lib: "[gpu]", PC: pc},
	})
	p.Tree.AddMetric(leaf, gid, v)
}

// establish runs a full upload through enc/dec and returns the cursor.
func establish(tb testing.TB, enc *DeltaEncoder, dec *DeltaDecoder, p *profiler.Profile, epoch, seq uint64) *SeriesCursor {
	tb.Helper()
	f, err := enc.EncodeFull(p, epoch, seq)
	if err != nil {
		tb.Fatal(err)
	}
	cur := &SeriesCursor{}
	if err := dec.AddFrames(&f); err != nil {
		tb.Fatal(err)
	}
	if _, err := dec.Apply(cur, &f); err != nil {
		tb.Fatal(err)
	}
	return cur
}

func applyDelta(tb testing.TB, enc *DeltaEncoder, dec *DeltaDecoder, cur *SeriesCursor, base, next *profiler.Profile, epoch, seq uint64) (*profiler.Profile, StreamFrame) {
	tb.Helper()
	f, ok, err := enc.EncodeDelta(base, next, epoch, seq)
	if err != nil {
		tb.Fatal(err)
	}
	if !ok {
		tb.Fatal("delta encoding unexpectedly fell back")
	}
	if err := dec.AddFrames(&f); err != nil {
		tb.Fatal(err)
	}
	got, err := dec.Apply(cur, &f)
	if err != nil {
		tb.Fatal(err)
	}
	return got, f
}

func gobSize(tb testing.TB, v any) int {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Len()
}

func TestDeltaRoundTrip(t *testing.T) {
	base := sampleProfile()
	cur := cloneProfile(t, base)
	// Steady-state growth: more samples on an existing path, a brand-new
	// subtree, and a new metric name.
	addKernelSamples(cur, "aten::conv2d", 0x2000, 77)
	addKernelSamples(cur, "aten::softmax", 0x3000, 33)
	mid := cur.Tree.MetricID("sm_occupancy")
	cur.Tree.AddMetric(cur.Tree.Root, mid, 0.5)
	cur.Meta.Iterations = 250
	cur.Stats.SamplesAttributed = 9000

	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	cursor := establish(t, enc, dec, base, 1, 1)
	got, f := applyDelta(t, enc, dec, cursor, base, cur, 1, 2)

	if got.Meta != cur.Meta {
		t.Fatalf("meta = %+v, want %+v", got.Meta, cur.Meta)
	}
	if got.Stats != cur.Stats {
		t.Fatalf("stats = %+v", got.Stats)
	}
	if Checksum(got) != Checksum(cur) {
		t.Fatal("materialized checksum differs from sender's")
	}
	// The materialized tree holds exclusive aggregates, the sender's
	// propagated inclusive ones too: derive before comparing.
	got.Tree.DeriveInclusive()
	if err := cct.Equivalent(got.Tree, cur.Tree); err != nil {
		t.Fatalf("materialized tree differs: %v", err)
	}
	// Insertion order is reconstructed exactly, not just up to equivalence.
	var wantOrder, gotOrder []string
	cur.Tree.Visit(func(n *cct.Node) { wantOrder = append(wantOrder, n.Frame.Key()) })
	got.Tree.Visit(func(n *cct.Node) { gotOrder = append(gotOrder, n.Frame.Key()) })
	if len(wantOrder) != len(gotOrder) {
		t.Fatalf("node count %d vs %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if wantOrder[i] != gotOrder[i] {
			t.Fatalf("DFS position %d: %q vs %q", i, gotOrder[i], wantOrder[i])
		}
	}

	full, err := enc.EncodeFull(cur, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds, fs := gobSize(t, &f), gobSize(t, &full); ds >= fs {
		t.Fatalf("delta frame (%d B) not smaller than full frame (%d B)", ds, fs)
	}
}

func TestDeltaNoChangeIsTiny(t *testing.T) {
	base := sampleProfile()
	cur := cloneProfile(t, base)
	cur.Meta.Iterations++ // metadata moves every interval; the tree does not

	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	cursor := establish(t, enc, dec, base, 1, 1)
	got, f := applyDelta(t, enc, dec, cursor, base, cur, 1, 2)
	if len(f.Nodes) != 0 || len(f.NewFrames) != 0 {
		t.Fatalf("unchanged tree emitted %d nodes, %d frames", len(f.Nodes), len(f.NewFrames))
	}
	if got.Meta.Iterations != cur.Meta.Iterations {
		t.Fatal("metadata not applied")
	}
	if Checksum(got) != Checksum(cur) {
		t.Fatal("checksum moved on a no-op delta")
	}
}

// The dictionary is per session: frames shipped once are referenced by ID
// in every later delta.
func TestDeltaDictionaryPersistsAcrossFrames(t *testing.T) {
	base := sampleProfile()
	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	cursor := establish(t, enc, dec, base, 1, 1)

	prev := base
	for seq := uint64(2); seq <= 4; seq++ {
		next := cloneProfile(t, prev)
		addKernelSamples(next, "aten::conv2d", 0x2000, float64(seq))
		_, f := applyDelta(t, enc, dec, cursor, prev, next, 1, seq)
		if seq > 2 && len(f.NewFrames) != 0 {
			t.Fatalf("seq %d resent %d dictionary frames", seq, len(f.NewFrames))
		}
		prev = next
	}
}

func TestDeltaFallsBackOnUnencodableChange(t *testing.T) {
	enc := NewDeltaEncoder()
	base := sampleProfile()

	t.Run("deletion", func(t *testing.T) {
		cur := cloneProfile(t, base)
		shrunk := sampleProfile()
		shrunk.Tree = cct.New() // cur lost every node base had
		if _, ok, err := enc.EncodeDelta(cur, shrunk, 1, 2); err != nil || ok {
			t.Fatalf("deletion: ok=%v err=%v, want fallback", ok, err)
		}
	})
	t.Run("reorder", func(t *testing.T) {
		a, b := cct.New(), cct.New()
		a.InsertPath([]cct.Frame{cct.OperatorFrame("x")})
		a.InsertPath([]cct.Frame{cct.OperatorFrame("y")})
		b.InsertPath([]cct.Frame{cct.OperatorFrame("y")})
		b.InsertPath([]cct.Frame{cct.OperatorFrame("x")})
		pa := &profiler.Profile{Tree: a}
		pb := &profiler.Profile{Tree: b}
		if _, ok, err := enc.EncodeDelta(pa, pb, 1, 2); err != nil || ok {
			t.Fatalf("reorder: ok=%v err=%v, want fallback", ok, err)
		}
	})
	t.Run("schema rewrite", func(t *testing.T) {
		a, b := cct.New(), cct.New()
		a.MetricID("one")
		b.MetricID("two")
		pa := &profiler.Profile{Tree: a}
		pb := &profiler.Profile{Tree: b}
		if _, ok, err := enc.EncodeDelta(pa, pb, 1, 2); err != nil || ok {
			t.Fatalf("schema: ok=%v err=%v, want fallback", ok, err)
		}
	})
}

func TestDeltaStaleBase(t *testing.T) {
	base := sampleProfile()
	cur := cloneProfile(t, base)
	addKernelSamples(cur, "aten::conv2d", 0x2000, 5)

	t.Run("no base", func(t *testing.T) {
		enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
		f, ok, err := enc.EncodeDelta(base, cur, 1, 2)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := dec.AddFrames(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Apply(&SeriesCursor{}, &f); !errors.Is(err, ErrStaleBase) {
			t.Fatalf("err = %v, want ErrStaleBase", err)
		}
	})
	t.Run("sequence gap", func(t *testing.T) {
		enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
		cursor := establish(t, enc, dec, base, 1, 1)
		f, ok, err := enc.EncodeDelta(base, cur, 1, 3) // skips seq 2
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := dec.AddFrames(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrStaleBase) {
			t.Fatalf("err = %v, want ErrStaleBase", err)
		}
	})
	t.Run("checksum mismatch then full resync", func(t *testing.T) {
		enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
		cursor := establish(t, enc, dec, base, 1, 1)
		f, ok, err := enc.EncodeDelta(base, cur, 1, 2)
		if err != nil || !ok {
			t.Fatal(err)
		}
		f.BaseSum ^= 0xdead // the sender's base diverged
		if err := dec.AddFrames(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrStaleBase) {
			t.Fatalf("err = %v, want ErrStaleBase", err)
		}
		// The protocol's recovery: full upload under the next epoch.
		full, err := enc.EncodeFull(cur, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.AddFrames(&full); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Apply(cursor, &full)
		if err != nil {
			t.Fatal(err)
		}
		if Checksum(got) != Checksum(cur) {
			t.Fatal("resync did not converge")
		}
		// And deltas flow again on top of the new epoch.
		next := cloneProfile(t, cur)
		addKernelSamples(next, "aten::relu", 0x4000, 9)
		applyDelta(t, enc, dec, cursor, cur, next, 2, 2)
	})
}

func TestDeltaApplyRejectsCorruptFrames(t *testing.T) {
	base := sampleProfile()
	cur := cloneProfile(t, base)
	addKernelSamples(cur, "aten::conv2d", 0x2000, 5)

	fresh := func(t *testing.T) (*DeltaDecoder, *SeriesCursor, StreamFrame) {
		enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
		cursor := establish(t, enc, dec, base, 1, 1)
		f, ok, err := enc.EncodeDelta(base, cur, 1, 2)
		if err != nil || !ok {
			t.Fatal(err)
		}
		if err := dec.AddFrames(&f); err != nil {
			t.Fatal(err)
		}
		return dec, cursor, f
	}

	t.Run("bad magic", func(t *testing.T) {
		dec, cursor, f := fresh(t)
		f.Magic = "DEEPCONTEXT-PROFDB-99"
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("forward parent", func(t *testing.T) {
		dec, cursor, f := fresh(t)
		if len(f.Nodes) < 2 {
			t.Fatal("need at least two delta nodes")
		}
		f.Nodes[1].Parent = int32(len(f.Nodes)) + 3
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("dictionary overflow", func(t *testing.T) {
		dec, cursor, f := fresh(t)
		if len(f.Nodes) < 2 {
			t.Fatal("need at least two delta nodes")
		}
		f.Nodes[1].Frame = 1 << 20
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("metric entry outside the schema", func(t *testing.T) {
		dec, cursor, f := fresh(t)
		if len(f.Nodes) < 2 {
			t.Fatal("need at least two delta nodes")
		}
		var m cct.Metric
		m.Add(1)
		f.Nodes[1].Excl = append(f.Nodes[1].Excl, MetricEntry{Idx: 64, M: m})
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("negative metric entry index", func(t *testing.T) {
		dec, cursor, f := fresh(t)
		if len(f.Nodes) < 2 {
			t.Fatal("need at least two delta nodes")
		}
		var m cct.Metric
		m.Add(1)
		f.Nodes[1].Excl = append(f.Nodes[1].Excl, MetricEntry{Idx: -1, M: m})
		if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})

	// A full frame must be one profile of the series the frame names: a
	// receiver keys the cursor, and in a cluster picks the owner, by
	// f.Meta, and would otherwise store a profile under other labels.
	other := cloneProfile(t, cur)
	other.Meta.Workload = "dlrm"
	for name, full := range map[string][]byte{
		"full frame holding two profiles": saveBytes(t, Entry{Profile: cur}, Entry{Profile: other}),
		"full frame of another series":    saveBytes(t, Entry{Profile: other}),
	} {
		t.Run(name, func(t *testing.T) {
			dec, cursor, _ := fresh(t)
			before := *cursor
			f := StreamFrame{Magic: FormatMagicV3, Epoch: 2, Seq: 1, Meta: cur.Meta, Full: full}
			if _, err := dec.Apply(cursor, &f); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if *cursor != before {
				t.Fatal("a rejected full frame moved the cursor")
			}
		})
	}
}

// The checksum must not see metric-array padding or frame fields outside
// the unification key — both legitimately differ between a sender's tree
// and its materialization.
func TestChecksumPaddingInsensitive(t *testing.T) {
	a := sampleProfile()
	b := cloneProfile(t, a)
	want := Checksum(a)
	if Checksum(b) != want {
		t.Fatal("clone checksum differs")
	}
	// Pad every node's arrays to schema length with empty aggregates.
	size := b.Tree.Schema.Len()
	b.Tree.Visit(func(n *cct.Node) {
		for len(n.Excl) < size {
			n.Excl = append(n.Excl, cct.Metric{})
		}
		for len(n.Incl) < size {
			n.Incl = append(n.Incl, cct.Metric{})
		}
	})
	if Checksum(b) != want {
		t.Fatal("padding changed the checksum")
	}
	// But a real metric change must move it.
	gid := b.Tree.MetricID(cct.MetricGPUTime)
	b.Tree.AddMetric(b.Tree.Root, gid, 1)
	if Checksum(b) == want {
		t.Fatal("metric change did not move the checksum")
	}
}

func TestStreamBatchReadWrite(t *testing.T) {
	enc := NewDeltaEncoder()
	f, err := enc.EncodeFull(sampleProfile(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	genc := gob.NewEncoder(&buf)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := WriteBatch(genc, &StreamBatch{Seq: seq, Frames: []StreamFrame{f}}); err != nil {
			t.Fatal(err)
		}
	}
	gdec := gob.NewDecoder(&buf)
	for seq := uint64(1); seq <= 3; seq++ {
		b, err := ReadBatch(gdec)
		if err != nil {
			t.Fatal(err)
		}
		if b.Seq != seq || len(b.Frames) != 1 {
			t.Fatalf("batch = %+v", b)
		}
	}
	if _, err := ReadBatch(gdec); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}

	// Truncation mid-stream is corruption, not EOF.
	var whole bytes.Buffer
	genc = gob.NewEncoder(&whole)
	if err := WriteBatch(genc, &StreamBatch{Seq: 1, Frames: []StreamFrame{f}}); err != nil {
		t.Fatal(err)
	}
	cut := whole.Bytes()[:whole.Len()-7]
	if _, err := ReadBatch(gob.NewDecoder(bytes.NewReader(cut))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}
