package profdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// deltaSeeds builds the v3 fuzz corpus: valid full and delta batches, a
// wrong-epoch delta, a corrupted-parent delta, truncations, and garbage.
func deltaSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	enc := NewDeltaEncoder()
	base := sampleProfile()
	cur := cloneProfile(tb, base)
	addKernelSamples(cur, "aten::conv2d", 0x2000, 7)

	full, err := enc.EncodeFull(base, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	delta, ok, err := enc.EncodeDelta(base, cur, 1, 2)
	if err != nil || !ok {
		tb.Fatal("seed delta did not encode")
	}
	wrongEpoch := delta
	wrongEpoch.Epoch = 99
	badParent := delta
	badParent.Nodes = append([]DeltaNode(nil), delta.Nodes...)
	if len(badParent.Nodes) > 1 {
		badParent.Nodes[1].Parent = 1 << 20
	}

	pack := func(frames ...StreamFrame) []byte {
		var buf bytes.Buffer
		genc := gob.NewEncoder(&buf)
		if err := WriteBatch(genc, &StreamBatch{Seq: 1, Frames: frames}); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := pack(full, delta)
	return [][]byte{
		valid,
		pack(full),
		pack(delta),
		pack(wrongEpoch),
		pack(badParent),
		pack(full, wrongEpoch, delta),
		valid[:len(valid)/2],
		[]byte("not a stream"),
		{},
	}
}

// FuzzDeltaDecode asserts the receiver's contract over arbitrary stream
// bytes: batch decoding and frame application never panic, and every
// failure is one of the typed errors an ingest boundary dispatches on
// (ErrCorrupt, ErrStaleBase, ErrTooLarge).
func FuzzDeltaDecode(f *testing.F) {
	for _, seed := range deltaSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDeltaDecoder()
		dec.MaxBytes = 1 << 20
		cursors := make(map[string]*SeriesCursor)
		gdec := gob.NewDecoder(bytes.NewReader(data))
		for batches := 0; batches < 64; batches++ {
			b, err := ReadBatch(gdec)
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("undecodable batch gave untyped error: %v", err)
				}
				return
			}
			for i := range b.Frames {
				fr := &b.Frames[i]
				if err := dec.AddFrames(fr); err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("AddFrames untyped error: %v", err)
					}
					return
				}
				key := fr.Meta.Workload + "/" + fr.Meta.Vendor + "/" + fr.Meta.Framework
				cur := cursors[key]
				if cur == nil {
					cur = &SeriesCursor{}
					cursors[key] = cur
				}
				p, err := dec.Apply(cur, fr)
				if err != nil {
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStaleBase) && !errors.Is(err, ErrTooLarge) {
						t.Fatalf("Apply untyped error: %v", err)
					}
					continue
				}
				if p == nil || p.Tree == nil {
					t.Fatal("Apply accepted a frame but returned no profile")
				}
			}
		}
	})
}

// fuzzGrow derives deterministic append-only growth from fuzz bytes: each
// 3-byte chunk adds samples on one of a small alphabet of call paths. Both
// metric names are interned up front so a grown clone keeps the schema
// prefix property.
func fuzzGrow(t *cct.Tree, data []byte) {
	m0 := t.MetricID("m0")
	m1 := t.MetricID("m1")
	for len(data) >= 3 {
		a, b, v := data[0], data[1], data[2]
		data = data[3:]
		path := []cct.Frame{
			cct.OperatorFrame(fmt.Sprintf("op%d", a%5)),
			{Kind: cct.KindKernel, Name: fmt.Sprintf("k%d", b%5), Lib: "[gpu]", PC: 0x100 + uint64(b%5)*16},
		}
		if a%3 == 0 {
			path = append([]cct.Frame{cct.PythonFrame("train.py", int(a%7), "main")}, path...)
		}
		leaf := t.InsertPath(path)
		mid := m0
		if v%2 == 1 {
			mid = m1
		}
		t.AddMetric(leaf, mid, float64(v))
	}
}

// FuzzDeltaRoundTrip asserts the codec's algebra: for any append-only
// growth from a to b, the delta encodes (no fallback), and applying it to
// a materializes exactly b — same checksum, equivalent trees.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{4, 5, 6})
	f.Add([]byte{0, 0, 0, 9, 9, 9}, []byte{0, 0, 0})
	f.Add([]byte{7, 1, 200, 3, 3, 3}, []byte{7, 1, 200, 250, 250, 250, 1, 2, 3})
	f.Fuzz(func(t *testing.T, baseOps, growOps []byte) {
		if len(baseOps) > 4096 || len(growOps) > 4096 {
			return
		}
		base := &profiler.Profile{
			Tree: cct.New(),
			Meta: profiler.Meta{Workload: "fuzz", Vendor: "nvidia", Framework: "pytorch"},
		}
		fuzzGrow(base.Tree, baseOps)
		cur := cloneProfile(t, base)
		fuzzGrow(cur.Tree, growOps)
		cur.Meta.Iterations = len(growOps)

		enc := NewDeltaEncoder()
		dec := NewDeltaDecoder()
		cursor := establish(t, enc, dec, base, 1, 1)
		fr, ok, err := enc.EncodeDelta(base, cur, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("append-only growth must delta-encode")
		}
		if err := dec.AddFrames(&fr); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Apply(cursor, &fr)
		if err != nil {
			t.Fatal(err)
		}
		if Checksum(got) != Checksum(cur) {
			t.Fatal("materialized checksum differs")
		}
		// The materialized tree holds exclusive aggregates, the sender's
		// propagated inclusive ones too: derive before comparing.
		got.Tree.DeriveInclusive()
		if err := cct.Equivalent(got.Tree, cur.Tree); err != nil {
			t.Fatalf("materialized tree differs: %v", err)
		}
	})
}
