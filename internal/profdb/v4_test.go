package profdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
	"deepcontext/internal/pyruntime"
)

func saveBytes(tb testing.TB, entries ...Entry) []byte {
	tb.Helper()
	b, err := EncodeBundle(entries)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// gob wrote map fields in map iteration order, so two encodings of one
// profile differed; v5, like v4, is a pure function of the profile.
func TestSaveIsDeterministic(t *testing.T) {
	p := sampleProfile()
	for _, k := range []string{"fusion_b", "fusion_a", "fusion_z", "fusion_m", "fusion_c"} {
		p.Fused[k] = []framework.FusedOrigin{{Name: "jax::" + k, PyPath: []pyruntime.Frame{{File: "m.py", Line: 7, Func: k}}}}
	}
	first := saveBytes(t, Entry{Profile: p})
	for i := 0; i < 20; i++ {
		if !bytes.Equal(saveBytes(t, Entry{Profile: p}), first) {
			t.Fatalf("encoding %d of the same profile differs from the first", i+2)
		}
	}
	// Decoding and encoding again reproduces the bytes: nothing is lost or
	// reordered on the way through.
	got, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, Entry{Profile: got}), first) {
		t.Fatal("decode → encode changed the bytes")
	}
}

// Planned.Encoded hands on exactly the bytes that were validated: the
// body itself for a single profile, header + the profile's own record for
// a bundle entry — either way a database that decodes to the same profile.
func TestEntryEncodedIsTheReceivedBytes(t *testing.T) {
	a, b := sampleProfile(), sampleProfile()
	b.Meta.Workload = "dlrm"
	gid, _ := b.Tree.Schema.Lookup(cct.MetricGPUTime)
	b.Tree.AddMetric(b.Tree.InsertPath([]cct.Frame{cct.OperatorFrame("aten::extra")}), gid, 9)

	single := saveBytes(t, Entry{Profile: a})
	ps, err := PlanBundle(single)
	if err != nil {
		t.Fatal(err)
	}
	if enc := ps.Records[0].Encoded(); &enc[0] != &single[0] || len(enc) != len(single) {
		t.Fatal("a single-profile body must be handed on as is, not copied or re-encoded")
	}
	ps.Release()

	bundle := saveBytes(t, Entry{Name: "first", Profile: a}, Entry{Name: "second", Profile: b})
	ps, err = PlanBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Release()
	for i, want := range []*profiler.Profile{a, b} {
		rec := &ps.Records[i]
		enc := rec.Encoded()
		if !bytes.Contains(bundle, enc[len(enc)-len(rec.record):]) {
			t.Fatalf("record %d: the record is not the received bytes", i)
		}
		back, err := DecodeBundle(enc)
		if err != nil || len(back) != 1 {
			t.Fatalf("record %d: standalone form: %v, %d entries", i, err, len(back))
		}
		if back[0].Name != rec.Name || Checksum(back[0].Profile) != Checksum(want) {
			t.Fatalf("record %d: standalone form decodes to a different profile", i)
		}
	}
}

// Metric arrays are carved from shared blocks; growing one (the delta
// decoder appends to them) must not reach into its neighbour.
func TestDecodedMetricArraysDoNotAlias(t *testing.T) {
	p := decodeAll(t, saveBytes(t, Entry{Profile: sampleProfile()}))[0].Profile
	want := Checksum(p)
	p.Tree.Visit(func(n *cct.Node) {
		if len(n.Excl) != cap(n.Excl) || len(n.Incl) != cap(n.Incl) {
			t.Fatalf("%s: metric array has spare capacity (%d/%d, %d/%d)", n.Label(), len(n.Excl), cap(n.Excl), len(n.Incl), cap(n.Incl))
		}
		_ = append(n.Excl, cct.Metric{Sum: 1e9, Count: 1})
	})
	if Checksum(p) != want {
		t.Fatal("appending to one node's metrics changed another's")
	}
}

// Hand-assembled records, so each structural rule can be broken alone.

// rawNode is a v5 node; append a slot count to it (0 for none) for a v4
// node's inclusive section.
func rawNode(parent uint64, kind cct.FrameKind, name uint64, slots ...byte) []byte {
	b := binary.AppendUvarint(nil, parent)
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, name) // name
	b = append(b, 0, 0, 0, 0)         // file "", line 0, lib "", pc 0
	b = binary.AppendUvarint(b, uint64(len(slots)))
	return append(b, slots...) // excl: only empty (0) or invalid markers fit in one byte
}

// v4Node is rawNode as a v4 node with the given inclusive slots.
func v4Node(parent uint64, kind cct.FrameKind, name uint64, excl, incl []byte) []byte {
	b := rawNode(parent, kind, name, excl...)
	b = binary.AppendUvarint(b, uint64(len(incl)))
	return append(b, incl...)
}

func rawRecord(nodes ...[]byte) []byte {
	b := make([]byte, 22)    // name, 5 meta strings, iterations, 14 counters, footprint: all empty or zero
	b = append(b, 1, 1, 'm') // one metric
	b = append(b, 0)         // no fused operators
	b = append(b, 2, 0, 2, 'o', 'p')
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = append(b, n...)
	}
	return b
}

func rawDatabase(records ...[]byte) []byte { return rawDatabaseAs(FormatMagic, records...) }

func rawDatabaseAs(magic string, records ...[]byte) []byte {
	b := binary.AppendUvarint([]byte(magic), uint64(len(records)))
	for _, r := range records {
		b = binary.AppendUvarint(b, uint64(len(r)))
		b = append(b, r...)
	}
	return b
}

func TestV4StructuralValidation(t *testing.T) {
	root := rawNode(0, cct.KindRoot, 0, 0)
	op := func(parent uint64) []byte { return rawNode(parent, cct.KindOperator, 1) }
	good := rawDatabase(rawRecord(root, op(1), op(2)))
	entries, err := DecodeBundle(good)
	if err != nil {
		t.Fatalf("hand-assembled baseline rejected: %v", err)
	}
	if got := entries[0].Profile.Tree.NodeCount(); got != 3 {
		t.Fatalf("baseline nodes = %d, want 3", got)
	}
	if n := len(entries[0].Profile.Tree.Root.Excl); n != 1 {
		t.Fatalf("an empty metric slot was not preserved: len(Excl) = %d", n)
	}
	// The same record as v4, each node with an inclusive section, reads to
	// the same tree: the inclusive slots are validated and dropped.
	v4 := rawDatabaseAs(formatMagicV4, rawRecord(
		v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{0}), v4Node(1, cct.KindOperator, 1, nil, nil), v4Node(2, cct.KindOperator, 1, nil, []byte{0})))
	old, err := DecodeBundle(v4)
	if err != nil {
		t.Fatalf("hand-assembled v4 baseline rejected: %v", err)
	}
	if !bytes.Equal(saveBytes(t, old...), saveBytes(t, entries...)) {
		t.Fatal("the v4 record reads to another tree than the v5 one")
	}

	huge := binary.AppendUvarint(nil, 1<<40)
	for name, data := range map[string][]byte{
		"second root":           rawDatabase(rawRecord(root, op(1), rawNode(0, cct.KindRoot, 0))),
		"parent is self":        rawDatabase(rawRecord(root, op(2))),
		"forward parent":        rawDatabase(rawRecord(root, op(3), op(1))),
		"first node not root":   rawDatabase(rawRecord(op(0))),
		"first node has parent": rawDatabase(rawRecord(rawNode(1, cct.KindRoot, 0))),
		"no nodes":              rawDatabase(rawRecord()),
		"kind out of range":     rawDatabase(rawRecord(root, rawNode(1, 200, 1))),
		"string index":          rawDatabase(rawRecord(root, rawNode(1, cct.KindOperator, 2))),
		"slot marker":           rawDatabase(rawRecord(rawNode(0, cct.KindRoot, 0, 7))),
		"trailing in record":    rawDatabase(append(rawRecord(root), 0)),
		"trailing in database":  append(rawDatabase(rawRecord(root)), 0),
		"record overruns":       append(appendHeader(nil, 1), append(huge, rawRecord(root)...)...),
		"record cut short":      rawDatabase(rawRecord(root, op(1))[:40]),
		"no profiles":           appendHeader(nil, 0),
		"profile count":         append(append([]byte(FormatMagic), huge...), rawRecord(root)...),
		"node count":            rawDatabase(append(rawRecord()[:len(rawRecord())-1], huge...)),
		"slot count":            rawDatabase(rawRecord(append(rawNode(0, cct.KindRoot, 0)[:7], huge...))),
		"string count":          rawDatabase(append(append(make([]byte, 22), 0, 0), huge...)),
		"overlong varint":       rawDatabase(bytes.Repeat([]byte{0xff}, 40)),
		"non-minimal varint":    nonMinimalVarint(),
		"magic only":            []byte(FormatMagic),
		// A v4 node behind the v5 magic: its inclusive section is read as
		// trailing bytes or as the next node, and either way refused.
		"v5 root with an inclusive section":  rawDatabase(rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{0}))),
		"v5 nodes with inclusive sections":   rawDatabase(rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, nil), v4Node(1, cct.KindOperator, 1, nil, nil))),
		"v4 node without its inclusive part": rawDatabaseAs(formatMagicV4, rawRecord(root)),
		"v4 inclusive slot marker":           rawDatabaseAs(formatMagicV4, rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{7}))),
		"v4 inclusive slot count":            rawDatabaseAs(formatMagicV4, rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{0, 0}))),
	} {
		if _, err := DecodeBundle(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// Every truncation and every single-bit flip of a valid database either
// fails as corrupt or decodes to a well-formed profile — never a panic.
func TestV4TruncationsAndBitFlips(t *testing.T) {
	full := saveBytes(t, Entry{Name: "a", Profile: sampleProfile()}, Entry{Name: "b", Profile: sampleProfile()})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeBundle(full[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d of %d: err = %v, want ErrCorrupt", cut, len(full), err)
		}
	}
	mut := make([]byte, len(full))
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			copy(mut, full)
			mut[i] ^= 1 << bit
			entries, err := DecodeBundle(mut)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip byte %d bit %d: untyped error %v", i, bit, err)
				}
				continue
			}
			for _, e := range entries {
				if e.Profile == nil || e.Profile.Tree == nil {
					t.Fatalf("flip byte %d bit %d: accepted a nil profile", i, bit)
				}
			}
		}
	}
}

// nonMinimalVarint is a valid single-node database but for its record's
// iteration count, spelled 0x80 0x00: zero in two bytes, which the encoder
// never writes.
func nonMinimalVarint() []byte {
	rec := rawRecord(rawNode(0, cct.KindRoot, 0, 0))
	rec = append(append(append([]byte(nil), rec[:6]...), 0x80, 0x00), rec[7:]...)
	return rawDatabase(rec)
}

// fuzzSeedsV4 are the parser's seeds: v5 databases as the writer makes
// them, the committed v4 fixture, and hostile or malformed records of both
// versions.
func fuzzSeedsV4(tb testing.TB) [][]byte {
	single := saveBytes(tb, Entry{Profile: sampleProfile()})
	flipped := append([]byte(nil), single...)
	flipped[len(flipped)/2] ^= 0x10
	root := rawNode(0, cct.KindRoot, 0, 0)
	huge := binary.AppendUvarint(nil, 1<<40)
	v4, err := os.ReadFile(filepath.Join("testdata", "v4.dcp"))
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		v4,
		v4[:len(v4)/2],
		rawDatabaseAs(formatMagicV4, rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{0}), v4Node(1, cct.KindOperator, 1, nil, nil))),
		rawDatabase(rawRecord(v4Node(0, cct.KindRoot, 0, []byte{0}, []byte{0}))), // a v5 node with an inclusive section
		single,
		saveBytes(tb, Entry{Name: "a", Profile: sampleProfile()}, Entry{Name: "b", Profile: sampleProfile()}),
		single[:len(single)/2],
		single[:len(FormatMagic)+1],
		flipped,
		append([]byte(FormatMagic), huge...),  // hostile profile count
		append(appendHeader(nil, 1), huge...), // hostile record length
		rawDatabase(append(rawRecord()[:len(rawRecord())-1], huge...)),                                 // hostile node count
		rawDatabase(rawRecord(root, rawNode(0, cct.KindRoot, 0))),                                      // a second root
		rawDatabase(rawRecord(root, rawNode(3, cct.KindOperator, 1))),                                  // forward parent reference
		rawDatabase(rawRecord(root, rawNode(1, cct.KindOperator, 9))),                                  // string-table index out of range
		rawDatabase(rawRecord(root, rawNode(1, 200, 1))),                                               // kind out of range
		append(rawDatabase(rawRecord(root, rawNode(1, cct.KindOperator, 1))), 0xde, 0xad),              // trailing bytes
		rawDatabase(rawRecord(root, rawNode(1, cct.KindOperator, 1), rawNode(1, cct.KindOperator, 1))), // duplicate siblings unify
		nonMinimalVarint(),
	}
}

// heapDelta reports the bytes fn allocates, measured on the calling
// goroutine alone (the fuzz worker runs one input at a time).
func heapDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLoadV4 asserts the record parser's contract over arbitrary bytes
// behind a v5 or v4 magic (v5 when the input has neither): it never panics, it never allocates more than a small multiple
// of the input (hostile counts and lengths are checked against the bytes
// remaining before anything is sized from them), and whatever it accepts
// re-encodes to a database that decodes to an equivalent profile.
func FuzzLoadV4(f *testing.F) {
	for _, seed := range fuzzSeedsV4(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !hasMagic(data) {
			data = append([]byte(FormatMagic), data...)
		}
		var entries []Entry
		var err error
		// The dearest input is a tree of distinct ten-byte nodes: each buys
		// a cct node, its child index, and an interner entry — measured at
		// 80 bytes allocated per input byte. A slot buys 48 per byte. The
		// constant covers an empty tree and the error value.
		if got, limit := heapDelta(func() { entries, err = DecodeBundle(data) }), uint64(128*len(data)+16<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(entries) == 0 {
			t.Fatal("nil error but no entries")
		}
		again, err := DecodeBundle(saveBytes(t, entries...))
		if err != nil {
			t.Fatalf("accepted database does not survive re-encoding: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
		}
		for i := range entries {
			if entries[i].Profile == nil || entries[i].Profile.Tree == nil {
				t.Fatalf("accepted entry %d has no tree", i)
			}
			if again[i].Name != entries[i].Name {
				t.Fatalf("entry %d: name %q -> %q", i, entries[i].Name, again[i].Name)
			}
			if err := equivalentBits(entries[i].Profile.Tree, again[i].Profile.Tree); err != nil {
				t.Fatalf("entry %d: re-encoded tree differs: %v", i, err)
			}
		}
	})
}

// equivalentBits is cct.Equivalent for trees that may hold NaNs (fuzzed
// inputs): checksums compare float bits, so NaN equals itself.
func equivalentBits(a, b *cct.Tree) error {
	if Checksum(&profiler.Profile{Tree: a}) == Checksum(&profiler.Profile{Tree: b}) {
		return nil
	}
	return cct.Equivalent(a, b)
}
