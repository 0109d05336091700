// Profdb format version 4: the hand-written binary database. Everything
// that stores or ships a whole profile — .dcp files, /ingest bodies, WAL
// records, snapshot window bundles, full stream frames, forwards and
// partials between nodes — is this one encoding, written and read by plain
// bounds-checked code with no reflection.
//
//	database := magic uvarint(nProfiles) { uvarint(len(record)) record }
//	record   := str(name)
//	            str(workload) str(framework) str(vendor) str(device) str(substrate) varint(iterations)
//	            6 × varint (profiler.Stats)  8 × varint (dlmonitor.Stats)  varint(footprintBytes)
//	            uvarint(nMetrics) { str }
//	            uvarint(nFused) { str(key) uvarint(nOrigins) { str(name) uvarint(nFrames) { str(file) varint(line) str(func) } } }
//	            uvarint(nStrings) { str }
//	            uvarint(nNodes) { node }
//	node     := uvarint(parent+1) byte(kind) uvarint(name) uvarint(file) varint(line) uvarint(lib) uvarint(pc)
//	            uvarint(nExcl) { slot } uvarint(nIncl) { slot }
//	slot     := 0x00 | 0x01 float(sum) float(min) float(max) varint(count) float(mean) float(m2)
//	str      := uvarint(len) bytes
//	float    := uvarint(byte-reversed IEEE-754 bits)
//
// A record is self-contained: its frame strings live in its own string
// table (name, file and lib are table indices, in first-use order), so one
// record can be cut out of a bundle and logged or forwarded behind a fresh
// header without re-encoding. Nodes are in DFS pre-order; node 0 is the
// root (parent+1 == 0), every other node names an earlier node. Fused
// origins are written in sorted key order, which makes the encoding a pure
// function of the profile. Floats reverse their bytes before the varint, as
// gob does, so the integer-valued sums profiles are full of take two or
// three bytes instead of nine.
package profdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"deepcontext/internal/cct"
	"deepcontext/internal/dlmonitor"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
	"deepcontext/internal/pyruntime"
)

// minNodeBytes is the smallest encoded node: parent, kind, three string
// indices, line, pc and two slot counts, one byte each. Counts read off the
// wire are checked against the bytes that remain at these minimum sizes
// before anything is allocated for them.
const minNodeBytes = 9

// minRecordBytes is a lower bound on one length-prefixed record: six
// strings, sixteen numbers, four counts and a root node.
const minRecordBytes = 32

// encoder holds the scratch one record is built in, reused across the
// records of a bundle. Node bytes go to a side buffer while the string table
// fills, because the table precedes the nodes on the wire.
type encoder struct {
	rec   []byte
	nodes []byte
	count uint64 // nodes written to the side buffer
	strs  map[string]uint64
	table []string
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

func appendMetrics(b []byte, ms []cct.Metric) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		if *m == (cct.Metric{}) {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = appendFloat(b, m.Sum)
		b = appendFloat(b, m.Min)
		b = appendFloat(b, m.Max)
		b = binary.AppendVarint(b, m.Count)
		b = appendFloat(b, m.Mean)
		b = appendFloat(b, m.M2)
	}
	return b
}

func (e *encoder) ref(s string) uint64 {
	id, ok := e.strs[s]
	if !ok {
		id = uint64(len(e.table))
		e.strs[s] = id
		e.table = append(e.table, s)
	}
	return id
}

// node appends n's subtree to the side buffer in DFS pre-order. parent is
// the parent's index plus one, zero for the root.
func (e *encoder) node(n *cct.Node, parent uint64) {
	e.count++
	self := e.count
	b := binary.AppendUvarint(e.nodes, parent)
	b = append(b, byte(n.Kind))
	b = binary.AppendUvarint(b, e.ref(n.Name))
	b = binary.AppendUvarint(b, e.ref(n.File))
	b = binary.AppendVarint(b, int64(n.Line))
	b = binary.AppendUvarint(b, e.ref(n.Lib))
	b = binary.AppendUvarint(b, n.PC)
	b = appendMetrics(b, n.Excl)
	e.nodes = appendMetrics(b, n.Incl)
	for _, c := range n.Children() {
		e.node(c, self)
	}
}

// record encodes one profile into e.rec.
func (e *encoder) record(name string, p *profiler.Profile) {
	b := e.rec[:0]
	b = appendStr(b, name)
	b = appendStr(b, p.Meta.Workload)
	b = appendStr(b, p.Meta.Framework)
	b = appendStr(b, p.Meta.Vendor)
	b = appendStr(b, p.Meta.Device)
	b = appendStr(b, p.Meta.Substrate)
	b = binary.AppendVarint(b, int64(p.Meta.Iterations))
	for _, v := range statsFields(&p.Stats, &p.MonitorStats) {
		b = binary.AppendVarint(b, *v)
	}
	b = binary.AppendVarint(b, p.FootprintBytes)

	names := p.Tree.Schema.Names()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = appendStr(b, n)
	}

	keys := make([]string, 0, len(p.Fused))
	for k := range p.Fused {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendStr(b, k)
		origins := p.Fused[k]
		b = binary.AppendUvarint(b, uint64(len(origins)))
		for i := range origins {
			b = appendStr(b, origins[i].Name)
			b = binary.AppendUvarint(b, uint64(len(origins[i].PyPath)))
			for _, f := range origins[i].PyPath {
				b = appendStr(b, f.File)
				b = binary.AppendVarint(b, int64(f.Line))
				b = appendStr(b, f.Func)
			}
		}
	}

	clear(e.strs)
	e.table, e.nodes, e.count = e.table[:0], e.nodes[:0], 0
	e.node(p.Tree.Root, 0)

	b = binary.AppendUvarint(b, uint64(len(e.table)))
	for _, s := range e.table {
		b = appendStr(b, s)
	}
	b = binary.AppendUvarint(b, e.count)
	e.rec = append(b, e.nodes...)
}

// statsFields lists the counter fields of both stats blocks in wire order.
func statsFields(s *profiler.Stats, m *dlmonitor.Stats) [14]*int64 {
	return [14]*int64{
		&s.APICallbacks, &s.ActivitiesHandled, &s.SamplesAttributed, &s.CPUSamples, &s.OpsTimed, &s.DroppedActivities,
		&m.OpsIntercepted, &m.GPUEvents, &m.PathsBuilt, &m.CacheHits, &m.CacheMisses, &m.UnwindSteps, &m.FwdPathsRecorded, &m.BwdAssociations,
	}
}

// appendHeader starts a database of n records.
func appendHeader(b []byte, n int) []byte {
	b = append(b, FormatMagic...)
	return binary.AppendUvarint(b, uint64(n))
}

// encoders recycles record scratch: a server encodes one profile per delta
// frame and per exported partial, and growing three buffers and a string
// map from nothing each time cost more than the encoding itself.
var encoders = sync.Pool{New: func() any { return &encoder{strs: make(map[string]uint64, 256)} }}

// EncodeBundle returns the named profiles as one database.
func EncodeBundle(entries []Entry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("profdb: empty bundle")
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	var out []byte
	for i, en := range entries {
		if en.Profile == nil || en.Profile.Tree == nil {
			return nil, fmt.Errorf("profdb: nil profile in bundle entry %q", en.Name)
		}
		e.record(en.Name, en.Profile)
		if i == 0 {
			// Exact for a single profile; for a bundle, a guess that its
			// records are alike (a window's series usually are).
			out = make([]byte, 0, len(FormatMagic)+binary.MaxVarintLen64+len(entries)*(binary.MaxVarintLen64+len(e.rec)))
			out = appendHeader(out, len(entries))
		}
		out = binary.AppendUvarint(out, uint64(len(e.rec)))
		out = append(out, e.rec...)
	}
	return out, nil
}

// reader is a bounds-checked cursor over untrusted bytes with a sticky
// error: after the first failure every read returns zero, so decoding code
// checks r.err at record and node granularity instead of after each field.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// uvarintAt decodes the uvarint at b[off:] and returns it with the offset
// just past it, or a negative offset when it is truncated or overflows 64
// bits. The metric loop calls this directly: six numbers per slot over
// thousands of slots is where decoding spends its time.
func uvarintAt(b []byte, off int) (uint64, int) {
	var v uint64
	var shift uint
	for i := off; i < len(b); i++ {
		c := b[i]
		last := i-off == binary.MaxVarintLen64-1
		if c < 0x80 {
			if last && c > 1 {
				return 0, -1
			}
			return v | uint64(c)<<shift, i + 1
		}
		if last {
			return 0, -1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, -1
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, next := uvarintAt(r.b, r.off)
	if next < 0 {
		r.fail("truncated or overlong varint at byte %d", r.off)
		return 0
	}
	r.off = next
	return v
}

func unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) varint() int64 { return unzigzag(r.uvarint()) }

func floatOf(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// take returns the next n bytes without copying.
func (r *reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("length %d at byte %d exceeds the %d bytes remaining", n, r.off, r.remaining())
		return nil
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *reader) str() string { return string(r.take(r.uvarint())) }

// count reads an element count and checks it against the bytes remaining,
// given that each element occupies at least minBytes — the guard that keeps
// a hostile count from sizing an allocation.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.fail("%d %s at byte %d cannot fit in the %d bytes remaining", n, what, r.off, r.remaining())
		return 0
	}
	return int(n)
}

// metricSlab hands out metric arrays carved from shared blocks, so a
// decoded tree costs a handful of allocations instead of two per node.
// Arrays are capacity-limited to their length: appending to one (the delta
// decoder grows them) reallocates instead of running into its neighbour.
type metricSlab struct{ free []cct.Metric }

// slabBlock keeps a block (48 B per metric) under the allocator's 32 KiB
// large-object threshold.
const slabBlock = 512

func (s *metricSlab) take(n, remaining int) []cct.Metric {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		// Every slot still to come occupies at least one input byte, which
		// bounds the block — and so total slab memory — by the input size.
		block := min(slabBlock, remaining)
		s.free = make([]cct.Metric, max(n, block))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// slotCount reads a node's metric slot count. A slot beyond the record's
// metric names would measure no metric, so names bounds it.
func (r *reader) slotCount(names int) int {
	n := r.count("metric slots", 1)
	if n > names {
		r.fail("%d metric slots for %d metric names before byte %d", n, names, r.off)
		return 0
	}
	return n
}

// slots decodes len(ms) metric slots into ms, which the caller zeroed.
func (r *reader) slots(ms []cct.Metric) {
	if r.err != nil {
		return
	}
	b, off := r.b, r.off
	for i := range ms {
		if off >= len(b) {
			r.fail("truncated metric slot at byte %d", off)
			return
		}
		marker := b[off]
		off++
		if marker == 0 {
			continue
		}
		var v [6]uint64
		if marker == 1 {
			for k := range v {
				if v[k], off = uvarintAt(b, off); off < 0 {
					break
				}
			}
		}
		if marker != 1 || off < 0 {
			r.fail("bad metric slot %d before byte %d", i, r.off)
			return
		}
		ms[i] = cct.Metric{Sum: floatOf(v[0]), Min: floatOf(v[1]), Max: floatOf(v[2]), Count: unzigzag(v[3]), Mean: floatOf(v[4]), M2: floatOf(v[5])}
	}
	r.off = off
}

func (r *reader) metrics(slab *metricSlab, names int) []cct.Metric {
	ms := slab.take(r.slotCount(names), r.remaining())
	r.slots(ms)
	return ms
}

// checkNode holds node i to the record's structure: node 0, and only node
// 0, is a root; every other node names an earlier node as its parent
// (parent is that index plus one) and has a valid kind.
func (r *reader) checkNode(i int, parent uint64, kind cct.FrameKind) {
	switch {
	case i == 0 && (parent != 0 || kind != cct.KindRoot):
		r.fail("node 0 is not a root")
	case i == 0:
	case parent == 0:
		r.fail("node %d is a second root", i)
	case parent > uint64(i):
		r.fail("node %d names parent %d, which does not precede it", i, parent-1)
	case !kind.Valid():
		r.fail("node %d has invalid frame kind %d", i, kind)
	}
}

// decodeRecord decodes one record, which must fill rec exactly.
func decodeRecord(rec []byte) (string, *profiler.Profile, error) {
	r := &reader{b: rec}
	name := r.str()
	p := &profiler.Profile{}
	p.Meta = profiler.Meta{Workload: r.str(), Framework: r.str(), Vendor: r.str(), Device: r.str(), Substrate: r.str(), Iterations: int(r.varint())}
	for _, v := range statsFields(&p.Stats, &p.MonitorStats) {
		*v = r.varint()
	}
	p.FootprintBytes = r.varint()

	tree := cct.New()
	names := r.count("metric names", 1)
	for i := 0; i < names; i++ {
		name := r.str()
		if _, dup := tree.Schema.Lookup(name); dup && r.err == nil {
			r.fail("metric name %q appears twice", name)
		}
		tree.Schema.ID(name)
	}

	if n := r.count("fused operators", 2); n > 0 {
		p.Fused = make(map[string][]framework.FusedOrigin, n)
		for i := 0; i < n && r.err == nil; i++ {
			key := r.str()
			var origins []framework.FusedOrigin
			if m := r.count("fused origins", 2); m > 0 {
				origins = make([]framework.FusedOrigin, m)
			}
			for j := range origins {
				origins[j].Name = r.str()
				if m := r.count("python frames", 3); m > 0 {
					origins[j].PyPath = make([]pyruntime.Frame, m)
					for k := range origins[j].PyPath {
						origins[j].PyPath[k] = pyruntime.Frame{File: r.str(), Line: int(r.varint()), Func: r.str()}
					}
				}
			}
			p.Fused[key] = origins
		}
	}

	table := make([]string, r.count("strings", 1))
	for i := range table {
		table[i] = r.str()
	}
	ref := func() string {
		i := r.uvarint()
		if i >= uint64(len(table)) {
			r.fail("string reference %d outside a %d-entry table", i, len(table))
			return ""
		}
		return table[i]
	}

	nodes := make([]*cct.Node, r.count("nodes", minNodeBytes))
	if len(nodes) == 0 {
		r.fail("record has no root node")
	}
	var slab metricSlab
	for i := range nodes {
		parent := r.uvarint()
		f := cct.Frame{Kind: cct.FrameKind(r.byte())}
		f.Name, f.File, f.Line, f.Lib, f.PC = ref(), ref(), int(r.varint()), ref(), r.uvarint()
		excl := r.metrics(&slab, names)
		incl := r.metrics(&slab, names)
		if r.checkNode(i, parent, f.Kind); r.err != nil {
			break
		}
		if i == 0 {
			nodes[0] = tree.Root
		} else {
			before := tree.NodeCount()
			nodes[i] = tree.InsertUnder(nodes[parent-1], []cct.Frame{f})
			if tree.NodeCount() == before {
				// Merging the two would let the second's slots overwrite
				// the first's; the encoder never writes such siblings.
				r.fail("node %d unifies with an earlier sibling", i)
				break
			}
		}
		nodes[i].Excl, nodes[i].Incl = excl, incl
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes in record", r.remaining())
	}
	if r.err != nil {
		return "", nil, r.err
	}
	p.Tree = tree
	return name, p, nil
}

// decodeV4 decodes a v4 database (data begins with FormatMagic). Each entry
// keeps the record bytes it was decoded from; see Entry.Encoded.
func decodeV4(data []byte) ([]Entry, error) {
	r := &reader{b: data, off: len(FormatMagic)}
	n := r.count("profiles", minRecordBytes)
	if r.err == nil && n == 0 {
		r.fail("bundle has no profiles")
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		rec := r.take(r.uvarint())
		if r.err != nil {
			break
		}
		name, p, err := decodeRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("profdb: record %d: %w", i, err)
		}
		out = append(out, Entry{Name: name, Profile: p, record: rec})
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes after the last record", r.remaining())
	}
	if r.err != nil {
		return nil, fmt.Errorf("profdb: %w", r.err)
	}
	if n == 1 {
		out[0].body = data
	}
	return out, nil
}
