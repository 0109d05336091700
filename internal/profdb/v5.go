// Profdb format version 5: the hand-written binary database. Everything
// that stores or ships a whole profile — .dcp files, /ingest bodies, WAL
// records, snapshot window bundles, full stream frames, forwards and
// partials between nodes — is this one encoding, written and read by plain
// bounds-checked code with no reflection, over the primitives of package
// wire.
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
//	            uvarint(nExcl) { slot }
//	slot     := 0x00 | 0x01 float(sum) float(min) float(max) varint(count) float(mean) float(m2)
//	str      := uvarint(len) bytes
//	float    := uvarint(byte-reversed IEEE-754 bits)
//	uvarint  := minimal base-128 varint; varint := zigzag uvarint
//
// A node carries its exclusive slots only. Its inclusive aggregates are a
// pure function of the exclusive ones below it, so a reader that needs them
// derives them (cct.Tree.DeriveInclusive) instead of decoding a stored copy.
// Version 4 is the same grammar with magic DEEPCONTEXT-PROFDB-4 and a node
// that ends in uvarint(nIncl) { slot } as well; it is still read, and its
// inclusive slots are validated and skipped. Only v5 is written.
//
// A record is self-contained: its frame strings live in its own string
// table (name, file and lib are table indices, in first-use order), so one
// record can be cut out of a bundle and logged or forwarded behind a fresh
// header without re-encoding. Nodes are in DFS pre-order; node 0 is the
// root (parent+1 == 0), every other node names an earlier node. Fused
// origins are written in sorted key order, which makes the encoding a pure
// function of the profile.
package profdb

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"deepcontext/internal/cct"
	"deepcontext/internal/dlmonitor"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
	"deepcontext/internal/pyruntime"
	"deepcontext/internal/wire"
)

// minNodeBytes is the smallest encoded node: parent, kind, three string
// indices, line, pc and a slot count, one byte each (a v4 node has one
// more). Counts read off the wire are checked against the bytes that
// remain at these minimum sizes before anything is allocated for them.
const minNodeBytes = 8

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

func appendMetrics(b []byte, ms []cct.Metric) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for i := range ms {
		m := &ms[i]
		if *m == (cct.Metric{}) {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = wire.AppendFloat(b, m.Sum)
		b = wire.AppendFloat(b, m.Min)
		b = wire.AppendFloat(b, m.Max)
		b = binary.AppendVarint(b, m.Count)
		b = wire.AppendFloat(b, m.Mean)
		b = wire.AppendFloat(b, m.M2)
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
	e.nodes = appendMetrics(b, n.Excl)
	for _, c := range n.Children() {
		e.node(c, self)
	}
}

// record encodes one profile into e.rec.
func (e *encoder) record(name string, p *profiler.Profile) {
	b := e.rec[:0]
	b = wire.AppendStr(b, name)
	b = wire.AppendStr(b, p.Meta.Workload)
	b = wire.AppendStr(b, p.Meta.Framework)
	b = wire.AppendStr(b, p.Meta.Vendor)
	b = wire.AppendStr(b, p.Meta.Device)
	b = wire.AppendStr(b, p.Meta.Substrate)
	b = binary.AppendVarint(b, int64(p.Meta.Iterations))
	for _, v := range statsFields(&p.Stats, &p.MonitorStats) {
		b = binary.AppendVarint(b, *v)
	}
	b = binary.AppendVarint(b, p.FootprintBytes)

	names := p.Tree.Schema.Names()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = wire.AppendStr(b, n)
	}

	keys := make([]string, 0, len(p.Fused))
	for k := range p.Fused {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = wire.AppendStr(b, k)
		origins := p.Fused[k]
		b = binary.AppendUvarint(b, uint64(len(origins)))
		for i := range origins {
			b = wire.AppendStr(b, origins[i].Name)
			b = binary.AppendUvarint(b, uint64(len(origins[i].PyPath)))
			for _, f := range origins[i].PyPath {
				b = wire.AppendStr(b, f.File)
				b = binary.AppendVarint(b, int64(f.Line))
				b = wire.AppendStr(b, f.Func)
			}
		}
	}

	clear(e.strs)
	e.table, e.nodes, e.count = e.table[:0], e.nodes[:0], 0
	e.node(p.Tree.Root, 0)

	b = binary.AppendUvarint(b, uint64(len(e.table)))
	for _, s := range e.table {
		b = wire.AppendStr(b, s)
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

// appendHeader starts a v5 database of n records.
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

// eachRecord walks a v5 or v4 database (the two magics are the same
// length), handing each record's bytes to visit in order, and checks the
// framing around them: at least one record, each inside the database,
// nothing after the last.
func eachRecord(data []byte, visit func(rec []byte) error) error {
	r := wire.NewReader(data, len(FormatMagic), ErrCorrupt)
	n := r.Count("profiles", minRecordBytes)
	if r.Err() == nil && n == 0 {
		r.Fail("bundle has no profiles")
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		if rec := r.Bytes(); r.Err() == nil {
			if err := visit(rec); err != nil {
				return fmt.Errorf("profdb: record %d: %w", i, err)
			}
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("profdb: %w", err)
	}
	return nil
}

// nodeSink receives one record from the parser: its metric names in order,
// then its nodes in DFS pre-order, each with the index of its parent in add
// order (the root's is -1) and metric slots decoded into zeroed buffers
// that Slots handed out. A *cct.Plan is one sink (PlanBundle, the served
// path, which builds no tree); a treeBuilder is the other (DecodeBundle).
type nodeSink interface {
	AddName(name string) error
	Slots(n int) []cct.Metric
	Add(parent int, f cct.Frame, excl []cct.Metric) error
}

// recordReader is the one record parser, for v5 and v4 alike: a single
// bounds-checked pass validates a record and feeds it to a nodeSink.
// Every string ahead of the nodes — name, metadata, metric names, the
// frame string table — comes from one allocation: those bytes become one
// Go string, and the strings are slices of it. Its scratch is reused from
// record to record.
type recordReader struct {
	wire.Reader
	// v4 is set while reading v4 records, whose nodes end in inclusive
	// slots: they are validated into skip and dropped, and v5 receives the
	// record's v5 form, all of it but those slots.
	v4    bool
	v5    []byte
	skip  []cct.Metric
	spans [][2]int
	table []string
	nodes int // node count of the record being read
}

// record reads one record, which must fill rec exactly, and returns its
// name. Its metadata, both stats blocks and its footprint go to p, its
// fused operators too when fused is set, and its metric names and nodes
// to s.
func (rr *recordReader) record(rec []byte, p *profiler.Profile, fused bool, s nodeSink) (string, error) {
	rr.Reader = wire.NewReader(rec, 0, ErrCorrupt)
	spans := rr.spans[:0]
	for i := 0; i < 6; i++ { // name, workload, framework, vendor, device, substrate
		spans = append(spans, rr.span())
	}
	iterations := rr.Varint()
	for _, v := range statsFields(&p.Stats, &p.MonitorStats) {
		*v = rr.Varint()
	}
	p.FootprintBytes = rr.Varint()
	names := rr.Count("metric names", 1)
	spans = slices.Grow(spans, names)
	for i := 0; i < names; i++ {
		spans = append(spans, rr.span())
	}
	p.Fused = rr.fused(fused)
	strs := rr.Count("strings", 1)
	spans = slices.Grow(spans, strs)
	for i := 0; i < strs; i++ {
		spans = append(spans, rr.span())
	}
	rr.spans = spans
	if rr.Err() != nil {
		return "", rr.Err()
	}

	head := string(rec[:rr.Offset()])
	str := func(i int) string { return head[spans[i][0]:spans[i][1]] }
	p.Meta = profiler.Meta{Workload: str(1), Framework: str(2), Vendor: str(3), Device: str(4), Substrate: str(5), Iterations: int(iterations)}
	for i := 0; i < names; i++ {
		if err := s.AddName(str(6 + i)); err != nil {
			rr.Fail("%v", err)
			return "", rr.Err()
		}
	}
	table := slices.Grow(rr.table[:0], strs)
	for i := 0; i < strs; i++ {
		table = append(table, str(6+names+i))
	}
	rr.table = table

	rr.nodes = rr.Count("nodes", minNodeBytes)
	if rr.nodes == 0 {
		rr.Fail("record has no root node")
	}
	if rr.v4 {
		rr.v5 = append(slices.Grow(rr.v5[:0], len(rec)), rec[:rr.Offset()]...)
	}
	for i := 0; i < rr.nodes; i++ {
		start := rr.Offset()
		parent := rr.Uvarint()
		f := cct.Frame{Kind: cct.FrameKind(rr.Byte())}
		f.Name, f.File, f.Line, f.Lib, f.PC = rr.ref(), rr.ref(), int(rr.Varint()), rr.ref(), rr.Uvarint()
		excl := rr.slots(s.Slots(rr.slotCount(names)))
		if rr.v4 {
			rr.v5 = append(rr.v5, rec[start:rr.Offset()]...)
			n := rr.slotCount(names)
			rr.skip = slices.Grow(rr.skip[:0], n)[:n]
			clear(rr.skip)
			rr.slots(rr.skip)
		}
		if rr.checkNode(i, parent, f.Kind); rr.Err() != nil {
			break
		}
		if err := s.Add(int(parent)-1, f, excl); err != nil {
			rr.Fail("%v", err)
			break
		}
	}
	if err := rr.End(); err != nil {
		return "", err
	}
	return str(0), nil
}

// span reads one str and returns where its bytes lie in the record.
func (rr *recordReader) span() [2]int {
	n := rr.Uvarint()
	start := rr.Offset()
	rr.Take(n)
	return [2]int{start, rr.Offset()}
}

// ref reads a frame string as its index in the record's string table.
func (rr *recordReader) ref() string {
	i := rr.Uvarint()
	if i >= uint64(len(rr.table)) {
		rr.Fail("string reference %d outside a %d-entry table", i, len(rr.table))
		return ""
	}
	return rr.table[i]
}

// fused reads the fused-operator section, building its map only when keep
// is set: a plan has no use for it.
func (rr *recordReader) fused(keep bool) map[string][]framework.FusedOrigin {
	str := func() string {
		if b := rr.Bytes(); keep {
			return string(b)
		}
		return ""
	}
	var out map[string][]framework.FusedOrigin
	for i, n := 0, rr.Count("fused operators", 2); i < n && rr.Err() == nil; i++ {
		key := str()
		var origins []framework.FusedOrigin
		for j, m := 0, rr.Count("fused origins", 2); j < m; j++ {
			o := framework.FusedOrigin{Name: str()}
			for k, l := 0, rr.Count("python frames", 3); k < l; k++ {
				f := pyruntime.Frame{File: str(), Line: int(rr.Varint()), Func: str()}
				if keep {
					o.PyPath = append(o.PyPath, f)
				}
			}
			if keep {
				origins = append(origins, o)
			}
		}
		if keep {
			if out == nil {
				out = make(map[string][]framework.FusedOrigin, n)
			}
			out[key] = origins
		}
	}
	return out
}

// slotCount reads a node's metric slot count: a slot beyond the record's
// metric names would measure no metric, so names bounds it.
func (rr *recordReader) slotCount(names int) int {
	n := rr.Count("metric slots", 1)
	if n > names {
		rr.Fail("%d metric slots for %d metric names before byte %d", n, names, rr.Offset())
		return 0
	}
	return n
}

// slots decodes len(ms) slots into ms, which must be zeroed, and returns
// it. Six numbers per slot over thousands of slots is where parsing spends
// its time, so the loop reads the bytes directly.
func (rr *recordReader) slots(ms []cct.Metric) []cct.Metric {
	b, off := rr.Rest(), 0
	for i := range ms {
		if off >= len(b) {
			rr.Fail("truncated metric slot at byte %d", rr.Offset()+off)
			return nil
		}
		marker := b[off]
		off++
		if marker == 0 {
			continue
		}
		var v [6]uint64
		if marker == 1 {
			for k := range v {
				if v[k], off = wire.UvarintAt(b, off); off < 0 {
					break
				}
			}
		}
		if marker != 1 || off < 0 {
			rr.Fail("bad metric slot %d after byte %d", i, rr.Offset())
			return nil
		}
		ms[i] = cct.Metric{Sum: wire.Float(v[0]), Min: wire.Float(v[1]), Max: wire.Float(v[2]), Count: wire.Unzigzag(v[3]), Mean: wire.Float(v[4]), M2: wire.Float(v[5])}
	}
	rr.Take(uint64(off))
	return ms
}

// checkNode holds node i to the record's structure: node 0, and only node
// 0, is a root; every other node names an earlier node as its parent
// (parent is that index plus one) and has a valid kind.
func (rr *recordReader) checkNode(i int, parent uint64, kind cct.FrameKind) {
	switch {
	case i == 0 && (parent != 0 || kind != cct.KindRoot):
		rr.Fail("node 0 is not a root")
	case i == 0:
	case parent == 0:
		rr.Fail("node %d is a second root", i)
	case parent > uint64(i):
		rr.Fail("node %d names parent %d, which does not precede it", i, parent-1)
	case !kind.Valid():
		rr.Fail("node %d has invalid frame kind %d", i, kind)
	}
}

// treeBuilder is the sink that builds a record's tree, for DecodeBundle:
// exclusive slots only, as stored.
type treeBuilder struct {
	tree  *cct.Tree
	rr    *recordReader
	nodes []*cct.Node // by add index
	slab  metricSlab
}

func (b *treeBuilder) AddName(name string) error {
	if _, dup := b.tree.Schema.Lookup(name); dup {
		return fmt.Errorf("metric name %q appears twice", name)
	}
	b.tree.Schema.ID(name)
	return nil
}

func (b *treeBuilder) Slots(n int) []cct.Metric { return b.slab.take(n, b.rr.Remaining()) }

func (b *treeBuilder) Add(parent int, f cct.Frame, excl []cct.Metric) error {
	n := b.tree.Root
	if b.nodes == nil {
		b.nodes = make([]*cct.Node, 0, b.rr.nodes)
	} else {
		before := b.tree.NodeCount()
		n = b.tree.InsertUnder(b.nodes[parent], []cct.Frame{f})
		if b.tree.NodeCount() == before {
			// Merging the two would let the second's slots overwrite the
			// first's; the encoder never writes such siblings.
			return fmt.Errorf("node %d unifies with an earlier sibling", len(b.nodes))
		}
	}
	n.Excl = excl
	b.nodes = append(b.nodes, n)
	return nil
}

// metricSlab hands out metric arrays carved from shared blocks, so a
// decoded tree costs a handful of allocations instead of one per node.
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
