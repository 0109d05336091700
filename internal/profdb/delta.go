// Profdb format version 3: streaming delta frames. Where a database
// serializes whole profiles, a v3 stream frame carries either a full
// single-profile database (the resync path) or only the subtrees whose
// exclusive metrics changed since the last acknowledged upload, addressed
// through a per-session exact-frame
// dictionary (cct.ExactInterner) so frame strings cross the wire once per
// session. Deltas are guarded both ways: a frame names the checksum of the
// base it was computed against (a desynced receiver fails with ErrStaleBase
// instead of silently diverging) and the checksum the materialized result
// must reach (a bad apply is detected, not ingested). The batch framing
// around the frames is still gob: a session amortizes the type descriptors
// over its connection, and a frame's bulk is either the opaque Full bytes
// or a few sparse entries. A v3-incapable path simply keeps POSTing full
// bundles.
package profdb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"deepcontext/internal/cct"
	"deepcontext/internal/dlmonitor"
	"deepcontext/internal/framework"
	"deepcontext/internal/profiler"
)

// FormatMagicV3 identifies one delta-stream frame.
const FormatMagicV3 = "DEEPCONTEXT-PROFDB-3"

// ErrStaleBase reports a delta frame whose base does not match the
// receiver's materialized profile (wrong epoch or sequence, checksum
// mismatch, or no base at all). The sender recovers by re-uploading a full
// profile under a new epoch.
var ErrStaleBase = errors.New("profdb: delta base mismatch")

// StreamBatch groups the frames one acknowledgement covers. A session is a
// gob stream of batches over one encoder, so type descriptors are sent
// once per connection.
type StreamBatch struct {
	Seq    uint64 // batch sequence within the session, starting at 1
	Frames []StreamFrame
	// Close signals a graceful session end; a closing batch carries no
	// frames.
	Close bool
}

// StreamFrame is one profile upload within a session: a full database
// (Delta false) or a delta against the last acknowledged profile of the
// same series (Delta true).
type StreamFrame struct {
	Magic string
	Delta bool
	// Epoch and Seq order uploads per series: the epoch bumps on every
	// resync (full upload), the sequence increments per frame within it. A
	// delta is applicable only to the frame exactly one sequence earlier.
	Epoch uint64
	Seq   uint64
	// Meta identifies the series and is applied wholesale (delta frames
	// replace the materialized profile's metadata with it).
	Meta profiler.Meta

	// Full is a single-profile database (see Save); set iff Delta is false.
	Full []byte

	// Delta payload. BaseSum is the checksum of the profile this delta was
	// encoded against; CurSum is the checksum the materialized result must
	// reach. NewFrames extends the session frame dictionary (IDs continue
	// from the receiver's current dictionary length); NewMetrics appends
	// schema names. Nodes is the changed-subtree forest in DFS order.
	BaseSum    uint64
	CurSum     uint64
	NewFrames  []cct.Frame
	NewMetrics []string
	Nodes      []DeltaNode

	// Profile fields replaced wholesale on apply (small next to the tree).
	Stats          profiler.Stats
	MonitorStats   dlmonitor.Stats
	Fused          map[string][]framework.FusedOrigin
	FootprintBytes int64
}

// MetricEntry is one sparse metric-array update: slot Idx becomes M.
// Aggregation is append-only, so between consecutive uploads most slots
// of most nodes are unchanged — sending only the changed (index, value)
// pairs is what makes a steady-state delta an order of magnitude smaller
// than the full profile, not merely smaller.
type MetricEntry struct {
	Idx int32
	M   cct.Metric
}

// DeltaNode is one emitted node: a changed node carries the sparse
// updates to its exclusive aggregates; an unchanged ancestor rides along
// entry-less, purely to address its descendants (or, for a new interior
// node, to exist — structure contributes to the checksum). Parent indexes
// into the frame's Nodes slice; the root is always Nodes[0] with Parent
// -1. Inclusive aggregates are not sent: they follow from the exclusive
// ones, and a receiver that needs them derives them.
type DeltaNode struct {
	Parent int32
	Frame  cct.FrameID // session-dictionary ID
	Excl   []MetricEntry
}

// Checksum fingerprints a profile's schema and tree — structure (preorder
// with child counts), unification keys, and every non-empty exclusive
// aggregate. Two profiles with equal checksums answer every store query
// identically; metric-array padding, frame fields outside the unification
// key and inclusive aggregates do not contribute, so a materialized delta
// checks equal to the sender's tree. (A profiler's propagated Welford pair
// can differ by rounding from one derived from the same exclusive slots,
// so hashing inclusive slots would mark sound deltas stale.)
func Checksum(p *profiler.Profile) uint64 {
	h := newDigest()
	names := p.Tree.Schema.Names()
	h.uint(uint64(len(names)))
	for _, n := range names {
		h.str(n)
	}
	var rec func(n *cct.Node)
	rec = func(n *cct.Node) {
		h.frame(n.Frame)
		h.uint(uint64(len(n.Children())))
		h.metrics(n.Excl)
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(p.Tree.Root)
	return h.sum
}

// frame hashes a frame's unification key without materializing the
// Frame.Key string — the checksum walk runs four times per delta frame
// across sender and receiver, so it must not allocate per node. The
// hashed components mirror Key()'s equivalence classes exactly.
func (d *digest) frame(f cct.Frame) {
	switch f.Kind {
	case cct.KindPython:
		d.byte('p')
		d.str(f.File)
		d.uint(uint64(int64(f.Line)))
	case cct.KindOperator:
		d.byte('o')
		d.str(f.Name)
	case cct.KindThread:
		d.byte('t')
		d.str(f.Name)
	case cct.KindInstruction:
		d.byte('i')
		d.uint(f.PC)
	case cct.KindNative, cct.KindGPUAPI, cct.KindKernel:
		d.byte('n')
		d.str(f.Lib)
		d.uint(f.PC)
	default:
		d.byte('r')
	}
}

// digest is an FNV-style xor-multiply mix, folding whole 64-bit words per
// step rather than bytes: the checksum walk visits every metric word of
// every node on both ends of a session, so word-at-a-time hashing is the
// difference between the walk being noise and being the delta path's
// dominant cost. Collision resistance only needs to catch desync and
// corruption, not adversaries.
type digest struct{ sum uint64 }

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) byte(b byte) {
	d.sum ^= uint64(b)
	d.sum *= 1099511628211
}

func (d *digest) str(s string) {
	d.uint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *digest) uint(v uint64) {
	d.sum = (d.sum ^ v) * 1099511628211
}

func (d *digest) metrics(ms []cct.Metric) {
	for i := range ms {
		if ms[i].Empty() {
			continue
		}
		d.uint(uint64(i))
		d.uint(math.Float64bits(ms[i].Sum))
		d.uint(math.Float64bits(ms[i].Min))
		d.uint(math.Float64bits(ms[i].Max))
		d.uint(uint64(ms[i].Count))
		d.uint(math.Float64bits(ms[i].Mean))
		d.uint(math.Float64bits(ms[i].M2))
	}
}

// DeltaEncoder is the sender half of a v3 session: it owns the session
// frame dictionary and turns (base, current) profile pairs into delta
// frames. One encoder per session; not safe for concurrent use.
type DeltaEncoder struct {
	dict *cct.ExactInterner
}

// NewDeltaEncoder returns an encoder with an empty session dictionary.
func NewDeltaEncoder() *DeltaEncoder {
	return &DeltaEncoder{dict: cct.NewExactInterner()}
}

// DictLen reports the session dictionary size. Sender and receiver
// dictionaries grow in lockstep while a session is healthy, so comparing
// lengths across an acknowledgement detects a desynced session (a lost
// batch, a restarted receiver) that per-frame checks cannot see.
func (e *DeltaEncoder) DictLen() int { return e.dict.Len() }

// EncodeFull builds a full (initial or resync) frame for p.
func (e *DeltaEncoder) EncodeFull(p *profiler.Profile, epoch, seq uint64) (StreamFrame, error) {
	full, err := EncodeBundle([]Entry{{Profile: p}})
	if err != nil {
		return StreamFrame{}, err
	}
	return StreamFrame{
		Magic: FormatMagicV3,
		Epoch: epoch,
		Seq:   seq,
		Meta:  p.Meta,
		Full:  full,
	}, nil
}

// EncodeDelta builds a delta frame materializing cur on top of base. It
// reports ok=false — and leaves the session dictionary untouched — when
// the change cannot be delta-encoded: a node or metric present in base but
// absent from cur, reordered children, or a rewritten schema. Callers then
// fall back to EncodeFull under a new epoch. The returned frame copies
// what it needs; cur may be mutated afterwards.
func (e *DeltaEncoder) EncodeDelta(base, cur *profiler.Profile, epoch, seq uint64) (StreamFrame, bool, error) {
	if base == nil || base.Tree == nil || cur == nil || cur.Tree == nil {
		return StreamFrame{}, false, fmt.Errorf("profdb: delta encode needs base and current profiles")
	}
	return e.EncodeDeltaFrom(base, Checksum(base), cur, epoch, seq)
}

// EncodeDeltaFrom is EncodeDelta with the base checksum supplied by the
// caller. A session sender already holds it — the receiver acknowledged
// that exact sum into the series cursor — so recomputing it here would
// add a full tree walk to every steady-state upload.
func (e *DeltaEncoder) EncodeDeltaFrom(base *profiler.Profile, baseSum uint64, cur *profiler.Profile, epoch, seq uint64) (StreamFrame, bool, error) {
	if base == nil || base.Tree == nil || cur == nil || cur.Tree == nil {
		return StreamFrame{}, false, fmt.Errorf("profdb: delta encode needs base and current profiles")
	}
	baseNames := base.Tree.Schema.Names()
	curNames := cur.Tree.Schema.Names()
	if len(baseNames) > len(curNames) {
		return StreamFrame{}, false, nil
	}
	for i := range baseNames {
		if baseNames[i] != curNames[i] {
			return StreamFrame{}, false, nil
		}
	}

	// Pass 1: pair base and cur nodes positionally (growth is append-only,
	// so base's children must be a key-equal prefix of cur's), compute
	// each changed node's sparse metric updates, and mark which cur nodes
	// must be emitted — changed or new nodes, plus their unchanged
	// ancestors for addressing. The walk visits every cur node in the
	// same preorder as Checksum, so the frame's CurSum digest is computed
	// inline instead of by a second full-tree walk; marks live in a
	// preorder-indexed slice (size = subtree node count) so pass 2 can
	// skip unemitted subtrees without per-node map lookups.
	type nodeMark struct {
		emit bool
		size int
		excl []MetricEntry
	}
	h := newDigest()
	h.uint(uint64(len(curNames)))
	for _, n := range curNames {
		h.str(n)
	}
	var marks []nodeMark
	ok := true
	var walk func(bn, cn *cct.Node) bool
	walk = func(bn, cn *cct.Node) bool {
		slot := len(marks)
		marks = append(marks, nodeMark{})
		var m nodeMark
		if bn == nil {
			// A new node always emits, even aggregate-less: its existence
			// changes the parent's child count, which the checksum sees.
			m.emit = true
			m.excl = diffEntries(nil, cn.Excl)
		} else {
			m.excl = diffEntries(bn.Excl, cn.Excl)
			m.emit = len(m.excl) > 0
		}
		bc := []*cct.Node(nil)
		if bn != nil {
			bc = bn.Children()
		}
		cc := cn.Children()
		h.frame(cn.Frame)
		h.uint(uint64(len(cc)))
		h.metrics(cn.Excl)
		if len(cc) < len(bc) {
			ok = false
			return false
		}
		for i, c := range cc {
			var b *cct.Node
			if i < len(bc) {
				b = bc[i]
				if !cct.SameKey(b.Frame, c.Frame) {
					ok = false
					return false
				}
			}
			if walk(b, c) {
				m.emit = true
			}
			if !ok {
				return false
			}
		}
		m.size = len(marks) - slot
		marks[slot] = m
		return m.emit
	}
	walk(base.Tree.Root, cur.Tree.Root)
	if !ok {
		return StreamFrame{}, false, nil
	}

	f := StreamFrame{
		Magic:          FormatMagicV3,
		Delta:          true,
		Epoch:          epoch,
		Seq:            seq,
		Meta:           cur.Meta,
		BaseSum:        baseSum,
		CurSum:         h.sum,
		NewMetrics:     curNames[len(baseNames):],
		Stats:          cur.Stats,
		MonitorStats:   cur.MonitorStats,
		Fused:          cur.Fused,
		FootprintBytes: cur.FootprintBytes,
	}

	// Pass 2: emit marked nodes in DFS order; parents precede children, so
	// Parent indexes are always backward references. The preorder index
	// advances in lockstep with pass 1's slice, jumping by subtree size
	// over unemitted subtrees (emission propagates upward, so an
	// unemitted node has no emitted descendants).
	dictBefore := cct.FrameID(e.dict.Len())
	idx := 0
	var emit func(n *cct.Node, parent int32)
	emit = func(n *cct.Node, parent int32) {
		m := &marks[idx]
		if !m.emit {
			idx += m.size
			return
		}
		idx++
		self := int32(len(f.Nodes))
		f.Nodes = append(f.Nodes, DeltaNode{
			Parent: parent,
			Frame:  e.dict.Intern(n.Frame),
			Excl:   m.excl,
		})
		for _, c := range n.Children() {
			emit(c, self)
		}
	}
	emit(cur.Tree.Root, -1)
	f.NewFrames = append([]cct.Frame(nil), e.dict.Frames(dictBefore)...)
	return f, true, nil
}

// diffEntries returns the sparse updates that turn metric array a into b,
// treating entries past either array's length as empty (arrays only pad,
// so index i names the same metric on both sides once the schema prefix
// check held). A nil a yields b's non-empty entries — the dense encoding
// of a new node.
func diffEntries(a, b []cct.Metric) []MetricEntry {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var out []MetricEntry
	for i := 0; i < n; i++ {
		var av, bv cct.Metric
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av.Empty() && bv.Empty() {
			continue
		}
		if av != bv {
			out = append(out, MetricEntry{Idx: int32(i), M: bv})
		}
	}
	return out
}

// SeriesCursor is the receiver-side apply state for one series within a
// session: the materialized profile, its checksum, and the expected
// epoch/sequence position.
type SeriesCursor struct {
	Base  *profiler.Profile
	Sum   uint64
	Epoch uint64
	Seq   uint64
}

// DeltaDecoder is the receiver half of a v3 session: it mirrors the
// sender's frame dictionary and materializes stream frames into full
// profiles. One decoder per session; not safe for concurrent use.
type DeltaDecoder struct {
	dict []cct.Frame
	// MaxBytes caps embedded full payloads (0 selects DefaultMaxBytes).
	MaxBytes int64
	// TrustChecksums skips the post-apply verification walk on delta
	// frames, recording the frame's CurSum as the cursor sum. Only safe
	// for a decoder mirroring its own encoder's frames (the sender's
	// shadow state) — a receiver of untrusted frames must verify.
	TrustChecksums bool
}

// NewDeltaDecoder returns a decoder with an empty session dictionary.
func NewDeltaDecoder() *DeltaDecoder { return &DeltaDecoder{} }

// DictLen reports the session dictionary size (see DeltaEncoder.DictLen).
func (d *DeltaDecoder) DictLen() int { return len(d.dict) }

// AddFrames validates and appends a frame's dictionary additions. It must
// be called once per received frame, in order, before Apply — and also for
// frames that will be rejected, because the sender's dictionary grew when
// it encoded them.
func (d *DeltaDecoder) AddFrames(f *StreamFrame) error {
	for _, fr := range f.NewFrames {
		if !fr.Kind.Valid() {
			return fmt.Errorf("profdb: dictionary frame with invalid kind %d: %w", fr.Kind, ErrCorrupt)
		}
	}
	d.dict = append(d.dict, f.NewFrames...)
	return nil
}

// Apply materializes one stream frame. For a full frame it decodes the
// embedded database, which must hold exactly one profile carrying the
// frame's Meta (a receiver keys and routes the series by f.Meta), and
// resets the cursor under the frame's epoch. For a
// delta frame it verifies position (epoch, sequence) and base checksum —
// failing with ErrStaleBase before touching the cursor — then mutates
// cur.Base in place into the new profile and verifies it reaches CurSum.
// The materialized profile's tree holds exclusive aggregates only, like
// DecodeBundle's.
// Structurally invalid frames fail with ErrCorrupt. On any error after
// materialization starts, the cursor is reset: the sender must resync with
// a full upload.
func (d *DeltaDecoder) Apply(cur *SeriesCursor, f *StreamFrame) (*profiler.Profile, error) {
	if f.Magic != FormatMagicV3 {
		return nil, fmt.Errorf("profdb: bad stream magic %q: %w", f.Magic, ErrCorrupt)
	}
	if !f.Delta {
		entries, err := DecodeBundleLimit(f.Full, d.MaxBytes)
		if err != nil {
			return nil, err
		}
		if len(entries) != 1 {
			return nil, fmt.Errorf("profdb: full frame holds %d profiles, not one: %w", len(entries), ErrCorrupt)
		}
		p := entries[0].Profile
		if p.Meta != f.Meta {
			return nil, fmt.Errorf("profdb: full frame for %+v holds a profile of %+v: %w", f.Meta, p.Meta, ErrCorrupt)
		}
		cur.Base, cur.Sum, cur.Epoch, cur.Seq = p, Checksum(p), f.Epoch, f.Seq
		return p, nil
	}
	if cur.Base == nil {
		return nil, fmt.Errorf("profdb: delta for a series with no base: %w", ErrStaleBase)
	}
	if f.Epoch != cur.Epoch || f.Seq != cur.Seq+1 {
		return nil, fmt.Errorf("profdb: delta at epoch %d seq %d, expected epoch %d seq %d: %w",
			f.Epoch, f.Seq, cur.Epoch, cur.Seq+1, ErrStaleBase)
	}
	if f.BaseSum != cur.Sum {
		return nil, fmt.Errorf("profdb: delta base checksum %x, materialized base is %x: %w", f.BaseSum, cur.Sum, ErrStaleBase)
	}
	if err := d.validate(f); err != nil {
		return nil, err
	}

	// The frame is structurally sound: materialize in place. From here any
	// failure poisons the base, so the cursor resets on the error paths.
	p := cur.Base
	tree := p.Tree
	for _, name := range f.NewMetrics {
		tree.Schema.ID(name)
	}
	size := tree.Schema.Len()
	nodes := make([]*cct.Node, len(f.Nodes))
	for i := range f.Nodes {
		dn := &f.Nodes[i]
		if dn.Parent < 0 {
			nodes[i] = tree.Root
		} else {
			nodes[i] = tree.InsertUnder(nodes[dn.Parent], []cct.Frame{d.dict[dn.Frame]})
		}
		var err error
		if nodes[i].Excl, err = applyEntries(nodes[i].Excl, dn.Excl, size); err != nil {
			cur.Base, cur.Sum = nil, 0
			return nil, fmt.Errorf("profdb: delta node %d: %w", i, err)
		}
	}
	p.Meta = f.Meta
	p.Stats = f.Stats
	p.MonitorStats = f.MonitorStats
	p.Fused = f.Fused
	p.FootprintBytes = f.FootprintBytes

	sum := f.CurSum
	if !d.TrustChecksums {
		sum = Checksum(p)
		if sum != f.CurSum {
			cur.Base, cur.Sum = nil, 0
			return nil, fmt.Errorf("profdb: materialized delta reached checksum %x, frame promised %x: %w", sum, f.CurSum, ErrStaleBase)
		}
	}
	cur.Sum, cur.Epoch, cur.Seq = sum, f.Epoch, f.Seq
	return p, nil
}

// applyEntries applies sparse metric updates to one array, growing it as
// needed. An entry outside the schema is corruption — the sender's schema
// extension always precedes the entries referencing it.
func applyEntries(arr []cct.Metric, es []MetricEntry, size int) ([]cct.Metric, error) {
	for _, e := range es {
		if e.Idx < 0 || int(e.Idx) >= size {
			return arr, fmt.Errorf("metric entry %d against a %d-metric schema: %w", e.Idx, size, ErrCorrupt)
		}
		for len(arr) <= int(e.Idx) {
			arr = append(arr, cct.Metric{})
		}
		arr[e.Idx] = e.M
	}
	return arr, nil
}

// validate checks a delta frame's structure before any mutation: the node
// forest must be rooted (Nodes[0] is the tree root), parent references
// strictly backward, and dictionary references assigned.
func (d *DeltaDecoder) validate(f *StreamFrame) error {
	for i := range f.Nodes {
		dn := &f.Nodes[i]
		if dn.Parent < 0 {
			if i != 0 {
				return fmt.Errorf("profdb: delta node %d claims to be the root: %w", i, ErrCorrupt)
			}
			continue
		}
		if i == 0 || int(dn.Parent) >= i {
			return fmt.Errorf("profdb: delta node %d has invalid parent %d: %w", i, dn.Parent, ErrCorrupt)
		}
		if int(dn.Frame) >= len(d.dict) {
			return fmt.Errorf("profdb: delta node %d references dictionary frame %d of %d: %w",
				i, dn.Frame, len(d.dict), ErrCorrupt)
		}
	}
	return nil
}

// WriteBatch gob-encodes one batch onto an established stream encoder.
func WriteBatch(enc *gob.Encoder, b *StreamBatch) error {
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("profdb: encode stream batch: %w", err)
	}
	return nil
}

// ReadBatch decodes the next batch from an established stream decoder. A
// cleanly ended stream returns io.EOF; anything undecodable fails with an
// error matching ErrCorrupt.
func ReadBatch(dec *gob.Decoder) (*StreamBatch, error) {
	var b StreamBatch
	if err := dec.Decode(&b); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("profdb: decode stream batch: %v: %w", err, ErrCorrupt)
	}
	return &b, nil
}
