// The served ingest path's reader: a database planned for merging instead
// of decoded into trees. planRecord makes the same single bounds-checked
// pass over a v4 record as decodeRecord, and accepts exactly the records
// decodeRecord accepts, but it builds no tree: frames, their normalized
// addresses and the metric slots go straight into a cct.Plan, which the
// store folds into a window tree under its lock. Every string of a record —
// name, metadata, metric names, the frame string table — comes from one
// allocation: the bytes ahead of the nodes become one Go string, and the
// strings are slices of it.
package profdb

import (
	"bytes"
	"fmt"
	"sync"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// Planned is one validated profile of a database, planned for merging:
// its bundle name, its metadata, its merge plan, and the bytes it was read
// from.
type Planned struct {
	Name string
	Meta profiler.Meta
	Plan *cct.Plan

	// record and body are as for Entry; body also holds the v4 re-encoding
	// of a profile read from a legacy file.
	record, body []byte
}

// Encoded returns the profile as a standalone single-profile v4 database,
// made of the bytes it was planned from exactly as Entry.Encoded. A profile
// planned from a legacy file returns its v4 encoding. The result may alias
// the planner's input.
func (p *Planned) Encoded() []byte { return standalone(p.record, p.body) }

// Plans is a planned database: Records in database order. It and its plans
// are pooled; Release hands them back once every plan has been merged.
type Plans struct {
	Records  []Planned
	planners []*planner
}

// planner is one record's reusable state: its plan and the scratch the
// string pass needs.
type planner struct {
	plan  cct.Plan
	spans [][2]int
	table []string
}

var plansPool = sync.Pool{New: func() any { return new(Plans) }}

// PlanBundle validates a database and plans every profile in it, v4 from
// its bytes and the legacy gob encoding by way of its decoded trees. It
// accepts exactly what DecodeBundle accepts; failures match ErrCorrupt.
// The plans alias no input bytes, but Encoded may. Call Release when done.
func PlanBundle(data []byte) (*Plans, error) {
	ps := plansPool.Get().(*Plans)
	if err := ps.plan(data); err != nil {
		ps.Release()
		return nil, err
	}
	return ps, nil
}

// PlanBundleLimit is PlanBundle behind DecodeBundleLimit's size cap.
func PlanBundleLimit(data []byte, maxBytes int64) (*Plans, error) {
	if err := checkLimit(data, maxBytes); err != nil {
		return nil, err
	}
	return PlanBundle(data)
}

// Release returns the plans to the pool. Neither ps nor any of its plans
// may be used afterwards.
func (ps *Plans) Release() {
	for i := range ps.Records {
		ps.Records[i].Plan.Reset()
	}
	clear(ps.Records)
	ps.Records = ps.Records[:0]
	plansPool.Put(ps)
}

func (ps *Plans) planner(i int) *planner {
	for len(ps.planners) <= i {
		ps.planners = append(ps.planners, new(planner))
	}
	return ps.planners[i]
}

func (ps *Plans) plan(data []byte) error {
	if !bytes.HasPrefix(data, []byte(FormatMagic)) {
		return ps.planLegacy(data)
	}
	r := &reader{b: data, off: len(FormatMagic)}
	n := r.count("profiles", minRecordBytes)
	if r.err == nil && n == 0 {
		r.fail("bundle has no profiles")
	}
	for i := 0; i < n; i++ {
		rec := r.take(r.uvarint())
		if r.err != nil {
			break
		}
		pl := ps.planner(i)
		name, meta, err := pl.record(rec)
		if err != nil {
			return fmt.Errorf("profdb: record %d: %w", i, err)
		}
		ps.Records = append(ps.Records, Planned{Name: name, Meta: meta, Plan: &pl.plan, record: rec})
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes after the last record", r.remaining())
	}
	if r.err != nil {
		return fmt.Errorf("profdb: %w", r.err)
	}
	if n == 1 {
		ps.Records[0].body = data
	}
	return nil
}

// planLegacy plans a gob v2 database through its decoded trees; each
// profile's Encoded form is its v4 encoding.
func (ps *Plans) planLegacy(data []byte) error {
	entries, err := decodeLegacy(data)
	if err != nil {
		return err
	}
	for i, e := range entries {
		pl := ps.planner(i)
		if err := pl.plan.FromTree(e.Profile.Tree); err != nil {
			return fmt.Errorf("profdb: record %d: %v: %w", i, err, ErrCorrupt)
		}
		body, err := EncodeBundle([]Entry{{Profile: e.Profile}})
		if err != nil {
			return err
		}
		ps.Records = append(ps.Records, Planned{Name: e.Name, Meta: e.Profile.Meta, Plan: &pl.plan, body: body})
	}
	return nil
}

// span reads one str and returns where its bytes lie in r.b.
func (r *reader) span() [2]int {
	n := r.uvarint()
	start := r.off
	r.take(n)
	return [2]int{start, r.off}
}

// record plans one record, which must fill rec exactly, into pl.plan.
func (pl *planner) record(rec []byte) (string, profiler.Meta, error) {
	r := &reader{b: rec}
	p := &pl.plan
	p.Reset()
	spans := pl.spans[:0]
	for i := 0; i < 6; i++ { // name, workload, framework, vendor, device, substrate
		spans = append(spans, r.span())
	}
	iterations := r.varint()
	for i := 0; i < 15; i++ { // both stats blocks and the footprint
		r.varint()
	}
	names := r.count("metric names", 1)
	for i := 0; i < names; i++ {
		spans = append(spans, r.span())
	}
	if n := r.count("fused operators", 2); n > 0 {
		for i := 0; i < n && r.err == nil; i++ {
			r.span()
			for j, m := 0, r.count("fused origins", 2); j < m; j++ {
				r.span()
				for k, l := 0, r.count("python frames", 3); k < l; k++ {
					r.span()
					r.varint()
					r.span()
				}
			}
		}
	}
	strs := r.count("strings", 1)
	for i := 0; i < strs; i++ {
		spans = append(spans, r.span())
	}
	pl.spans = spans
	if r.err != nil {
		return "", profiler.Meta{}, r.err
	}

	head := string(rec[:r.off])
	str := func(i int) string { return head[spans[i][0]:spans[i][1]] }
	meta := profiler.Meta{Workload: str(1), Framework: str(2), Vendor: str(3), Device: str(4), Substrate: str(5), Iterations: int(iterations)}
	for i := 0; i < names; i++ {
		if err := p.AddName(str(6 + i)); err != nil {
			r.fail("%v", err)
			return "", profiler.Meta{}, r.err
		}
	}
	table := pl.table[:0]
	for i := 0; i < strs; i++ {
		table = append(table, str(6+names+i))
	}
	pl.table = table
	ref := func() string {
		i := r.uvarint()
		if i >= uint64(len(table)) {
			r.fail("string reference %d outside a %d-entry table", i, len(table))
			return ""
		}
		return table[i]
	}

	n := r.count("nodes", minNodeBytes)
	if n == 0 {
		r.fail("record has no root node")
	}
	for i := 0; i < n; i++ {
		parent := r.uvarint()
		f := cct.Frame{Kind: cct.FrameKind(r.byte())}
		f.Name, f.File, f.Line, f.Lib, f.PC = ref(), ref(), int(r.varint()), ref(), r.uvarint()
		excl := p.Slots(r.slotCount(names))
		r.slots(excl)
		incl := p.Slots(r.slotCount(names))
		r.slots(incl)
		if r.checkNode(i, parent, f.Kind); r.err != nil {
			break
		}
		if err := p.Add(int(parent)-1, f, excl, incl); err != nil {
			r.fail("%v", err)
			break
		}
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes in record", r.remaining())
	}
	if r.err != nil {
		return "", profiler.Meta{}, r.err
	}
	return str(0), meta, nil
}
