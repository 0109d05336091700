// The served ingest path's view of a database: each profile planned for
// merging instead of decoded into a tree. The record parser is the one
// DecodeBundle uses (v5.go) with a cct.Plan as its sink, so the two accept
// exactly the same databases; frames, their normalized addresses and the
// exclusive metric slots go straight into the plan, which the store folds
// into a window tree under its lock. A v4 body is planned as it is, its
// inclusive slots skipped, and hands on its v5 form; a legacy gob body is
// upgraded to v5 bytes at the door.
package profdb

import (
	"bytes"
	"encoding/binary"
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

	// record is the validated record the profile was planned from (a v4
	// record's v5 form), and body the whole database when that record was
	// its only one and v5.
	record, body []byte
}

// Encoded returns the profile as a standalone single-profile database made
// of the very bytes it was planned from — the received body itself when it
// held just this profile, otherwise a fresh header in front of the
// profile's record — so a server can log or forward what it validated
// instead of encoding the profile again. A profile planned from a v4 or
// legacy file returns its v5 encoding. The result may alias the planner's
// input.
func (p *Planned) Encoded() []byte {
	if p.body != nil {
		return p.body
	}
	b := make([]byte, 0, len(FormatMagic)+2*binary.MaxVarintLen32+len(p.record))
	b = binary.AppendUvarint(appendHeader(b, 1), uint64(len(p.record)))
	return append(b, p.record...)
}

// Plans is a planned database: Records in database order. It and its plans
// are pooled; Release hands them back once every plan has been merged.
type Plans struct {
	Records []Planned
	plans   []*cct.Plan
	rr      recordReader
}

var plansPool = sync.Pool{New: func() any { return new(Plans) }}

// PlanBundle validates a database and plans every profile in it. It
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

func (ps *Plans) plan(data []byte) error {
	ps.rr.v4 = bytes.HasPrefix(data, []byte(formatMagicV4))
	data, err := upgrade(data)
	if err != nil {
		return err
	}
	err = eachRecord(data, func(rec []byte) error {
		i := len(ps.Records)
		if i == len(ps.plans) {
			ps.plans = append(ps.plans, new(cct.Plan))
		}
		plan := ps.plans[i]
		plan.Reset()
		var p profiler.Profile
		name, err := ps.rr.record(rec, &p, false, plan)
		if ps.rr.v4 && err == nil {
			rec = bytes.Clone(ps.rr.v5)
		}
		ps.Records = append(ps.Records, Planned{Name: name, Meta: p.Meta, Plan: plan, record: rec})
		return err
	})
	if err == nil && len(ps.Records) == 1 && !ps.rr.v4 {
		ps.Records[0].body = data
	}
	return err
}
