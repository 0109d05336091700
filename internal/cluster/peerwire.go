// The peer wire: every successful /cluster/partials answer, every
// /cluster/export answer and every /cluster/import body is one binary
// message in this encoding. Requests stay small JSON bodies and error
// answers stay dcserver's {"error": ...}; only the bulk — partial trees,
// aggregates, findings — travels here, written and read by plain
// bounds-checked code over the primitives of package wire, which profdb
// shares.
//
//	message  := magic uvarint(version) response
//	response := set opt(diff) opt(diff) uvarint(nFindings) { finding } opt(stats)
//	set      := uvarint(nPartials) { partial } bytes(trend)
//	partial  := bool(coarse) varint(startNS) varint(durNS) str(key)
//	            str(workload) str(vendor) str(framework) varint(profiles)
//	            bytes(tree) opt(agg)
//	agg      := uvarint(n) { str(label) } uvarint(n) { str(kind) } uvarint(n) { str(metric) }
//	            uvarint(nRows) { uvarint(n) { float } }
//	diff     := varint(fineStartNS) varint(coarseStartNS) bool(fineExists) bool(coarseExists)
//	            uvarint(n) { partial } uvarint(n) { partial }
//	finding  := str(series) str(workload) str(vendor) str(framework) str(frame) str(metric)
//	            varint(direction) varint(beforeNS) varint(afterNS)
//	            float(beforeShare) float(share) float(baselineShare) float(baselineSigma) float(band)
//	            varint(windows)
//	stats    := varint(series) varint(frames) varint(findings) varint(suppressed) varint(late)
//	opt(x)   := 0x00 | 0x01 x
//	bool     := 0x00 | 0x01
//	bytes    := uvarint(len) bytes
//	str      := bytes
//	float    := uvarint(byte-reversed IEEE-754 bits)
//
// A tree is its partial's profdb v5 database, verbatim — the bytes the
// answering series cached — and a decoded partial's Tree (like the set's
// trend blob) aliases the message buffer: the coordinator plans each tree
// once, as the fold visits it, straight from the bytes the peer sent.
// Aggregates and findings carry exact float bits, so a fold is bit-equal
// whether its inputs traveled or not.
//
// The encoding is canonical — minimal varints, 0/1 booleans and markers, no
// trailing bytes — so whatever decodes re-encodes to the same bytes, and a
// message in any other version (an older node answering JSON included) is
// refused with ErrWireVersion rather than half-read.
package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
	"deepcontext/internal/wire"
)

const wireMagic = "DEEPCONTEXT-PEER"

// WireVersion is the peer-wire version this node speaks. /healthz reports
// it as peer_wire, so /cluster/status can tell a peer that answers but
// speaks another version. Version 3 ships profdb v5 — partial trees,
// handoff exports and forwards — which a version-2 node cannot read;
// version 2 shipped v4 and sent forwards to /cluster/ingest as /ingest
// bodies; version 1 sent gob batches of v3 frames.
const WireVersion = 3

var (
	// ErrWireVersion reports a peer message in a wire version this node
	// does not speak. A mixed-version cluster answers degraded until every
	// node runs the same release.
	ErrWireVersion = errors.New("cluster: peer wire version does not match")
	// ErrMalformed reports a peer message that does not decode.
	ErrMalformed = errors.New("cluster: malformed peer message")
)

// Minimum encoded sizes, checked against the bytes remaining before a
// count read off the wire sizes any allocation.
const (
	minPartialBytes = 10 // bool, two varints, four strings, a varint, tree length, agg marker
	minFindingBytes = 15 // six strings, three varints, five floats, a varint
)

// EncodePartials serializes one node's answer as a peer-wire message.
func EncodePartials(resp *PartialsResponse) []byte {
	// Trees are nearly all of a message: size the buffer for them once.
	size := len(wireMagic) + 16 + len(resp.Set.Trend) + partialsSize(resp.Set.Series)
	for _, d := range []*profstore.DiffPartials{resp.Before, resp.After} {
		if d != nil {
			size += partialsSize(d.Fine) + partialsSize(d.Coarse)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, wireMagic...)
	b = binary.AppendUvarint(b, WireVersion)
	b = appendPartialList(b, resp.Set.Series)
	b = wire.AppendBytes(b, resp.Set.Trend)
	b = appendDiff(b, resp.Before)
	b = appendDiff(b, resp.After)
	b = binary.AppendUvarint(b, uint64(len(resp.Findings)))
	for i := range resp.Findings {
		b = appendFinding(b, &resp.Findings[i])
	}
	if t := resp.Trend; t == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(t.Series))
		b = binary.AppendVarint(b, int64(t.Frames))
		b = binary.AppendVarint(b, t.Findings)
		b = binary.AppendVarint(b, t.Suppressed)
		b = binary.AppendVarint(b, t.Late)
	}
	return b
}

// partialsSize estimates the encoded size of partials: their tree and key
// bytes plus a few bytes of fields each.
func partialsSize(ps []profstore.SeriesPartial) int {
	n := 0
	for i := range ps {
		n += 32 + len(ps[i].Key) + len(ps[i].Tree)
	}
	return n
}

func appendPartialList(b []byte, ps []profstore.SeriesPartial) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for i := range ps {
		b = appendPartial(b, &ps[i])
	}
	return b
}

func appendPartial(b []byte, p *profstore.SeriesPartial) []byte {
	b = wire.AppendBool(b, p.Bucket.Coarse)
	b = binary.AppendVarint(b, p.Bucket.StartNS)
	b = binary.AppendVarint(b, p.Bucket.DurNS)
	b = wire.AppendStr(b, p.Key)
	b = wire.AppendStr(b, p.Labels.Workload)
	b = wire.AppendStr(b, p.Labels.Vendor)
	b = wire.AppendStr(b, p.Labels.Framework)
	b = binary.AppendVarint(b, int64(p.Profiles))
	b = wire.AppendBytes(b, p.Tree)
	a := p.Agg
	if a == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, list := range [][]string{a.Labels, a.Kinds, a.Metrics} {
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, s := range list {
			b = wire.AppendStr(b, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.Sums)))
	for _, row := range a.Sums {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, f := range row {
			b = wire.AppendFloat(b, f)
		}
	}
	return b
}

func appendDiff(b []byte, d *profstore.DiffPartials) []byte {
	if d == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, d.FineStartNS)
	b = binary.AppendVarint(b, d.CoarseStartNS)
	b = wire.AppendBool(b, d.FineExists)
	b = wire.AppendBool(b, d.CoarseExists)
	b = appendPartialList(b, d.Fine)
	return appendPartialList(b, d.Coarse)
}

func appendFinding(b []byte, f *trend.Finding) []byte {
	for _, s := range []string{f.Series, f.Workload, f.Vendor, f.Framework, f.Frame, f.Metric} {
		b = wire.AppendStr(b, s)
	}
	b = binary.AppendVarint(b, int64(f.Direction))
	b = binary.AppendVarint(b, f.BeforeUnixNano)
	b = binary.AppendVarint(b, f.AfterUnixNano)
	for _, v := range []float64{f.BeforeShare, f.Share, f.BaselineShare, f.BaselineSigma, f.Band} {
		b = wire.AppendFloat(b, v)
	}
	return binary.AppendVarint(b, int64(f.Windows))
}

// DecodePartials decodes one peer-wire message. The returned partials'
// Tree bytes and the set's Trend blob alias msg, which the caller must not
// modify afterwards. Failures match ErrWireVersion or ErrMalformed.
func DecodePartials(msg []byte) (*PartialsResponse, error) {
	if !bytes.HasPrefix(msg, []byte(wireMagic)) {
		head := msg[:min(len(msg), 16)]
		return nil, fmt.Errorf("%w: message starts %q, not the peer wire magic (a node of an older release answers JSON)", ErrWireVersion, head)
	}
	r := &peerReader{Reader: wire.NewReader(msg, len(wireMagic), ErrMalformed)}
	if v := r.Uvarint(); r.Err() == nil && v != WireVersion {
		return nil, fmt.Errorf("%w: message is version %d, this node speaks %d", ErrWireVersion, v, WireVersion)
	}
	resp := &PartialsResponse{}
	resp.Set.Series = r.partialList()
	resp.Set.Trend = r.Bytes()
	resp.Before = r.diff()
	resp.After = r.diff()
	if n := r.Count("findings", minFindingBytes); n > 0 {
		resp.Findings = make([]trend.Finding, n)
		for i := range resp.Findings {
			r.finding(&resp.Findings[i])
		}
	}
	if r.Bool() {
		resp.Trend = &profstore.TrendStats{
			Series: int(r.Varint()), Frames: int(r.Varint()),
			Findings: r.Varint(), Suppressed: r.Varint(), Late: r.Varint(),
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return resp, nil
}

// WritePartials answers a peer with one message. Content-Length lets the
// coordinator read the answer into a single buffer of the right size.
func WritePartials(w http.ResponseWriter, resp *PartialsResponse) {
	msg := EncodePartials(resp)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(msg)))
	w.WriteHeader(http.StatusOK)
	w.Write(msg)
}

// peerReader reads a peer message over the shared bounds-checked reader.
type peerReader struct {
	wire.Reader
	slab []float64 // aggregate rows are carved from shared blocks
}

func (r *peerReader) strs(what string) []string {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// floats reads one aggregate row into a block shared with its neighbours.
// Every float occupies at least one input byte, which bounds a block — and
// so all row memory — by the message size.
func (r *peerReader) floats() []float64 {
	n := r.Count("floats", 1)
	if n == 0 {
		return nil
	}
	if n > len(r.slab) {
		r.slab = make([]float64, max(n, min(512, r.Remaining())))
	}
	row := r.slab[:n:n]
	r.slab = r.slab[n:]
	for i := range row {
		row[i] = r.Float()
	}
	return row
}

func (r *peerReader) partialList() []profstore.SeriesPartial {
	n := r.Count("partials", minPartialBytes)
	if n == 0 {
		return nil
	}
	out := make([]profstore.SeriesPartial, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		r.partial(&out[i])
	}
	return out
}

func (r *peerReader) partial(p *profstore.SeriesPartial) {
	p.Bucket = profstore.PartialBucket{Coarse: r.Bool(), StartNS: r.Varint(), DurNS: r.Varint()}
	p.Key = r.Str()
	p.Labels = profstore.Labels{Workload: r.Str(), Vendor: r.Str(), Framework: r.Str()}
	p.Profiles = int(r.Varint())
	p.Tree = r.Bytes()
	if !r.Bool() {
		return
	}
	a := &profstore.AggData{Labels: r.strs("labels"), Kinds: r.strs("kinds"), Metrics: r.strs("metrics")}
	if n := r.Count("aggregate rows", 1); n > 0 {
		a.Sums = make([][]float64, n)
		for i := range a.Sums {
			a.Sums[i] = r.floats()
		}
	}
	p.Agg = a
}

func (r *peerReader) diff() *profstore.DiffPartials {
	if !r.Bool() {
		return nil
	}
	return &profstore.DiffPartials{
		FineStartNS: r.Varint(), CoarseStartNS: r.Varint(),
		FineExists: r.Bool(), CoarseExists: r.Bool(),
		Fine: r.partialList(), Coarse: r.partialList(),
	}
}

func (r *peerReader) finding(f *trend.Finding) {
	f.Series, f.Workload, f.Vendor = r.Str(), r.Str(), r.Str()
	f.Framework, f.Frame, f.Metric = r.Str(), r.Str(), r.Str()
	f.Direction = int(r.Varint())
	f.BeforeUnixNano, f.AfterUnixNano = r.Varint(), r.Varint()
	f.BeforeShare, f.Share, f.BaselineShare = r.Float(), r.Float(), r.Float()
	f.BaselineSigma, f.Band = r.Float(), r.Float()
	f.Windows = int(r.Varint())
}
