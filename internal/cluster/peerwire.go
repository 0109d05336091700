// The peer wire: every successful /cluster/partials answer, every
// /cluster/export answer and every /cluster/import body is one binary
// message in this encoding. Requests stay small JSON bodies and error
// answers stay dcserver's {"error": ...}; only the bulk — partial trees,
// aggregates, findings — travels here, written and read by plain
// bounds-checked code, as profdb v4 is.
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
// A tree is its partial's profdb v4 database, verbatim — the bytes the
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
	"math"
	"math/bits"
	"net/http"
	"strconv"

	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
)

const wireMagic = "DEEPCONTEXT-PEER"

// WireVersion is the peer-wire version this node speaks. /healthz reports
// it as peer_wire, so /cluster/status can tell a peer that answers but
// speaks another version. Version 2 sends forwards to /cluster/ingest as
// /ingest bodies (one v4 bundle); version 1 sent gob batches of v3 frames.
const WireVersion = 2

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
	b = appendBytes(b, resp.Set.Trend)
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

func appendBytes(b, s []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

func appendPartialList(b []byte, ps []profstore.SeriesPartial) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for i := range ps {
		b = appendPartial(b, &ps[i])
	}
	return b
}

func appendPartial(b []byte, p *profstore.SeriesPartial) []byte {
	b = appendBool(b, p.Bucket.Coarse)
	b = binary.AppendVarint(b, p.Bucket.StartNS)
	b = binary.AppendVarint(b, p.Bucket.DurNS)
	b = appendStr(b, p.Key)
	b = appendStr(b, p.Labels.Workload)
	b = appendStr(b, p.Labels.Vendor)
	b = appendStr(b, p.Labels.Framework)
	b = binary.AppendVarint(b, int64(p.Profiles))
	b = appendBytes(b, p.Tree)
	a := p.Agg
	if a == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, list := range [][]string{a.Labels, a.Kinds, a.Metrics} {
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, s := range list {
			b = appendStr(b, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(a.Sums)))
	for _, row := range a.Sums {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, f := range row {
			b = appendFloat(b, f)
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
	b = appendBool(b, d.FineExists)
	b = appendBool(b, d.CoarseExists)
	b = appendPartialList(b, d.Fine)
	return appendPartialList(b, d.Coarse)
}

func appendFinding(b []byte, f *trend.Finding) []byte {
	for _, s := range []string{f.Series, f.Workload, f.Vendor, f.Framework, f.Frame, f.Metric} {
		b = appendStr(b, s)
	}
	b = binary.AppendVarint(b, int64(f.Direction))
	b = binary.AppendVarint(b, f.BeforeUnixNano)
	b = binary.AppendVarint(b, f.AfterUnixNano)
	for _, v := range []float64{f.BeforeShare, f.Share, f.BaselineShare, f.BaselineSigma, f.Band} {
		b = appendFloat(b, v)
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
	r := &wireReader{b: msg, off: len(wireMagic)}
	if v := r.uvarint(); r.err == nil && v != WireVersion {
		return nil, fmt.Errorf("%w: message is version %d, this node speaks %d", ErrWireVersion, v, WireVersion)
	}
	resp := &PartialsResponse{}
	resp.Set.Series = r.partialList()
	resp.Set.Trend = r.bytes()
	resp.Before = r.diff()
	resp.After = r.diff()
	if n := r.count("findings", minFindingBytes); n > 0 {
		resp.Findings = make([]trend.Finding, n)
		for i := range resp.Findings {
			r.finding(&resp.Findings[i])
		}
	}
	if r.bool() {
		resp.Trend = &profstore.TrendStats{
			Series: int(r.varint()), Frames: int(r.varint()),
			Findings: r.varint(), Suppressed: r.varint(), Late: r.varint(),
		}
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
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

// wireReader is a bounds-checked cursor over a peer message with a sticky
// error: after the first failure every read returns zero.
type wireReader struct {
	b    []byte
	off  int
	err  error
	slab []float64 // aggregate rows are carved from shared blocks
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

// uvarint reads a minimal uvarint: a longer spelling of the same value
// would not re-encode to the bytes it came from.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *wireReader) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

func (r *wireReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) || r.b[r.off] > 1 {
		r.fail("bad boolean or marker at byte %d", r.off)
		return false
	}
	r.off++
	return r.b[r.off-1] == 1
}

// bytes returns the next length-prefixed field without copying; empty is
// nil.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("length %d at byte %d exceeds the %d bytes remaining", n, r.off, r.remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	s := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *wireReader) str() string { return string(r.bytes()) }

// count reads an element count and checks it against the bytes remaining
// at minBytes per element.
func (r *wireReader) count(what string, minBytes int) int {
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

func (r *wireReader) strs(what string) []string {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// floats reads one aggregate row into a block shared with its neighbours.
// Every float occupies at least one input byte, which bounds a block — and
// so all row memory — by the message size.
func (r *wireReader) floats() []float64 {
	n := r.count("floats", 1)
	if n == 0 {
		return nil
	}
	if n > len(r.slab) {
		r.slab = make([]float64, max(n, min(512, r.remaining())))
	}
	row := r.slab[:n:n]
	r.slab = r.slab[n:]
	for i := range row {
		row[i] = r.float()
	}
	return row
}

func (r *wireReader) partialList() []profstore.SeriesPartial {
	n := r.count("partials", minPartialBytes)
	if n == 0 {
		return nil
	}
	out := make([]profstore.SeriesPartial, n)
	for i := 0; i < n && r.err == nil; i++ {
		r.partial(&out[i])
	}
	return out
}

func (r *wireReader) partial(p *profstore.SeriesPartial) {
	p.Bucket = profstore.PartialBucket{Coarse: r.bool(), StartNS: r.varint(), DurNS: r.varint()}
	p.Key = r.str()
	p.Labels = profstore.Labels{Workload: r.str(), Vendor: r.str(), Framework: r.str()}
	p.Profiles = int(r.varint())
	p.Tree = r.bytes()
	if !r.bool() {
		return
	}
	a := &profstore.AggData{Labels: r.strs("labels"), Kinds: r.strs("kinds"), Metrics: r.strs("metrics")}
	if n := r.count("aggregate rows", 1); n > 0 {
		a.Sums = make([][]float64, n)
		for i := range a.Sums {
			a.Sums[i] = r.floats()
		}
	}
	p.Agg = a
}

func (r *wireReader) diff() *profstore.DiffPartials {
	if !r.bool() {
		return nil
	}
	return &profstore.DiffPartials{
		FineStartNS: r.varint(), CoarseStartNS: r.varint(),
		FineExists: r.bool(), CoarseExists: r.bool(),
		Fine: r.partialList(), Coarse: r.partialList(),
	}
}

func (r *wireReader) finding(f *trend.Finding) {
	f.Series, f.Workload, f.Vendor = r.str(), r.str(), r.str()
	f.Framework, f.Frame, f.Metric = r.str(), r.str(), r.str()
	f.Direction = int(r.varint())
	f.BeforeUnixNano, f.AfterUnixNano = r.varint(), r.varint()
	f.BeforeShare, f.Share, f.BaselineShare = r.float(), r.float(), r.float()
	f.BaselineSigma, f.Band = r.float(), r.float()
	f.Windows = int(r.varint())
}
