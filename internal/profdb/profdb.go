// Package profdb serializes DeepContext profiles: a compact binary database
// (the flattened CCT) for storage and a JSON export for external tooling and
// the GUI. Because the profiler aggregates online, the database is
// proportional to distinct calling contexts, not to run length — the
// property behind the paper's disk/memory savings versus trace files.
//
// The format is versioned by its leading magic. Version 4 (v4.go) is the
// only one written: a hand-rolled, length-prefixed multi-profile container
// holding any number of named profiles (per-shard results of a batch run, a
// before/after pair, or a single profile, the common case). Version 3
// (delta.go) frames streaming sessions. Version 2, the gob encoding older
// binaries wrote, is still read (legacy.go) so existing files, WAL segments
// and snapshots keep loading; version 1 is no longer understood.
package profdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// FormatMagic identifies the current database format; the trailing number
// is the format version.
const FormatMagic = "DEEPCONTEXT-PROFDB-4"

// DefaultMaxBytes caps how much Load/LoadBundle will read (256 MiB). A
// malformed or hostile input — an HTTP ingest body, a truncated upload —
// fails with ErrTooLarge instead of buffering without bound.
const DefaultMaxBytes = 256 << 20

// Typed load failures, for errors.Is dispatch at API boundaries (a server
// maps ErrTooLarge to 413 and ErrCorrupt to 400 rather than 500).
var (
	// ErrTooLarge reports an input exceeding the size limit.
	ErrTooLarge = errors.New("profdb: input exceeds size limit")
	// ErrCorrupt reports an undecodable or structurally invalid database
	// (bad magic, truncation, hostile counts, dangling parent references).
	ErrCorrupt = errors.New("profdb: corrupt database")
)

// Entry is one named profile of a bundle. Name may be empty for
// single-profile files; the batch runner uses "workload/vendor/framework".
type Entry struct {
	Name    string
	Profile *profiler.Profile

	// record is the validated v4 record the entry was decoded from and body
	// the whole database when that record was its only one; both are nil
	// for entries built by hand or read from a legacy file.
	record, body []byte
}

// Encoded returns the entry as a standalone single-profile v4 database made
// of the very bytes it was decoded from — the received body itself when it
// held just this profile, otherwise a fresh header in front of the entry's
// record — so a server can log or forward what it validated instead of
// encoding the profile again. It returns nil for an entry that was not
// decoded from v4 bytes. The result aliases the decoder's input.
func (e Entry) Encoded() []byte { return standalone(e.record, e.body) }

// standalone returns body when set, otherwise a fresh single-record
// database around record (nil when both are nil).
func standalone(record, body []byte) []byte {
	if body != nil || record == nil {
		return body
	}
	b := make([]byte, 0, len(FormatMagic)+2*binary.MaxVarintLen32+len(record))
	b = binary.AppendUvarint(appendHeader(b, 1), uint64(len(record)))
	return append(b, record...)
}

// JoinBundles returns the v4 databases dbs as one database holding all of
// their records, in order. It reads each input's header — the magic and a
// record count of at least one — and nothing past it: the records are
// copied as they are, to be validated by whoever reads the result. A
// single input is returned itself. Failures match ErrCorrupt.
func JoinBundles(dbs [][]byte) ([]byte, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("profdb: empty bundle")
	}
	n, size := 0, 0
	for i, db := range dbs {
		r := &reader{b: db, off: len(FormatMagic)}
		if !bytes.HasPrefix(db, []byte(FormatMagic)) {
			r.fail("not a v4 database")
		} else if c := r.count("profiles", minRecordBytes); r.err == nil && c == 0 {
			r.fail("no profiles")
		} else {
			n += c
		}
		if r.err != nil {
			return nil, fmt.Errorf("profdb: join input %d: %w", i, r.err)
		}
		size += r.remaining()
	}
	if len(dbs) == 1 {
		return dbs[0], nil
	}
	out := appendHeader(make([]byte, 0, len(FormatMagic)+binary.MaxVarintLen64+size), n)
	for _, db := range dbs {
		_, k := binary.Uvarint(db[len(FormatMagic):])
		out = append(out, db[len(FormatMagic)+k:]...)
	}
	return out, nil
}

// SaveBundle writes the named profiles to w as one database.
func SaveBundle(w io.Writer, entries []Entry) error {
	b, err := EncodeBundle(entries)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// LoadBundle reads every profile of a database, refusing inputs larger than
// DefaultMaxBytes.
func LoadBundle(r io.Reader) ([]Entry, error) {
	return LoadBundleLimit(r, DefaultMaxBytes)
}

// LoadBundleLimit is LoadBundle with an explicit size cap in bytes
// (0 selects DefaultMaxBytes). Inputs exceeding the cap fail with an error
// matching ErrTooLarge; undecodable inputs match ErrCorrupt.
func LoadBundleLimit(r io.Reader, maxBytes int64) ([]Entry, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	// Read one byte past the cap so "exactly at the limit" and "over it"
	// are distinguishable (guarding maxBytes+1 against overflow for
	// callers passing MaxInt64 as "unlimited").
	limit := maxBytes
	if limit < math.MaxInt64 {
		limit++
	}
	// A reader that knows its length (bytes.Reader, bytes.Buffer, ...) gets
	// one exact allocation; the slack lets ReadFrom see EOF without growing.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(int(min(int64(l.Len()), limit)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r, limit)); err != nil {
		return nil, fmt.Errorf("profdb: read: %w", err)
	}
	return DecodeBundleLimit(buf.Bytes(), maxBytes)
}

// DecodeBundleLimit is DecodeBundle behind the same size cap as
// LoadBundleLimit, for payloads that arrive inside another message.
func DecodeBundleLimit(data []byte, maxBytes int64) ([]Entry, error) {
	if err := checkLimit(data, maxBytes); err != nil {
		return nil, err
	}
	return DecodeBundle(data)
}

// checkLimit refuses data over maxBytes (0 selects DefaultMaxBytes).
func checkLimit(data []byte, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if int64(len(data)) > maxBytes {
		return fmt.Errorf("profdb: input larger than %d bytes: %w", maxBytes, ErrTooLarge)
	}
	return nil
}

// DecodeBundle decodes every profile of a database already in memory,
// dispatching on its magic: v4, or the legacy gob v2 encoding. Failures
// match ErrCorrupt. The returned entries alias data (see Entry.Encoded).
func DecodeBundle(data []byte) ([]Entry, error) {
	if bytes.HasPrefix(data, []byte(FormatMagic)) {
		return decodeV4(data)
	}
	return decodeLegacy(data)
}

// Decode returns the first profile of a database already in memory.
func Decode(data []byte) (*profiler.Profile, error) {
	entries, err := DecodeBundle(data)
	if err != nil {
		return nil, err
	}
	return entries[0].Profile, nil
}

// Save writes p to w as a single-profile database.
func Save(w io.Writer, p *profiler.Profile) error {
	return SaveBundle(w, []Entry{{Profile: p}})
}

// Load reads the first profile of a database, refusing inputs larger than
// DefaultMaxBytes.
func Load(r io.Reader) (*profiler.Profile, error) {
	return LoadLimit(r, DefaultMaxBytes)
}

// LoadLimit is Load with an explicit size cap in bytes (0 selects
// DefaultMaxBytes).
func LoadLimit(r io.Reader, maxBytes int64) (*profiler.Profile, error) {
	entries, err := LoadBundleLimit(r, maxBytes)
	if err != nil {
		return nil, err
	}
	return entries[0].Profile, nil
}

// SaveFile writes p to path.
func SaveFile(path string, p *profiler.Profile) error {
	return SaveBundleFile(path, []Entry{{Profile: p}})
}

// SaveBundleFile writes the named profiles to path.
func SaveBundleFile(path string, entries []Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveBundle(f, entries); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads the first profile from path.
func LoadFile(path string) (*profiler.Profile, error) {
	entries, err := LoadBundleFile(path)
	if err != nil {
		return nil, err
	}
	return entries[0].Profile, nil
}

// LoadBundleFile reads every profile from path. The size cap exists for
// network boundaries (servers pass their own limit); a database already on
// disk — a large batch-matrix aggregate, say — loads whatever its size.
func LoadBundleFile(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBundle(data)
}

// jsonNode is the nested JSON export shape.
type jsonNode struct {
	Label    string             `json:"label"`
	Kind     string             `json:"kind"`
	File     string             `json:"file,omitempty"`
	Line     int                `json:"line,omitempty"`
	Excl     map[string]float64 `json:"excl,omitempty"`
	Incl     map[string]float64 `json:"incl,omitempty"`
	Children []*jsonNode        `json:"children,omitempty"`
}

type jsonProfile struct {
	Meta    profiler.Meta `json:"meta"`
	Metrics []string      `json:"metrics"`
	Root    *jsonNode     `json:"root"`
}

func toJSONNode(schema *cct.Schema, n *cct.Node) *jsonNode {
	jn := &jsonNode{Label: n.Label(), Kind: n.Kind.String(), File: n.File, Line: n.Line}
	for i := range n.Excl {
		if !n.Excl[i].Empty() {
			if jn.Excl == nil {
				jn.Excl = map[string]float64{}
			}
			jn.Excl[schema.Name(cct.MetricID(i))] = n.Excl[i].Sum
		}
	}
	for i := range n.Incl {
		if !n.Incl[i].Empty() {
			if jn.Incl == nil {
				jn.Incl = map[string]float64{}
			}
			jn.Incl[schema.Name(cct.MetricID(i))] = n.Incl[i].Sum
		}
	}
	for _, c := range n.Children() {
		jn.Children = append(jn.Children, toJSONNode(schema, c))
	}
	return jn
}

// ExportJSON writes a nested JSON rendering of p to w.
func ExportJSON(w io.Writer, p *profiler.Profile) error {
	jp := jsonProfile{
		Meta:    p.Meta,
		Metrics: p.Tree.Schema.Names(),
		Root:    toJSONNode(p.Tree.Schema, p.Tree.Root),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&jp)
}
