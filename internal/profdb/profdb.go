// Package profdb serializes DeepContext profiles: a compact binary database
// (the flattened CCT) for storage and a JSON export for external tooling and
// the GUI. Because the profiler aggregates online, the database is
// proportional to distinct calling contexts, not to run length — the
// property behind the paper's disk/memory savings versus trace files.
//
// The format is versioned by its leading magic. Version 5 (v5.go) is the
// only one written: a hand-rolled, length-prefixed multi-profile container
// holding any number of named profiles (per-shard results of a batch run, a
// before/after pair, or a single profile, the common case), each node with
// its exclusive metric slots only. One parser reads it into trees
// (DecodeBundle and the loaders) or into merge plans (PlanBundle, plan.go).
// DecodeBundle's trees hold exclusive slots, as stored; the loaders (Load,
// LoadBundle and their variants) derive the inclusive ones, so a loaded
// profile is complete. Version 3 (delta.go) frames streaming sessions.
// Older databases are upgraded to v5 bytes at the door: version 4, which
// also stored inclusive slots, by the same parser, and version 2, the gob
// encoding older binaries wrote, by legacy.go. So existing files, WAL
// segments and snapshots keep loading; version 1 is no longer understood.
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
	"deepcontext/internal/wire"
)

// FormatMagic identifies the current database format; the trailing number
// is the format version.
const FormatMagic = "DEEPCONTEXT-PROFDB-5"

// formatMagicV4 identifies a v4 database, still read. It is as long as
// FormatMagic, so a database's records start at the same offset in both.
const formatMagicV4 = "DEEPCONTEXT-PROFDB-4"

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
}

// JoinBundles returns the v5 databases dbs as one database holding all of
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
		r := wire.NewReader(db, len(FormatMagic), ErrCorrupt)
		if !bytes.HasPrefix(db, []byte(FormatMagic)) {
			r.Fail("not a v5 database")
		} else if c := r.Count("profiles", minRecordBytes); r.Err() == nil && c == 0 {
			r.Fail("no profiles")
		} else {
			n += c
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("profdb: join input %d: %w", i, r.Err())
		}
		size += r.Remaining()
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
// DefaultMaxBytes. Each tree's inclusive aggregates are derived.
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
	entries, err := DecodeBundleLimit(buf.Bytes(), maxBytes)
	return derived(entries), err
}

// derived derives the inclusive aggregates of every entry's tree, the step
// that turns stored profiles into loaded ones, and returns entries.
func derived(entries []Entry) []Entry {
	for _, e := range entries {
		e.Profile.Tree.DeriveInclusive()
	}
	return entries
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

// DecodeBundle decodes every profile of a database already in memory: v5,
// v4 (its inclusive slots skipped), or the legacy gob v2 encoding upgraded
// at the door (see upgrade). Its trees hold exclusive aggregates only, as
// stored: the loaders derive the inclusive ones. It accepts exactly what
// PlanBundle accepts; failures match ErrCorrupt.
func DecodeBundle(data []byte) ([]Entry, error) {
	rr := recordReader{v4: bytes.HasPrefix(data, []byte(formatMagicV4))}
	data, err := upgrade(data)
	if err != nil {
		return nil, err
	}
	var out []Entry
	err = eachRecord(data, func(rec []byte) error {
		p := &profiler.Profile{Tree: cct.New()}
		name, err := rr.record(rec, p, true, &treeBuilder{tree: p.Tree, rr: &rr})
		out = append(out, Entry{Name: name, Profile: p})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// upgrade returns data as the one parser reads it: a v5 or v4 database
// as it is, and a legacy gob v2 one decoded and encoded again as v5. (The
// parser hands on a v4 record's v5 form, so no v4 byte goes further.)
func upgrade(data []byte) ([]byte, error) {
	if bytes.HasPrefix(data, []byte(FormatMagic)) || bytes.HasPrefix(data, []byte(formatMagicV4)) {
		return data, nil
	}
	entries, err := decodeLegacy(data)
	if err != nil {
		return nil, err
	}
	return EncodeBundle(entries)
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

// LoadBundleFile reads every profile from path, each tree's inclusive
// aggregates derived. The size cap exists for network boundaries (servers
// pass their own limit); a database already on disk — a large batch-matrix
// aggregate, say — loads whatever its size.
func LoadBundleFile(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries, err := DecodeBundle(data)
	return derived(entries), err
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
