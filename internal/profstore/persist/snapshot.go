package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
)

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
	currentName     = "CURRENT"
	snapPrefix      = "snap-"
	snapTmpName     = "snap.tmp"
)

// SeriesState is one label set's merged aggregate inside a window: the
// series key, how many profiles were folded in, and the merged tree carried
// as a profile whose Meta holds the labels.
type SeriesState struct {
	Key      string
	Profiles int
	Profile  *profiler.Profile
}

// WindowState is one retained bucket of a snapshot.
type WindowState struct {
	Start  int64 // unix nanoseconds
	DurNS  int64
	Coarse bool
	Series []SeriesState
}

// State is everything a snapshot persists: the retained windows, the
// store's monotonic counters, the per-segment WAL watermarks the snapshot
// already covers, and the shard's trend-tracker state (an opaque blob the
// trend package encodes/decodes; nil when tracking is disabled or empty).
type State struct {
	CreatedUnixNano    int64
	Ingested           int64
	Compactions        int64
	LastIngestUnixNano int64
	Windows            []WindowState
	WALOffsets         map[int64]int64
	Trend              []byte
	// Index is the shard's fleet-query frame index (an opaque blob the
	// profstore encodes/decodes; nil when the index is disabled or empty).
	Index []byte
}

// manifest is the JSON index of one snapshot directory.
type manifest struct {
	Version            int               `json:"version"`
	CreatedUnixNano    int64             `json:"created_unix_nano"`
	Ingested           int64             `json:"ingested"`
	Compactions        int64             `json:"compactions"`
	LastIngestUnixNano int64             `json:"last_ingest_unix_nano,omitempty"`
	Windows            []manifestWindow  `json:"windows"`
	WAL                []manifestSegment `json:"wal,omitempty"`
	// TrendFile/TrendSHA256 name and checksum the trend-state blob.
	// Optional and additive: snapshots written before trend tracking
	// simply lack them.
	TrendFile   string `json:"trend_file,omitempty"`
	TrendSHA256 string `json:"trend_sha256,omitempty"`
	// IndexFile/IndexSHA256 name and checksum the fleet-query frame index
	// blob; same additive policy as the trend pair.
	IndexFile   string `json:"index_file,omitempty"`
	IndexSHA256 string `json:"index_sha256,omitempty"`
}

type manifestWindow struct {
	File   string         `json:"file"`
	SHA256 string         `json:"sha256"`
	Start  int64          `json:"start_unix_nano"`
	DurNS  int64          `json:"dur_ns"`
	Coarse bool           `json:"coarse,omitempty"`
	Series map[string]int `json:"series"` // series key → profiles folded in
}

type manifestSegment struct {
	Start  int64 `json:"start_unix_nano"`
	Offset int64 `json:"offset"`
}

// Capture is an encoded snapshot not yet on disk. CaptureState runs under
// the store's lock (pure CPU: profdb encoding plus hashing); Commit does
// the disk I/O afterwards, outside the lock.
type Capture struct {
	man   manifest
	files []capturedFile
}

type capturedFile struct {
	name string
	data []byte
}

// Info describes a committed snapshot.
type Info struct {
	Dir   string // snapshot directory name (e.g. "snap-3")
	Files int
	Bytes int64
}

func windowFileName(w *WindowState) string {
	kind := "fine"
	if w.Coarse {
		kind = "coarse"
	}
	return fmt.Sprintf("%s-%d.dcp", kind, w.Start)
}

// CaptureState encodes st into an in-memory snapshot: one profdb bundle
// per window (entries named by series key, sorted for determinism) plus the
// manifest with per-file SHA-256 checksums.
func CaptureState(st *State) (*Capture, error) {
	c := &Capture{man: manifest{
		Version:            manifestVersion,
		CreatedUnixNano:    st.CreatedUnixNano,
		Ingested:           st.Ingested,
		Compactions:        st.Compactions,
		LastIngestUnixNano: st.LastIngestUnixNano,
	}}
	for i := range st.Windows {
		w := &st.Windows[i]
		series := append([]SeriesState(nil), w.Series...)
		sort.Slice(series, func(i, j int) bool { return series[i].Key < series[j].Key })
		entries := make([]profdb.Entry, 0, len(series))
		counts := make(map[string]int, len(series))
		for _, s := range series {
			entries = append(entries, profdb.Entry{Name: s.Key, Profile: s.Profile})
			counts[s.Key] = s.Profiles
		}
		if len(entries) == 0 {
			continue // profstore never retains an empty window; don't persist one
		}
		data, err := profdb.EncodeBundle(entries)
		if err != nil {
			return nil, fmt.Errorf("persist: encode window %d: %w", w.Start, err)
		}
		sum := sha256.Sum256(data)
		name := windowFileName(w)
		c.files = append(c.files, capturedFile{name: name, data: data})
		c.man.Windows = append(c.man.Windows, manifestWindow{
			File: name, SHA256: hex.EncodeToString(sum[:]),
			Start: w.Start, DurNS: w.DurNS, Coarse: w.Coarse, Series: counts,
		})
	}
	if len(st.Trend) > 0 {
		sum := sha256.Sum256(st.Trend)
		c.files = append(c.files, capturedFile{name: "trend.json", data: st.Trend})
		c.man.TrendFile = "trend.json"
		c.man.TrendSHA256 = hex.EncodeToString(sum[:])
	}
	if len(st.Index) > 0 {
		sum := sha256.Sum256(st.Index)
		c.files = append(c.files, capturedFile{name: "index.json", data: st.Index})
		c.man.IndexFile = "index.json"
		c.man.IndexSHA256 = hex.EncodeToString(sum[:])
	}
	segs := make([]manifestSegment, 0, len(st.WALOffsets))
	for start, off := range st.WALOffsets {
		segs = append(segs, manifestSegment{Start: start, Offset: off})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	c.man.WAL = segs
	return c, nil
}

// Commit publishes the capture atomically under dataDir: window files and
// manifest into a temp directory (each fsynced), one rename to
// snap-<seq>, then the CURRENT pointer flips. Older snapshot directories
// are removed once the new one is live.
func (c *Capture) Commit(dataDir string) (Info, error) {
	var info Info
	tmp := filepath.Join(dataDir, snapTmpName)
	if err := os.RemoveAll(tmp); err != nil {
		return info, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return info, err
	}
	for _, f := range c.files {
		if err := writeAndSync(filepath.Join(tmp, f.name), f.data); err != nil {
			return info, err
		}
		info.Files++
		info.Bytes += int64(len(f.data))
	}
	manBytes, err := json.MarshalIndent(&c.man, "", "  ")
	if err != nil {
		return info, err
	}
	if err := writeAndSync(filepath.Join(tmp, manifestName), manBytes); err != nil {
		return info, err
	}
	info.Bytes += int64(len(manBytes))
	if err := syncDir(tmp); err != nil {
		return info, err
	}

	seq, err := nextSnapSeq(dataDir)
	if err != nil {
		return info, err
	}
	name := snapPrefix + strconv.FormatInt(seq, 10)
	if err := os.Rename(tmp, filepath.Join(dataDir, name)); err != nil {
		return info, err
	}
	if err := syncDir(dataDir); err != nil {
		return info, err
	}
	if err := writeFileAtomic(filepath.Join(dataDir, currentName), []byte(name+"\n")); err != nil {
		return info, err
	}
	info.Dir = name
	removeOldSnapshots(dataDir, name)
	return info, nil
}

func writeAndSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		return fmt.Errorf("persist: write %s: %v %v %v", path, werr, serr, cerr)
	}
	return nil
}

func nextSnapSeq(dataDir string) (int64, error) {
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return 0, err
	}
	var max int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), snapPrefix) {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), snapPrefix), 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max + 1, nil
}

func removeOldSnapshots(dataDir, keep string) {
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if name == keep || (!strings.HasPrefix(name, snapPrefix) && name != snapTmpName) {
			continue
		}
		os.RemoveAll(filepath.Join(dataDir, name))
	}
}

// ReadSnapshot loads the live snapshot under dataDir, verifying every
// window file against its manifest checksum and decoding through profdb's
// hardened loader. It returns (nil, nil) when no snapshot exists, and an
// error when one exists but cannot be trusted — the caller decides whether
// to fall back to a WAL-only recovery.
func ReadSnapshot(dataDir string) (*State, error) {
	cur, err := os.ReadFile(filepath.Join(dataDir, currentName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	name := strings.TrimSpace(string(cur))
	if !strings.HasPrefix(name, snapPrefix) || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("persist: CURRENT names invalid snapshot %q", name)
	}
	dir := filepath.Join(dataDir, name)
	manBytes, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", name, err)
	}
	var man manifest
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: bad manifest: %w", name, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("persist: snapshot %s: unsupported manifest version %d", name, man.Version)
	}
	st := &State{
		CreatedUnixNano:    man.CreatedUnixNano,
		Ingested:           man.Ingested,
		Compactions:        man.Compactions,
		LastIngestUnixNano: man.LastIngestUnixNano,
		WALOffsets:         make(map[int64]int64, len(man.WAL)),
	}
	for _, seg := range man.WAL {
		st.WALOffsets[seg.Start] = seg.Offset
	}
	if man.TrendFile != "" {
		if strings.ContainsAny(man.TrendFile, "/\\") {
			return nil, fmt.Errorf("persist: snapshot %s: invalid trend file name %q", name, man.TrendFile)
		}
		data, err := os.ReadFile(filepath.Join(dir, man.TrendFile))
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot %s: %w", name, err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != man.TrendSHA256 {
			return nil, fmt.Errorf("persist: snapshot %s: checksum mismatch on %s", name, man.TrendFile)
		}
		st.Trend = data
	}
	if man.IndexFile != "" {
		if strings.ContainsAny(man.IndexFile, "/\\") {
			return nil, fmt.Errorf("persist: snapshot %s: invalid index file name %q", name, man.IndexFile)
		}
		data, err := os.ReadFile(filepath.Join(dir, man.IndexFile))
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot %s: %w", name, err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != man.IndexSHA256 {
			return nil, fmt.Errorf("persist: snapshot %s: checksum mismatch on %s", name, man.IndexFile)
		}
		st.Index = data
	}
	for _, mw := range man.Windows {
		if strings.ContainsAny(mw.File, "/\\") {
			return nil, fmt.Errorf("persist: snapshot %s: invalid window file name %q", name, mw.File)
		}
		data, err := os.ReadFile(filepath.Join(dir, mw.File))
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot %s: %w", name, err)
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != mw.SHA256 {
			return nil, fmt.Errorf("persist: snapshot %s: checksum mismatch on %s", name, mw.File)
		}
		entries, err := profdb.DecodeBundle(data)
		if err != nil {
			return nil, fmt.Errorf("persist: snapshot %s: %s: %w", name, mw.File, err)
		}
		w := WindowState{Start: mw.Start, DurNS: mw.DurNS, Coarse: mw.Coarse}
		for _, e := range entries {
			profiles, ok := mw.Series[e.Name]
			if !ok {
				return nil, fmt.Errorf("persist: snapshot %s: %s holds series %q absent from manifest", name, mw.File, e.Name)
			}
			w.Series = append(w.Series, SeriesState{Key: e.Name, Profiles: profiles, Profile: e.Profile})
		}
		if len(w.Series) != len(mw.Series) {
			return nil, fmt.Errorf("persist: snapshot %s: %s series count mismatch (file %d, manifest %d)",
				name, mw.File, len(w.Series), len(mw.Series))
		}
		st.Windows = append(st.Windows, w)
	}
	return st, nil
}
