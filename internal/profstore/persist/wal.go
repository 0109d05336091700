package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/telemetry"
)

const (
	walDirName   = "wal"
	walSuffix    = ".wal"
	segMagic     = "DEEPCONTEXT-WAL-1\n"
	frameHdrSize = 8 // uint32 length + uint32 CRC
	// maxRecordBytes bounds one WAL record body on replay; it mirrors the
	// profdb ingest cap so a corrupted length field cannot drive an
	// arbitrarily large allocation.
	maxRecordBytes = profdb.DefaultMaxBytes
)

// WAL is the append-only profile log of one data directory, rotated per
// window bucket. It is safe for concurrent use, but the store serializes
// appends under its own lock anyway so that record order matches merge
// order (which is what makes replay byte-exact).
type WAL struct {
	dir string // <dataDir>/wal

	mu       sync.Mutex
	curStart int64
	f        *os.File
	size     int64
	// tornStart marks a bucket whose segment tore mid-append and could
	// not be truncated back to a frame boundary (e.g. EIO on both the
	// write and the repair): further appends to it would land beyond the
	// tear and be dropped by replay, so they are refused instead.
	tornStart int64
	met       WALMetrics
}

// WALMetrics holds optional telemetry hooks for the append and fsync
// paths. Histograms are observed only when non-nil (skipping the clock
// reads entirely when timing is off); the fsync counter is nil-safe.
type WALMetrics struct {
	// AppendSeconds observes each Append, including any segment rotation
	// (and its fsync) the append triggered — rotation stalls are exactly
	// what an append-latency histogram must not hide.
	AppendSeconds *telemetry.Histogram
	// FsyncSeconds observes each segment fsync (rotation, Sync, Close).
	FsyncSeconds *telemetry.Histogram
	// Fsyncs counts segment fsyncs.
	Fsyncs *telemetry.Counter
}

// SetMetrics installs telemetry hooks. Call before the first Append;
// not safe to call concurrently with WAL use.
func (w *WAL) SetMetrics(m WALMetrics) {
	w.mu.Lock()
	w.met = m
	w.mu.Unlock()
}

// syncLocked fsyncs f under the telemetry hooks. Callers hold w.mu.
func (w *WAL) syncLocked(f *os.File) error {
	if w.met.FsyncSeconds == nil {
		w.met.Fsyncs.Inc()
		return f.Sync()
	}
	t0 := time.Now()
	err := f.Sync()
	w.met.FsyncSeconds.Observe(time.Since(t0))
	w.met.Fsyncs.Inc()
	return err
}

// OpenWAL opens (creating if needed) the WAL under dataDir.
func OpenWAL(dataDir string) (*WAL, error) {
	dir := filepath.Join(dataDir, walDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	return &WAL{dir: dir, curStart: -1, tornStart: -1}, nil
}

func segName(start int64) string { return strconv.FormatInt(start, 10) + walSuffix }

func parseSegName(name string) (int64, bool) {
	if !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(name, walSuffix), 10, 64)
	return n, err == nil
}

// Append frames one encoded profile (see EncodeProfile) into the segment
// for the window bucket starting at start (unix nanoseconds), rotating
// segments when the bucket changes. tstamp is the ingest wall time in unix
// nanoseconds, restored as the store's last-ingest mark on replay. It
// returns the number of bytes written.
//
// Records are not fsynced individually: a process crash loses nothing (the
// page cache survives the process), and the OS-crash window is bounded by
// the snapshot interval. Rotation and Sync fsync the segment.
func (w *WAL) Append(start, tstamp int64, payload []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.met.AppendSeconds != nil {
		t0 := time.Now()
		defer func() { w.met.AppendSeconds.Observe(time.Since(t0)) }()
	}
	if start == w.tornStart {
		return 0, fmt.Errorf("persist: wal segment %d is torn beyond repair; refusing append", start)
	}
	if w.f == nil || start != w.curStart {
		if err := w.rotateLocked(start); err != nil {
			return 0, err
		}
	}
	// One frame, one Write call: header, timestamp, payload. A failed or
	// partial write is rolled back by truncating to the last frame
	// boundary, so acknowledged records never land beyond a tear (replay
	// drops everything after the first broken frame).
	rec := make([]byte, frameHdrSize+8+len(payload))
	body := rec[frameHdrSize:]
	binary.LittleEndian.PutUint64(body, uint64(tstamp))
	copy(body[8:], payload)
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	if _, err := w.f.Write(rec); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			// Could not repair in place: poison the bucket so no later
			// append is acknowledged into the unreadable tail.
			w.f.Close()
			w.f, w.curStart, w.tornStart = nil, -1, start
			return 0, fmt.Errorf("persist: wal append: %v (tail repair failed: %v)", err, terr)
		}
		return 0, fmt.Errorf("persist: wal append: %w", err)
	}
	n := int64(len(rec))
	w.size += n
	return n, nil
}

// rotateLocked syncs and closes the open segment and opens (or resumes)
// the one for bucket start. Resuming an existing segment — a boot after a
// crash, typically — first scans it and truncates any torn tail back to
// the last valid frame, so records appended from now on stay reachable by
// replay instead of hiding behind undecodable bytes.
func (w *WAL) rotateLocked(start int64) error {
	if w.f != nil {
		w.syncLocked(w.f)
		w.f.Close()
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(start))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: wal rotate: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: wal rotate: %w", err)
	}
	size := st.Size()
	switch {
	case size == 0:
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("persist: wal header: %w", err)
		}
		size = int64(len(segMagic))
	case size > int64(len(segMagic)):
		valid := validSegmentLength(path)
		if valid < size {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				w.tornStart = start
				return fmt.Errorf("persist: wal resume: cannot repair torn tail of %s: %w", segName(start), err)
			}
			size = valid
		}
		if size < int64(len(segMagic)) {
			// The whole segment was garbage (bad magic): it was reset to
			// empty above, so give it a fresh header.
			if _, err := f.WriteString(segMagic); err != nil {
				f.Close()
				return fmt.Errorf("persist: wal header: %w", err)
			}
			size = int64(len(segMagic))
		}
	default:
		// A bare or short header: rewrite the segment from scratch —
		// there is nothing decodable to preserve.
		if err := f.Truncate(0); err != nil {
			f.Close()
			w.tornStart = start
			return fmt.Errorf("persist: wal resume: cannot reset short segment %s: %w", segName(start), err)
		}
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return fmt.Errorf("persist: wal header: %w", err)
		}
		size = int64(len(segMagic))
	}
	w.f, w.curStart, w.size = f, start, size
	return nil
}

// validSegmentLength scans a segment and returns the byte offset just past
// the last intact frame (header and CRC both good). An unreadable or
// bad-magic segment scans to zero, which resume rewrites wholesale — its
// content was already lost to replay anyway.
func validSegmentLength(path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != segMagic {
		return 0
	}
	valid := int64(len(segMagic))
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [frameHdrSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length < 8 || int64(length) > maxRecordBytes {
			return valid
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(r, body); err != nil {
			return valid
		}
		if crc32.ChecksumIEEE(body) != sum {
			return valid
		}
		valid += int64(frameHdrSize) + int64(length)
	}
}

// Sync fsyncs the open segment, if any.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.syncLocked(w.f)
}

// Close syncs and closes the open segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked(w.f)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// segments lists on-disk segments sorted by window start.
func (w *WAL) segments() ([]int64, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, e := range ents {
		if start, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			out = append(out, start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Offsets reports the current byte size of every segment, the watermark set
// a snapshot records: replay resumes each segment from its snapshotted
// size. The caller must ensure no appends run concurrently (the store holds
// its write-blocking lock while capturing a snapshot).
func (w *WAL) Offsets() (map[int64]int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := w.segments()
	if err != nil {
		return nil, err
	}
	out := make(map[int64]int64, len(starts))
	for _, start := range starts {
		if start == w.curStart && w.f != nil {
			out[start] = w.size
			continue
		}
		st, err := os.Stat(filepath.Join(w.dir, segName(start)))
		if err != nil {
			return nil, err
		}
		out[start] = st.Size()
	}
	return out, nil
}

// Prune deletes segments fully covered by a snapshot: present in covered
// with an offset at or beyond the segment's current size, and not the
// segment currently open for appends. Only the current bucket's segment
// ever grows (time moves forward), so a frozen fully-covered segment is
// safe to drop. Returns how many were removed.
func (w *WAL) Prune(covered map[int64]int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := w.segments()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, start := range starts {
		off, ok := covered[start]
		if !ok || (start == w.curStart && w.f != nil) {
			continue
		}
		path := filepath.Join(w.dir, segName(start))
		st, err := os.Stat(path)
		if err != nil || off < st.Size() {
			continue
		}
		if err := os.Remove(path); err == nil {
			removed++
		}
	}
	return removed, nil
}

// PruneRange deletes segments whose window start lies in [lo, hi),
// regardless of coverage — used when retention drops a coarse window, so
// the aged-out data cannot resurrect on a WAL-only recovery. Unlike Prune,
// this may retire the segment currently open for appends: its bucket has
// aged past retention, so the clock can never route another append to it
// (the next append rotates to a fresh segment).
func (w *WAL) PruneRange(lo, hi int64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	starts, err := w.segments()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, start := range starts {
		if start < lo || start >= hi {
			continue
		}
		if start == w.curStart && w.f != nil {
			w.f.Close()
			w.f, w.curStart = nil, -1
		}
		if err := os.Remove(filepath.Join(w.dir, segName(start))); err == nil {
			removed++
		}
	}
	return removed, nil
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	Segments        int   // segments visited
	Records         int64 // records delivered to the callback
	SkippedRecords  int64 // intact frames whose body failed to decode or apply
	SkippedSegments int   // segments with a bad header (or torn tail, counted once)
	Bytes           int64 // payload bytes replayed
	// Warnings are human-readable skip-and-log lines for the operator.
	Warnings []string
}

// Replay re-reads every segment in window order and calls fn for each
// decodable record beyond the covered watermark (covered may be nil:
// replay everything). A broken frame or CRC ends that segment — an
// append-only file is untrustworthy past a torn write — while an intact
// frame whose profile fails profdb decoding (or whose application returns
// an error) is skipped individually. Neither aborts the replay: recovery
// must never crash on corrupt input.
func (w *WAL) Replay(covered map[int64]int64, fn func(start, tstamp int64, p *profiler.Profile) error) (ReplayStats, error) {
	return w.ReplayRecords(covered, func(start, tstamp int64, payload []byte) error {
		p, err := DecodeProfile(payload)
		if err != nil {
			return err
		}
		return fn(start, tstamp, p)
	})
}

// ReplayRecords is Replay handing fn each record's payload — the profdb
// bytes EncodeProfile wrote — instead of a decoded profile, for a caller
// that plans records from bytes. payload is valid only during the call.
// An error from fn skips the record; one matching profdb.ErrCorrupt is
// reported as undecodable.
func (w *WAL) ReplayRecords(covered map[int64]int64, fn func(start, tstamp int64, payload []byte) error) (ReplayStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var stats ReplayStats
	starts, err := w.segments()
	if err != nil {
		return stats, err
	}
	var buf []byte
	for _, start := range starts {
		stats.Segments++
		buf = w.replaySegment(start, covered[start], fn, &stats, buf)
	}
	return stats, nil
}

// replaySegment replays one segment, reading records into buf (grown as
// needed and returned for the next segment).
func (w *WAL) replaySegment(start, offset int64, fn func(start, tstamp int64, payload []byte) error, stats *ReplayStats, buf []byte) []byte {
	name := segName(start)
	f, err := os.Open(filepath.Join(w.dir, name))
	if err != nil {
		stats.SkippedSegments++
		stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: open: %v", name, err))
		return buf
	}
	defer f.Close()
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != segMagic {
		stats.SkippedSegments++
		stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: bad header, skipping segment", name))
		return buf
	}
	if offset > int64(len(segMagic)) {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			stats.SkippedSegments++
			stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: seek %d: %v", name, offset, err))
			return buf
		}
	}
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [frameHdrSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				stats.SkippedSegments++
				stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: torn frame header, dropping tail", name))
			}
			return buf
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length < 8 || int64(length) > maxRecordBytes {
			stats.SkippedSegments++
			stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: implausible record length %d, dropping tail", name, length))
			return buf
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		body := buf[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			stats.SkippedSegments++
			stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: truncated record, dropping tail", name))
			return buf
		}
		if crc32.ChecksumIEEE(body) != sum {
			stats.SkippedSegments++
			stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: CRC mismatch, dropping tail", name))
			return buf
		}
		tstamp := int64(binary.LittleEndian.Uint64(body[:8]))
		if err := fn(start, tstamp, body[8:]); err != nil {
			// Framing is intact, so the next record is trustworthy:
			// skip just this one.
			stats.SkippedRecords++
			if errors.Is(err, profdb.ErrCorrupt) {
				stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: undecodable record skipped: %v", name, err))
			} else {
				stats.Warnings = append(stats.Warnings, fmt.Sprintf("wal segment %s: record rejected: %v", name, err))
			}
			continue
		}
		stats.Records++
		stats.Bytes += int64(length) - 8
	}
}
