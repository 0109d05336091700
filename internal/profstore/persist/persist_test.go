package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
)

func testProfile(workload string, scale float64) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	leaf := tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 10, "main"),
		cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "gemm", Lib: "[gpu]", PC: 0x100},
	})
	tree.AddMetric(leaf, gid, 100*scale)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: "Nvidia", Framework: "pytorch"},
	}
}

func mustEncode(t *testing.T, p *profiler.Profile) []byte {
	t.Helper()
	b, err := EncodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two buckets, three records; rotation happens on the bucket change.
	payloads := []struct {
		start, ts int64
		scale     float64
	}{{1000, 1001, 1}, {1000, 1002, 2}, {2000, 2003, 4}}
	for _, rec := range payloads {
		if _, err := w.Append(rec.start, rec.ts, mustEncode(t, testProfile("UNet", rec.scale))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []struct {
		start, ts int64
		total     float64
	}
	stats, err := r.Replay(nil, func(start, ts int64, p *profiler.Profile) error {
		p.Tree.DeriveInclusive() // stored trees hold exclusive slots only
		id, _ := p.Tree.Schema.Lookup(cct.MetricGPUTime)
		got = append(got, struct {
			start, ts int64
			total     float64
		}{start, ts, p.Tree.Root.InclValue(id)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 2 || stats.Records != 3 || stats.SkippedRecords != 0 || stats.SkippedSegments != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	want := []struct {
		start, ts int64
		total     float64
	}{{1000, 1001, 100}, {1000, 1002, 200}, {2000, 2003, 400}}
	for i, g := range got {
		if g != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, g, want[i])
		}
	}
}

func TestWALReplayRespectsOffsets(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1000, 1, mustEncode(t, testProfile("UNet", 1))); err != nil {
		t.Fatal(err)
	}
	offsets, err := w.Offsets()
	if err != nil {
		t.Fatal(err)
	}
	// A record appended after the watermark is the only one replayed.
	if _, err := w.Append(1000, 2, mustEncode(t, testProfile("UNet", 7))); err != nil {
		t.Fatal(err)
	}
	var totals []float64
	stats, err := w.Replay(offsets, func(start, ts int64, p *profiler.Profile) error {
		p.Tree.DeriveInclusive() // stored trees hold exclusive slots only
		id, _ := p.Tree.Schema.Lookup(cct.MetricGPUTime)
		totals = append(totals, p.Tree.Root.InclValue(id))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || len(totals) != 1 || totals[0] != 700 {
		t.Fatalf("stats=%+v totals=%v", stats, totals)
	}
	w.Close()
}

// corruptedWAL builds a segment with a valid record, then a framed record
// whose body is drawn from the profdb fuzz corpus's malformed shapes
// (intact frame, undecodable body — must be skipped individually), then a
// trailing valid record, then a torn tail.
func TestWALReplayCorruptionPolicy(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1000, 1, mustEncode(t, testProfile("UNet", 1))); err != nil {
		t.Fatal(err)
	}

	// The malformed-but-framed shapes FuzzLoad seeds profdb with: wrong
	// magic, truncated record, plain garbage. All must skip, not crash.
	valid := mustEncode(t, testProfile("UNet", 2))
	wrongMagic := append([]byte("DEEPCONTEXT-PROFDB-99"), valid[len(profdb.FormatMagic):]...)
	for _, body := range [][]byte{wrongMagic, valid[:len(valid)/2], []byte("not a profile at all")} {
		if _, err := w.Append(1000, 2, body); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(1000, 3, mustEncode(t, testProfile("UNet", 4))); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Torn tail: append half a record by hand.
	seg := filepath.Join(dir, walDirName, segName(1000))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := append(make([]byte, 8), mustEncode(t, testProfile("UNet", 8))...)
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	f.Write(hdr[:])
	f.Write(body[:len(body)/3])
	f.Close()

	r, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var totals []float64
	stats, err := r.Replay(nil, func(start, ts int64, p *profiler.Profile) error {
		p.Tree.DeriveInclusive() // stored trees hold exclusive slots only
		id, _ := p.Tree.Schema.Lookup(cct.MetricGPUTime)
		totals = append(totals, p.Tree.Root.InclValue(id))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both valid records survive; the three undecodable ones are skipped;
	// the torn tail ends the segment (counted as a skipped segment).
	if stats.Records != 2 || stats.SkippedRecords != 3 || stats.SkippedSegments != 1 {
		t.Fatalf("stats = %+v (warnings %v)", stats, stats.Warnings)
	}
	if len(totals) != 2 || totals[0] != 100 || totals[1] != 400 {
		t.Fatalf("totals = %v", totals)
	}
	if len(stats.Warnings) == 0 {
		t.Fatal("corruption must be logged")
	}
}

// Resuming a torn segment must truncate the tail back to the last intact
// frame BEFORE appending, or every post-resume acknowledged record would
// hide behind the tear and be dropped by replay.
func TestWALResumeRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1000, 1, mustEncode(t, testProfile("UNet", 1))); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the tail: half a frame of a would-be second record.
	seg := filepath.Join(dir, walDirName, segName(1000))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := append(make([]byte, 8), mustEncode(t, testProfile("UNet", 2))...)
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	f.Write(hdr[:])
	f.Write(body[:len(body)/2])
	f.Close()

	// A restarted WAL appends to the same bucket; the record must land at
	// the repaired frame boundary and survive replay alongside the first.
	r, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Append(1000, 3, mustEncode(t, testProfile("UNet", 4))); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2, _ := OpenWAL(dir)
	var totals []float64
	stats, err := r2.Replay(nil, func(start, ts int64, p *profiler.Profile) error {
		p.Tree.DeriveInclusive() // stored trees hold exclusive slots only
		id, _ := p.Tree.Schema.Lookup(cct.MetricGPUTime)
		totals = append(totals, p.Tree.Root.InclValue(id))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.SkippedSegments != 0 || stats.SkippedRecords != 0 {
		t.Fatalf("stats = %+v (warnings %v)", stats, stats.Warnings)
	}
	if len(totals) != 2 || totals[0] != 100 || totals[1] != 400 {
		t.Fatalf("totals = %v", totals)
	}
}

// A resumed segment whose header is garbage is reset wholesale: new
// appends must still be replayable.
func TestWALResumeResetsGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, walDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walDirName, segName(1000))
	if err := os.WriteFile(seg, []byte("this is not a wal segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1000, 1, mustEncode(t, testProfile("UNet", 1))); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r, _ := OpenWAL(dir)
	stats, err := r.Replay(nil, func(start, ts int64, p *profiler.Profile) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.SkippedSegments != 0 {
		t.Fatalf("stats = %+v (warnings %v)", stats, stats.Warnings)
	}
}

func TestWALReplayBadHeaderSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(2000, 1, mustEncode(t, testProfile("UNet", 1))); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// A garbage segment alongside a healthy one.
	if err := os.WriteFile(filepath.Join(dir, walDirName, segName(1000)), []byte("garbage header"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, _ := OpenWAL(dir)
	stats, err := r.Replay(nil, func(start, ts int64, p *profiler.Profile) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1 || stats.SkippedSegments != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestWALPrune(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1000, 1, mustEncode(t, testProfile("UNet", 1)))
	w.Append(2000, 2, mustEncode(t, testProfile("UNet", 2)))
	covered, err := w.Offsets()
	if err != nil {
		t.Fatal(err)
	}
	// Segment 2000 is currently open for appends: it must survive Prune
	// even though it is fully covered.
	n, err := w.Prune(covered)
	if err != nil || n != 1 {
		t.Fatalf("pruned %d (%v), want 1", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, walDirName, segName(2000))); err != nil {
		t.Fatalf("open segment pruned: %v", err)
	}
	// PruneRange drops it regardless once closed.
	w.Close()
	r, _ := OpenWAL(dir)
	if n, _ := r.PruneRange(0, 3000); n != 1 {
		t.Fatalf("range-pruned %d, want 1", n)
	}
}

func TestSnapshotRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	st := &State{
		CreatedUnixNano: 42, Ingested: 3, Compactions: 1, LastIngestUnixNano: 41,
		Windows: []WindowState{{
			Start: 1000, DurNS: 60e9,
			Series: []SeriesState{{Key: "unet/nvidia/pytorch", Profiles: 3, Profile: testProfile("UNet", 3)}},
		}, {
			Start: 0, DurNS: 600e9, Coarse: true,
			Series: []SeriesState{{Key: "dlrm/nvidia/pytorch", Profiles: 1, Profile: testProfile("DLRM", 1)}},
		}},
		WALOffsets: map[int64]int64{1000: 123},
	}
	cap1, err := CaptureState(st)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cap1.Commit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dir != "snap-1" || info.Files != 2 {
		t.Fatalf("info = %+v", info)
	}

	got, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ingested != 3 || got.Compactions != 1 || got.LastIngestUnixNano != 41 {
		t.Fatalf("counters = %+v", got)
	}
	if len(got.Windows) != 2 || got.WALOffsets[1000] != 123 {
		t.Fatalf("state = %+v", got)
	}
	var fine *WindowState
	for i := range got.Windows {
		if !got.Windows[i].Coarse {
			fine = &got.Windows[i]
		}
	}
	if fine == nil || fine.Start != 1000 || len(fine.Series) != 1 {
		t.Fatalf("fine window = %+v", fine)
	}
	s := fine.Series[0]
	if s.Key != "unet/nvidia/pytorch" || s.Profiles != 3 || s.Profile.Meta.Workload != "UNet" {
		t.Fatalf("series = %+v", s)
	}
	s.Profile.Tree.DeriveInclusive() // stored trees hold exclusive slots only
	id, _ := s.Profile.Tree.Schema.Lookup(cct.MetricGPUTime)
	if s.Profile.Tree.Root.InclValue(id) != 300 {
		t.Fatalf("tree total = %v", s.Profile.Tree.Root.InclValue(id))
	}

	// A second commit supersedes the first and removes it.
	cap2, _ := CaptureState(st)
	info2, err := cap2.Commit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Dir != "snap-2" {
		t.Fatalf("second snapshot dir = %s", info2.Dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-1")); !os.IsNotExist(err) {
		t.Fatalf("old snapshot not removed: %v", err)
	}
}

func TestReadSnapshotDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	if st, err := ReadSnapshot(dir); st != nil || err != nil {
		t.Fatalf("empty dir: %v %v", st, err)
	}
	st := &State{Windows: []WindowState{{
		Start: 1000, DurNS: 60e9,
		Series: []SeriesState{{Key: "k", Profiles: 1, Profile: testProfile("UNet", 1)}},
	}}}
	cap1, _ := CaptureState(st)
	info, err := cap1.Commit(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the window file: the checksum must catch it.
	winFile := filepath.Join(dir, info.Dir, "fine-1000.dcp")
	data, err := os.ReadFile(winFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(winFile, data, 0o644)
	if _, err := ReadSnapshot(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted window file: err = %v, want checksum mismatch", err)
	}

	// A CURRENT pointing nowhere is an error, not a crash.
	os.WriteFile(filepath.Join(dir, currentName), []byte("snap-99\n"), 0o644)
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatal("dangling CURRENT should error")
	}
	// Path traversal in CURRENT is rejected.
	os.WriteFile(filepath.Join(dir, currentName), []byte("../evil\n"), 0o644)
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatal("traversal CURRENT should error")
	}
}
