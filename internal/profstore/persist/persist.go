// Package persist is the durability layer under internal/profstore: an
// append-only write-ahead log of ingested profiles plus periodic compacted
// snapshots of the merged per-series window trees, both rooted in one data
// directory. The store stays authoritative in memory; this package only
// guarantees that a restarted process can rebuild byte-equal query state.
//
// Layout of a data directory:
//
//	<dir>/
//	  wal/<windowStartUnixNano>.wal   one segment per fine window bucket
//	  snap-<seq>/                     one complete snapshot
//	    MANIFEST.json                 windows, checksums, WAL watermarks
//	    fine-<start>.dcp              profdb bundle, one entry per series
//	    coarse-<start>.dcp
//	  CURRENT                         name of the live snapshot directory
//
// WAL records reuse the profdb binary encoding (the same size-capped,
// fuzz-hardened reader that /ingest plans bodies with guards recovery)
// inside a minimal frame:
// a little-endian uint32 length, a uint32 IEEE CRC of the body, and the
// body itself — an 8-byte ingest timestamp followed by the profdb bytes.
// Segments rotate per window bucket, so pruning a retired window is one
// file deletion, and replay knows each record's bucket from the segment
// name alone (recovery must not re-bucket old profiles by the current
// clock).
//
// Snapshots are written atomically: every window file and the manifest land
// in a temp directory first, each fsynced, then one rename publishes the
// snapshot and a CURRENT pointer file (itself written via temp + rename)
// makes it live. A crash at any point leaves either the old snapshot or the
// new one — never a torn mix. The manifest records a SHA-256 per window
// file and, per WAL segment, the byte offset the snapshot already covers;
// recovery loads the snapshot and replays only the WAL suffix beyond those
// watermarks, so nothing is double-counted.
//
// Corruption policy (the WAL is written without per-record fsync, so an OS
// crash may tear the tail): a record whose frame or CRC is broken ends that
// segment's replay — everything after a torn write is untrustworthy — while
// a record whose frame is intact but whose profdb body fails to decode is
// skipped individually. Both paths are counted and reported, and neither
// ever fails the boot.
package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
)

// EncodeProfile serializes p in the profdb single-profile encoding, the
// payload format of both WAL records and snapshot bundle entries.
func EncodeProfile(p *profiler.Profile) ([]byte, error) {
	return profdb.EncodeBundle([]profdb.Entry{{Profile: p}})
}

// DecodeProfile reverses EncodeProfile through profdb's fuzz-hardened
// decoder, straight from b; failures match profdb.ErrCorrupt. The tree
// holds exclusive aggregates only, as stored — the shape of a window tree.
func DecodeProfile(b []byte) (*profiler.Profile, error) {
	entries, err := profdb.DecodeBundle(b)
	if err != nil {
		return nil, err
	}
	return entries[0].Profile, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a power failure.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("persist: write %s: %v %v %v", path, werr, serr, cerr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}
