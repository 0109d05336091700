package profstore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepcontext/internal/profdb"
)

// copyTree copies a committed fixture directory into dst so a test can
// recover and write into it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeInPlaceFromGobDataDir boots the current binary on data
// directories written by the last release whose profdb writer was gob, and
// by the last whose writer was v4, which stored inclusive slots too
// (testdata/upgrade: the first ten profiles of the golden corpus, stopping
// inside window 3 — once as WAL segments only, once snapshotted). No
// migration step: recovery reads the old records, the rest of the corpus
// appends v5 records to the very segment that holds the old ones, and the
// store must answer the recorded goldens — straight away, after a restart
// that has to replay that mixed segment, and after one from a fresh (v5)
// snapshot.
func TestUpgradeInPlaceFromGobDataDir(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "queries.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	const held = 10
	for fixture, oldMagic := range map[string]string{
		"wal-only":    "DEEPCONTEXT-PROFDB-2",
		"snapshot":    "DEEPCONTEXT-PROFDB-2",
		"v4-wal-only": "DEEPCONTEXT-PROFDB-4",
		"v4-snapshot": "DEEPCONTEXT-PROFDB-4",
	} {
		t.Run(fixture, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", "upgrade", fixture), dir)
			clock := newClock(base.Add(3 * time.Minute))
			cfg := goldenConfigs()[0]
			cfg.Now = clock.Now
			cfg.Dir = dir

			s := New(cfg)
			rs, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.WALSkippedRecords != 0 || rs.WALSkippedSegments != 0 {
				t.Fatalf("recovery skipped legacy records: %+v", rs)
			}
			if strings.HasSuffix(fixture, "snapshot") {
				if !rs.SnapshotLoaded || rs.ProfilesFromSnap != held {
					t.Fatalf("recovery = %+v, want all %d profiles from the old snapshot", rs, held)
				}
			} else if rs.SnapshotLoaded || rs.WALRecords != held {
				t.Fatalf("recovery = %+v, want %d old WAL records", rs, held)
			}
			if got := s.Stats().Ingested; got != held {
				t.Fatalf("recovered %d profiles, want %d", got, held)
			}

			// The segment of window 3 must now grow v5 records behind its
			// old one.
			seg := filepath.Join(dir, "shard-0", "wal", "1767225780000000000.wal")
			before, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			goldenCorpusFrom(t, s, clock, held)
			if got := goldenImage(t, s); !bytes.Equal(got, want) {
				t.Fatal("upgraded store diverged from the golden")
			}
			s.Close()
			after, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(after, before) || !bytes.Contains(before, []byte(oldMagic)) ||
				!bytes.Contains(after[len(before):], []byte(profdb.FormatMagic)) {
				t.Fatalf("segment %s is not %s records followed by v5 records (%d -> %d bytes)", seg, oldMagic, len(before), len(after))
			}

			// Restart over the mixed log.
			revived := New(cfg)
			rs, err = revived.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.WALSkippedRecords != 0 || rs.WALSkippedSegments != 0 {
				t.Fatalf("mixed-log recovery skipped records: %+v", rs)
			}
			if got := goldenImage(t, revived); !bytes.Equal(got, want) {
				t.Fatal("restart over the mixed old/v5 log diverged from the golden")
			}
			// And once more from a snapshot this binary wrote.
			if _, err := revived.Snapshot(); err != nil {
				t.Fatal(err)
			}
			revived.Close()
			again := New(cfg)
			if rs, err = again.Recover(); err != nil || !rs.SnapshotLoaded {
				t.Fatalf("recovery from the new snapshot: %v, %+v", err, rs)
			}
			defer again.Close()
			if got := goldenImage(t, again); !bytes.Equal(got, want) {
				t.Fatal("restart from the v5 snapshot diverged from the golden")
			}
		})
	}
}
