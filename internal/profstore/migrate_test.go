package profstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepcontext/internal/profstore/persist"
)

// fillShardedStores ingests an identical multi-series sequence — enough
// distinct series to populate several shards — into every store, across
// two windows.
func fillShardedStores(t *testing.T, clock *fakeClock, stores ...*Store) {
	t.Helper()
	pool := equivSeriesPool
	for i := 0; i < 10; i++ {
		lb := pool[i%len(pool)]
		for _, s := range stores {
			mustIngest(t, s, synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x1000+i*64), float64(i%4+1)))
		}
	}
	clock.Advance(time.Minute)
	for i := 0; i < 6; i++ {
		lb := pool[(i+2)%len(pool)]
		for _, s := range stores {
			mustIngest(t, s, synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x7000+i*32), float64(i+2)))
		}
	}
}

// The per-shard WAL crash path: a sharded store killed mid-stream — some
// ingests snapshotted, later ones only in the per-shard WALs, no clean
// shutdown — must recover byte-equal to an uninterrupted control store,
// with every replayed record landing back in the shard that logged it.
func TestShardedCrashRecoveryIsByteEqual(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(map[int]string{2: "shards=2", 4: "shards=4"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			clock := newClock(base)
			cfg := Config{Window: time.Minute, Shards: shards, Now: clock.Now, Dir: dir}
			memCfg := cfg
			memCfg.Dir = ""
			durable := New(cfg)
			control := New(memCfg)

			// First batch lands, a snapshot commits, then a second batch
			// reaches only the WALs before the "kill" (no Close, no final
			// snapshot — the page cache holds the unsynced appends, as it
			// does when a process dies).
			fillShardedStores(t, clock, durable, control)
			if _, err := durable.Snapshot(); err != nil {
				t.Fatal(err)
			}
			clock.Advance(time.Minute)
			for i := 0; i < 5; i++ {
				lb := equivSeriesPool[i%len(equivSeriesPool)]
				p := synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x9000+i*16), float64(i+3))
				mustIngest(t, durable, p)
				mustIngest(t, control, synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x9000+i*16), float64(i+3)))
			}
			want := queryImage(t, control, base, base.Add(2*time.Minute))
			if got := queryImage(t, durable, base, base.Add(2*time.Minute)); string(got) != string(want) {
				t.Fatal("durable store diverged from control before the crash")
			}

			// Sanity: the stripes really did fan out on disk.
			dirs, err := shardDirsIn(dir)
			if err != nil || len(dirs) != shards {
				t.Fatalf("shard dirs = %v (%v), want %d", dirs, err, shards)
			}

			revived := New(cfg)
			rs, err := revived.Recover()
			if err != nil {
				t.Fatal(err)
			}
			defer revived.Close()
			if !rs.SnapshotLoaded || rs.Migrated {
				t.Fatalf("recovery = %+v", rs)
			}
			if rs.WALRecords != 5 {
				t.Fatalf("replayed %d records, want only the 5 past the snapshot (%+v)", rs.WALRecords, rs)
			}
			if got := queryImage(t, revived, base, base.Add(2*time.Minute)); string(got) != string(want) {
				t.Fatalf("recovered image differs from uninterrupted store:\n got %s\nwant %s", got, want)
			}
			if st := revived.Stats(); st.Ingested != 21 {
				t.Fatalf("recovered ingested = %d, want 21", st.Ingested)
			}
		})
	}
}

// legacyRootFrom builds a genuine pre-shard single-store layout at dst: a
// shards=1 store's shard directory IS the legacy layout, so its contents
// (wal/, snap-*, CURRENT) are lifted to the root, exactly where the
// pre-shard store wrote them.
func legacyRootFrom(t *testing.T, clock *fakeClock, dst string, withSnapshot bool) {
	t.Helper()
	staging := t.TempDir()
	s := New(Config{Window: time.Minute, Shards: 1, Now: clock.Now, Dir: staging})
	fillShardedStores(t, clock, s)
	if withSnapshot {
		if _, err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(time.Minute)
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0xABC0, 7))
	s.Close()
	src := filepath.Join(staging, "shard-0")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.Rename(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// A data directory in the pre-shard layout (root-level wal/ and CURRENT,
// no STORE.json) is refused, not adopted: Recover and the first ingest
// both fail with an error that names the layout, and no file in the
// directory changes.
func TestRecoverRefusesPreShardLayout(t *testing.T) {
	for _, tc := range []struct {
		name         string
		withSnapshot bool
	}{{"snapshot-plus-wal", true}, {"wal-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newClock(base)
			legacyRootFrom(t, clock, dir, tc.withSnapshot)
			if !persist.LegacyLayoutPresent(dir) {
				t.Fatal("setup: no legacy layout at root")
			}
			before := dirImage(t, dir)

			cfg := Config{Window: time.Minute, Shards: 4, Now: clock.Now, Dir: dir}
			s := New(cfg)
			if _, err := s.Recover(); err == nil || !strings.Contains(err.Error(), "pre-shard") {
				t.Fatalf("Recover over a pre-shard layout: err = %v, want one naming the layout", err)
			}
			if _, err := s.Ingest(synthProfile("DLRM", "AMD", "pytorch", 0xF00, 2)); err == nil || !strings.Contains(err.Error(), "pre-shard") {
				t.Fatalf("ingest over a pre-shard layout: err = %v, want one naming the layout", err)
			}
			s.Close()
			if after := dirImage(t, dir); after != before {
				t.Fatalf("a refused directory changed:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// dirImage lists every file under dir with its size and contents, for
// comparing a directory before and after an operation.
func dirImage(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			fmt.Fprintf(&b, "%s/\n", rel)
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %x\n", rel, info.Size(), sha256.Sum256(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Changing -store-shards over an existing directory re-commits it under
// the new count — growth and shrink — without double-replaying any WAL
// record or losing a series.
func TestMigrationAcrossShardCountChanges(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := func(shards int) Config {
		return Config{Window: time.Minute, Shards: shards, Now: clock.Now, Dir: dir}
	}
	memCfg := Config{Window: time.Minute, Now: clock.Now}
	control := New(memCfg)

	first := New(cfg(2))
	if _, err := first.Recover(); err != nil { // fresh dir: commits layout
		t.Fatal(err)
	}
	fillShardedStores(t, clock, first, control)
	if _, err := first.Snapshot(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	for _, s := range []*Store{first, control} {
		mustIngest(t, s, synthProfile("Bert", "AMD", "jax", 0xD00, 3))
	}
	first.Close() // WAL suffix beyond the snapshot survives in shard WALs

	for _, step := range []struct {
		shards      int
		wantMigrate bool
	}{
		{5, true},  // grow 2 → 5
		{3, true},  // shrink 5 → 3
		{3, false}, // steady state
	} {
		s := New(cfg(step.shards))
		rs, err := s.Recover()
		if err != nil {
			t.Fatalf("shards=%d: %v", step.shards, err)
		}
		if rs.Migrated != step.wantMigrate {
			t.Fatalf("shards=%d: migrated = %v, want %v (%+v)", step.shards, rs.Migrated, step.wantMigrate, rs)
		}
		want := queryImage(t, control, base, base.Add(2*time.Minute))
		if got := queryImage(t, s, base, base.Add(2*time.Minute)); string(got) != string(want) {
			t.Fatalf("shards=%d: image diverged:\n got %s\nwant %s", step.shards, got, want)
		}
		if st := s.Stats(); st.Ingested != 17 {
			t.Fatalf("shards=%d: ingested = %d, want 17 (double replay?)", step.shards, st.Ingested)
		}
		meta, err := persist.ReadStoreMeta(dir)
		if err != nil || meta == nil || meta.Shards != step.shards {
			t.Fatalf("shards=%d: meta = %+v (%v)", step.shards, meta, err)
		}
		if dirs, _ := shardDirsIn(dir); len(dirs) > step.shards {
			t.Fatalf("shards=%d: stale shard dirs remain: %v", step.shards, dirs)
		}
		s.Close()
	}
}

// A migration that crashes BEFORE its STORE.json commit leaves the old
// layout fully authoritative: staging junk under .migrate/ must be
// ignored and wiped, whether the next boot re-migrates or boots the old
// count. This pins the non-destructive property — staging a 2→4
// migration must not have touched the 2-shard sources at all.
func TestMigrationCrashBeforeCommitKeepsOldLayoutAuthoritative(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := func(shards int) Config {
		return Config{Window: time.Minute, Shards: shards, Now: clock.Now, Dir: dir}
	}
	control := New(Config{Window: time.Minute, Now: clock.Now})
	first := New(cfg(2))
	if _, err := first.Recover(); err != nil {
		t.Fatal(err)
	}
	fillShardedStores(t, clock, first, control)
	if _, err := first.Snapshot(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	for _, s := range []*Store{first, control} {
		mustIngest(t, s, synthProfile("Bert", "AMD", "jax", 0xE10, 4))
	}
	first.Close()
	want := queryImage(t, control, base, base.Add(2*time.Minute))

	// Simulate the pre-commit crash: a partially (or even fully) staged
	// new layout exists, but STORE.json still names 2 shards.
	staging := filepath.Join(dir, ".migrate")
	if err := os.MkdirAll(filepath.Join(staging, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staging, "shard-0", "CURRENT"), []byte("snap-99\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4} { // same-count boot, then a re-migration
		s := New(cfg(shards))
		rs, err := s.Recover()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rs.Migrated != (shards != 2) {
			t.Fatalf("shards=%d: migrated=%v (%+v)", shards, rs.Migrated, rs)
		}
		if got := queryImage(t, s, base, base.Add(2*time.Minute)); string(got) != string(want) {
			t.Fatalf("shards=%d: image diverged after pre-commit crash:\n got %s\nwant %s", shards, got, want)
		}
		if st := s.Stats(); st.Ingested != 17 {
			t.Fatalf("shards=%d: ingested = %d, want 17", shards, st.Ingested)
		}
		if _, err := os.Stat(staging); !os.IsNotExist(err) {
			t.Fatalf("shards=%d: staging junk survived the boot", shards)
		}
		s.Close()
		if shards == 2 {
			// Re-seed the fake staging junk for the second (migrating) boot.
			if err := os.MkdirAll(filepath.Join(staging, "shard-1"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A migration that crashes AFTER its STORE.json commit but mid-swap is
// resumed by the next boot: staged shard directories still present are
// swapped in, already-swapped ones are kept, and queries answer
// byte-equal to the uninterrupted store.
func TestMigrationCrashMidSwapResumes(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := func(shards int) Config {
		return Config{Window: time.Minute, Shards: shards, Now: clock.Now, Dir: dir}
	}
	control := New(Config{Window: time.Minute, Now: clock.Now})
	first := New(cfg(2))
	if _, err := first.Recover(); err != nil {
		t.Fatal(err)
	}
	fillShardedStores(t, clock, first, control)
	first.Close()
	want := queryImage(t, control, base, base.Add(time.Minute))

	// Run the 2→4 migration for real, then rewind it to the mid-swap
	// crash state: two shards back in staging, pending marker restored.
	migrated := New(cfg(4))
	if rs, err := migrated.Recover(); err != nil || !rs.Migrated {
		t.Fatalf("setup migration: %+v, %v", rs, err)
	}
	if got := queryImage(t, migrated, base, base.Add(time.Minute)); string(got) != string(want) {
		t.Fatal("setup: migrated image diverged")
	}
	migrated.Close()
	staging := filepath.Join(dir, ".migrate")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shard-2", "shard-3"} {
		if err := os.Rename(filepath.Join(dir, name), filepath.Join(staging, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := persist.WriteStoreMeta(dir, persist.StoreMeta{Shards: 4, Pending: ".migrate"}); err != nil {
		t.Fatal(err)
	}

	revived := New(cfg(4))
	rs, err := revived.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	if rs.Migrated {
		t.Fatalf("resumed swap must not count as a new migration: %+v", rs)
	}
	found := false
	for _, w := range rs.Warnings {
		if strings.Contains(w, "resumed an interrupted layout swap") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no resume warning: %v", rs.Warnings)
	}
	if got := queryImage(t, revived, base, base.Add(time.Minute)); string(got) != string(want) {
		t.Fatalf("resumed-swap image diverged:\n got %s\nwant %s", got, want)
	}
	meta, err := persist.ReadStoreMeta(dir)
	if err != nil || meta == nil || meta.Shards != 4 || meta.Pending != "" {
		t.Fatalf("meta after resume = %+v (%v)", meta, err)
	}
	if _, err := os.Stat(staging); !os.IsNotExist(err) {
		t.Fatal("staging survived the resumed swap")
	}
}

// Ingesting into a directory committed under another layout must refuse
// (Recover owns migrations); a directory matching the configured layout
// ingests fine without an explicit Recover.
func TestIngestRefusesForeignLayout(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	s2 := New(Config{Window: time.Minute, Shards: 2, Now: clock.Now, Dir: dir})
	mustIngest(t, s2, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	s2.Close()

	s4 := New(Config{Window: time.Minute, Shards: 4, Now: clock.Now, Dir: dir})
	defer s4.Close()
	if _, err := s4.Ingest(synthProfile("UNet", "Nvidia", "pytorch", 0x2, 1)); err == nil {
		t.Fatal("ingest into a 2-shard directory from a 4-shard store should refuse")
	}

	again := New(Config{Window: time.Minute, Shards: 2, Now: clock.Now, Dir: dir})
	defer again.Close()
	if _, err := again.Recover(); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, again, synthProfile("UNet", "Nvidia", "pytorch", 0x3, 1))
}
