package profstore

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore/persist"
	"deepcontext/internal/profstore/trend"
)

// RecoveryStats reports what Recover rebuilt and what it had to skip,
// summed across every source directory it read.
type RecoveryStats struct {
	SnapshotLoaded bool `json:"snapshot_loaded"`
	// SnapshotError is the non-fatal reason a snapshot was unusable
	// (recovery then replays that source's WAL from the beginning).
	SnapshotError      string `json:"snapshot_error,omitempty"`
	WindowsRestored    int    `json:"windows_restored"`
	ProfilesFromSnap   int64  `json:"profiles_from_snapshot"`
	WALSegments        int    `json:"wal_segments"`
	WALRecords         int64  `json:"wal_records"`
	WALSkippedRecords  int64  `json:"wal_skipped_records"`
	WALSkippedSegments int    `json:"wal_skipped_segments"`
	// Migrated reports that the directory was adopted from another layout
	// (the pre-shard single-store layout, or a different shard count) and
	// re-committed under the current one.
	Migrated bool     `json:"migrated,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

// migrateDirName is the staging subdirectory a layout migration builds
// the complete new layout in before committing it (see commitMigration).
const migrateDirName = ".migrate"

var shardDirPattern = regexp.MustCompile(`^shard-(\d+)$`)

// shardDirsIn lists the shard subdirectory indices present under dataDir.
func shardDirsIn(dataDir string) ([]int, error) {
	ents, err := os.ReadDir(dataDir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if m := shardDirPattern.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil {
				out = append(out, n)
			}
		}
	}
	return out, nil
}

// wipeShardDirs removes every shard subdirectory with index >= from —
// migration leftovers the committed layout does not name.
func wipeShardDirs(dataDir string, from int) {
	idxs, err := shardDirsIn(dataDir)
	if err != nil {
		return
	}
	for _, i := range idxs {
		if i >= from {
			os.RemoveAll(shardDir(dataDir, i))
		}
	}
}

// Recover rebuilds the store from Config.Dir: each source directory's
// latest snapshot first, then the WAL suffix beyond that snapshot's
// watermarks, re-ingested through the same normalize-and-merge path in
// original order — so recovered Hotspots and Diff results are byte-equal
// to the pre-crash store. It must run on an empty store (call it before
// serving). Corrupt snapshots or WAL tails are skipped and reported in
// RecoveryStats, never fatal; only an unusable data directory errors.
//
// Recover is also the migration path. The directory's committed layout is
// named by its STORE.json (written atomically — the commit point of every
// migration): shard directories it does not name, and pre-shard
// single-store artifacts after a committed migration, are leftovers and
// are wiped, never read. A directory committed under another layout — the
// legacy single-store root, or a different shard count — is adopted by
// routing every recovered series to its current shard and staging the
// complete new layout under .migrate/ while every source file stays
// untouched; one STORE.json write (naming the staging directory as
// pending) then flips authority to the new layout, and the staged shard
// directories swap into place before the old layout's files are removed.
// A crash before the STORE.json write leaves the old layout fully
// authoritative (staging is junk the next boot wipes); a crash after it
// is resumed by the next boot's swap — at every instant exactly one
// layout is authoritative, never a torn mix.
func (s *Store) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	var t0 time.Time
	if s.met.timings {
		t0 = time.Now()
	}
	if s.cfg.Dir == "" {
		return rs, fmt.Errorf("profstore: recover: no Config.Dir")
	}
	if !s.emptyForRecover() {
		return rs, fmt.Errorf("profstore: recover: store is not empty")
	}
	dir := s.cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rs, fmt.Errorf("profstore: recover: data dir: %w", err)
	}
	meta, err := persist.ReadStoreMeta(dir)
	if err != nil {
		return rs, fmt.Errorf("profstore: recover: %w", err)
	}
	if meta != nil && meta.Pending != "" {
		// A committed migration died mid-swap. The staged layout is
		// authoritative; finish the swap before reading any shard
		// directory.
		if err := completeSwap(dir, meta); err != nil {
			return rs, fmt.Errorf("profstore: recover: resume layout swap: %w", err)
		}
		rs.Warnings = append(rs.Warnings, "resumed an interrupted layout swap")
	}
	legacy := persist.LegacyLayoutPresent(dir)

	var sources []string
	migrate := false
	switch {
	case meta == nil && legacy:
		// First boot over a pre-shard directory: the root itself is the
		// only trusted source. Shard directories, if any, are handcrafted
		// junk (an uncommitted migration never writes them — it stages
		// under .migrate/) — wipe them.
		wipeShardDirs(dir, 0)
		sources = []string{dir}
		migrate = true
	case meta == nil:
		// No committed layout. Normally a fresh directory; shard
		// directories can only appear here handcrafted (ingest writes the
		// meta before the first WAL byte), so adopt whatever exists and
		// re-commit it under the configured layout.
		idxs, err := shardDirsIn(dir)
		if err != nil {
			return rs, fmt.Errorf("profstore: recover: %w", err)
		}
		for _, i := range idxs {
			sources = append(sources, shardDir(dir, i))
		}
		migrate = len(sources) > 0
	default:
		if legacy {
			// A committed migration's leftovers; the data already lives in
			// the shard directories. Clean, never read.
			if err := persist.RemoveLegacyLayout(dir); err != nil {
				rs.Warnings = append(rs.Warnings, fmt.Sprintf("legacy layout cleanup: %v", err))
			}
		}
		// Shard directories beyond the committed count are leftovers the
		// committed layout does not name — wipe, never read.
		wipeShardDirs(dir, meta.Shards)
		for i := 0; i < meta.Shards; i++ {
			d := shardDir(dir, i)
			if _, err := os.Stat(d); err == nil {
				sources = append(sources, d)
			}
		}
		migrate = meta.Shards != len(s.shards)
	}
	// Staging left by a migration that crashed before its commit point is
	// junk (the sources above are still authoritative and complete).
	os.RemoveAll(filepath.Join(dir, migrateDirName))

	for _, src := range sources {
		if err := s.recoverSource(src, &rs); err != nil {
			return rs, err
		}
	}
	// If a compaction ran between the last snapshot and the crash, the
	// replayed data sits in fine windows the pre-crash store had already
	// folded coarse. Re-running the (deterministic, sorted-order) fold
	// converges the recovered arrangement — and the trees themselves —
	// with the pre-crash store before the first query sees it.
	s.CompactNow()

	if migrate {
		rs.Migrated = true
		if err := s.commitMigration(dir); err != nil {
			return rs, fmt.Errorf("profstore: recover: migrate: %w", err)
		}
	} else if meta == nil {
		// Fresh directory: commit the layout before serving.
		if err := persist.WriteStoreMeta(dir, persist.StoreMeta{Shards: len(s.shards)}); err != nil {
			return rs, fmt.Errorf("profstore: recover: %w", err)
		}
	}
	// The layout is committed and matches this store; skip ensureMeta's
	// disk round-trip on the first ingest.
	s.noteMetaCommitted()
	s.recovery.Store(&rs)
	if s.met.timings {
		d := time.Since(t0)
		s.met.recoverySeconds.Observe(d)
		s.met.journal.Record("recovery",
			fmt.Sprintf("restored %d windows, replayed %d WAL records", rs.WindowsRestored, rs.WALRecords),
			"windows", fmt.Sprint(rs.WindowsRestored),
			"wal_records", fmt.Sprint(rs.WALRecords),
			"skipped_records", fmt.Sprint(rs.WALSkippedRecords),
			"migrated", fmt.Sprint(rs.Migrated),
			"duration", d.String())
	}
	return rs, nil
}

// commitMigration re-commits the store's recovered in-memory state under
// the configured layout without touching any source file until the new
// layout is durable: the complete new layout (snapshot-only shard images,
// no WAL) is staged under .migrate/, one atomic STORE.json write naming
// the staging directory flips authority to it, and completeSwap then
// moves the staged directories into place and removes the old layout.
func (s *Store) commitMigration(dir string) error {
	staging := filepath.Join(dir, migrateDirName)
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	now := s.cfg.Now()
	comp := s.met.compactions.Value()
	for i, sh := range s.shards {
		c := int64(0)
		if i == 0 {
			c = comp
		}
		if _, err := sh.exportTo(filepath.Join(staging, fmt.Sprintf("shard-%d", i)), now, c); err != nil {
			return fmt.Errorf("stage shard %d: %w", i, err)
		}
	}
	meta := persist.StoreMeta{Shards: len(s.shards), Pending: migrateDirName}
	if err := persist.WriteStoreMeta(dir, meta); err != nil {
		return err
	}
	return completeSwap(dir, &meta)
}

// completeSwap finishes a committed migration: every staged shard
// directory still present swaps into place (one atomic rename each — an
// absent one was swapped by an earlier interrupted attempt), then the old
// layout's remnants — shard directories beyond the committed count,
// legacy single-store files, the staging directory — are removed and
// STORE.json is rewritten without the pending marker. Idempotent: a boot
// finding Pending set calls this before reading any shard directory.
func completeSwap(dataDir string, meta *persist.StoreMeta) error {
	staging := filepath.Join(dataDir, meta.Pending)
	for i := 0; i < meta.Shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		src := filepath.Join(staging, name)
		if _, err := os.Stat(src); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		dst := filepath.Join(dataDir, name)
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := os.Rename(src, dst); err != nil {
			return err
		}
	}
	wipeShardDirs(dataDir, meta.Shards)
	persist.RemoveLegacyLayout(dataDir)
	os.RemoveAll(staging)
	meta.Pending = ""
	return persist.WriteStoreMeta(dataDir, *meta)
}

func (s *Store) emptyForRecover() bool {
	s.rlockAll()
	defer s.runlockAll()
	for _, sh := range s.shards {
		if sh.ingested != 0 || len(sh.fine) != 0 || len(sh.coarse) != 0 {
			return false
		}
	}
	return true
}

// recoverSource loads one persist layout (a shard directory, or the legacy
// single-store root) into the store, routing every recovered series and
// WAL record to its current shard. Within one series all data comes from
// one source and replays in original ingest order, so per-series trees are
// rebuilt byte-equal regardless of how routing changed.
func (s *Store) recoverSource(src string, rs *RecoveryStats) error {
	var offsets map[int64]int64
	indexAdopted := false
	snap, err := persist.ReadSnapshot(src)
	switch {
	case err != nil:
		// A snapshot that fails its checksums is discarded wholesale and
		// this source degrades to WAL-only — losing the windows whose
		// segments were pruned, but never refusing to boot.
		if rs.SnapshotError != "" {
			rs.SnapshotError += "; "
		}
		rs.SnapshotError += err.Error()
	case snap != nil:
		rs.SnapshotLoaded = true
		rs.ProfilesFromSnap += snap.Ingested
		// Counter remainders (all-time ingest total, ages-out data
		// included) ride on shard 0 so directory-wide sums are conserved
		// across snapshot/recover cycles regardless of routing.
		sh0 := s.shards[0]
		sh0.mu.Lock()
		sh0.ingested += snap.Ingested
		if snap.LastIngestUnixNano != 0 {
			if ts := time.Unix(0, snap.LastIngestUnixNano); ts.After(sh0.lastIngest) {
				sh0.lastIngest = ts
			}
		}
		sh0.mu.Unlock()
		s.met.compactions.Add(snap.Compactions)
		for _, ws := range snap.Windows {
			for _, ss := range ws.Series {
				// Snapshot trees were normalized at original ingest and
				// are adopted as-is; labels round-trip through Meta.
				labels := LabelsOf(ss.Profile.Meta)
				sh := s.shardFor(labels.Key())
				sh.mu.Lock()
				sh.adoptSeriesLocked(ws.Start, ws.DurNS, ws.Coarse, ss.Key, labels, ss.Profile.Tree, ss.Profiles)
				sh.mu.Unlock()
			}
			rs.WindowsRestored++
		}
		// Adopt the snapshot's trend-tracker state, each series routed to
		// its current shard (so trend state survives shard-count
		// migrations too). Windows observed after this snapshot are
		// re-observed by the catch-up pass Recover's CompactNow runs —
		// replayed windows recover byte-equal and are fed in the same
		// per-series order, so the tracker converges with the pre-crash
		// store. A corrupt blob degrades to rebuilding from retained
		// windows only, reported but never fatal.
		if len(snap.Trend) > 0 && !s.cfg.Trend.Disabled {
			states, terr := trend.DecodeState(snap.Trend)
			if terr != nil {
				rs.Warnings = append(rs.Warnings, fmt.Sprintf("trend state discarded: %v", terr))
			} else {
				for _, key := range sortedKeys(states) {
					sh := s.shardFor(key)
					sh.mu.Lock()
					sh.tracker.Adopt(key, states[key])
					sh.mu.Unlock()
				}
			}
		}
		// Adopt the snapshot's frame index, each posting routed to the
		// series' current shard (like trend state, so the index survives
		// shard-count migrations). Postings are over-approximate, so
		// adopting historical ones is always sound; windows replayed beyond
		// the snapshot re-register their frames when the catch-up
		// CompactNow closes them. A corrupt blob degrades to rebuilding
		// from retained windows, reported but never fatal.
		if !s.cfg.IndexDisabled && len(snap.Index) > 0 {
			st, ierr := decodeIndexState(snap.Index)
			if ierr != nil {
				rs.Warnings = append(rs.Warnings, fmt.Sprintf("index state discarded: %v", ierr))
			} else {
				for _, sh := range s.shards {
					sh.mu.Lock()
					for _, fs := range st.Frames {
						var keys []string
						for _, key := range fs.Series {
							if s.shardFor(key) == sh {
								keys = append(keys, key)
							}
						}
						if len(keys) > 0 {
							sh.idx.adoptFrame(fs, keys)
						}
					}
					sh.mu.Unlock()
				}
				indexAdopted = true
			}
		}
		offsets = snap.WALOffsets
	}

	wal, err := persist.OpenWAL(src)
	if err != nil {
		return fmt.Errorf("profstore: recover: %w", err)
	}
	rep, err := wal.ReplayRecords(offsets, func(start, tstamp int64, payload []byte) error {
		// A record is planned straight from its bytes, like a served
		// ingest; a payload holds one profile.
		ps, err := profdb.PlanBundle(payload)
		if err != nil {
			return err
		}
		defer ps.Release()
		rec := &ps.Records[0]
		labels := LabelsOf(rec.Meta)
		key := labels.Key()
		sh := s.shardFor(key)
		sh.mu.Lock()
		sh.mergeIntoWindowLocked(time.Unix(0, start), key, labels, rec.Plan)
		sh.ingested++
		if ts := time.Unix(0, tstamp); ts.After(sh.lastIngest) {
			sh.lastIngest = ts
		}
		sh.mu.Unlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("profstore: recover: wal replay: %w", err)
	}
	rs.WALSegments += rep.Segments
	rs.WALRecords += rep.Records
	rs.WALSkippedRecords += rep.SkippedRecords
	rs.WALSkippedSegments += rep.SkippedSegments
	// A source that carried data but no usable index blob (pre-index
	// snapshot, corrupt blob, or WAL-only recovery) forces an index
	// rebuild from the retained windows — Recover's CompactNow does the
	// actual work; here we only count it for Stats.
	if !s.cfg.IndexDisabled && !indexAdopted &&
		(rep.Records > 0 || (snap != nil && len(snap.Windows) > 0)) {
		s.met.indexRebuilds.Inc()
		if s.met.timings {
			s.met.journal.Record("index_rebuild",
				fmt.Sprintf("source %s carried no usable frame index; rebuilding from retained windows", filepath.Base(src)),
				"source", filepath.Base(src))
		}
	}
	if len(rep.Warnings) > 0 && src != s.cfg.Dir {
		prefix := filepath.Base(src) + ": "
		for _, w := range rep.Warnings {
			rs.Warnings = append(rs.Warnings, prefix+w)
		}
	} else {
		rs.Warnings = append(rs.Warnings, rep.Warnings...)
	}
	return nil
}

// adoptSeriesLocked installs one snapshot-recovered series tree into the
// bucket starting at startNS, merging if the series already exists (which
// only happens for handcrafted multi-source overlaps). Callers hold sh.mu
// exclusively.
func (sh *shard) adoptSeriesLocked(startNS, durNS int64, coarse bool, key string, labels Labels, tree *cct.Tree, profiles int) {
	m := sh.fine
	if coarse {
		m = sh.coarse
	}
	w := m[startNS]
	if w == nil {
		w = &window{
			start:  time.Unix(0, startNS),
			dur:    time.Duration(durNS),
			series: make(map[string]*series),
		}
		m[startNS] = w
	}
	if ser := w.series[key]; ser != nil {
		ser.merge(tree) // re-aggregated at the next close pass
		ser.profiles += profiles
	} else {
		w.series[key] = &series{labels: labels, tree: tree, profiles: profiles}
	}
	sh.gens[winKey{startNS, coarse}]++
}
