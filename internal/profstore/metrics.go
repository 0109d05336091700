package profstore

import (
	"time"

	"deepcontext/internal/telemetry"
)

// storeMetrics holds every telemetry handle the store records into. The
// handles are resolved once at New — hot-path recording is a few atomic
// adds, never a registry lookup — and the same counters back Stats(), so
// the JSON surface and /metrics cannot drift apart.
//
// timings gates the latency observations (the time.Now reads plus
// histogram updates on the ingest, WAL, close, compaction and snapshot
// paths) and journal events; Config.TimingsDisabled turns it off to
// measure the telemetry tax. Counters are never gated: they are the
// single source of truth for Stats().
type storeMetrics struct {
	timings bool
	reg     *telemetry.Registry
	journal *telemetry.Journal

	ingestSeconds    *telemetry.Histogram
	lockWaitSeconds  *telemetry.Histogram
	closeSeconds     *telemetry.Histogram
	compactSeconds   *telemetry.Histogram
	snapshotSeconds  *telemetry.Histogram
	recoverySeconds  *telemetry.Histogram
	sweepSeconds     *telemetry.Histogram
	walAppendSeconds *telemetry.Histogram
	walFsyncSeconds  *telemetry.Histogram

	compactions    *telemetry.Counter
	windowsFolded  *telemetry.Counter
	windowsDropped *telemetry.Counter
	windowsClosed  *telemetry.Counter
	snapshots      *telemetry.Counter
	snapshotErrors *telemetry.Counter
	batches        *telemetry.Counter
	batchProfiles  *telemetry.Counter
	walAppends     *telemetry.Counter
	walBytes       *telemetry.Counter
	walFsyncs      *telemetry.Counter
	walPruned      *telemetry.Counter
	indexRebuilds  *telemetry.Counter

	cacheHits          *telemetry.Counter
	cacheMisses        *telemetry.Counter
	cacheInvalidations *telemetry.Counter
	cacheEvictions     *telemetry.Counter

	partialsCached  *telemetry.Counter
	partialsEncoded *telemetry.Counter
}

const partialEncodingsHelp = "Series tree partials exported to a cluster query or handoff, by whether the series' cached encoding served them."

// newStoreMetrics registers the store's metric families on reg and
// resolves the recording handles. Registration is idempotent, but the
// counters are shared per registry — give each store its own registry
// (Config.Telemetry nil does this automatically).
func newStoreMetrics(reg *telemetry.Registry, timings bool) *storeMetrics {
	return &storeMetrics{
		timings: timings,
		reg:     reg,
		journal: reg.Journal(),

		ingestSeconds:    reg.Histogram("profstore_ingest_seconds", "Full Store.Ingest latency (encode, normalize, WAL append, merge)."),
		lockWaitSeconds:  reg.Histogram("profstore_shard_lock_wait_seconds", "Time an ingest waited to acquire its shard's write lock."),
		closeSeconds:     reg.Histogram("profstore_window_close_seconds", "Window-close pass latency (trend observation plus index aggregation)."),
		compactSeconds:   reg.Histogram("profstore_compaction_seconds", "Full CompactNow pass latency across all shards."),
		snapshotSeconds:  reg.Histogram("profstore_snapshot_seconds", "Full Snapshot latency (capture, encode, commit, prune)."),
		recoverySeconds:  reg.Histogram("profstore_recovery_seconds", "Full Recover latency (snapshot load plus WAL replay)."),
		sweepSeconds:     reg.Histogram("profstore_trend_sweep_seconds", "TrendSweep pass latency across all shards."),
		walAppendSeconds: reg.Histogram("profstore_wal_append_seconds", "One WAL record append, including any segment rotation it triggered."),
		walFsyncSeconds:  reg.Histogram("profstore_wal_fsync_seconds", "One WAL segment fsync (rotation, explicit sync, or close)."),

		compactions:    reg.Counter("profstore_compactions_total", "Compaction passes that folded or dropped at least one window."),
		windowsFolded:  reg.Counter("profstore_compaction_windows_folded_total", "Fine windows folded into coarse buckets by compaction."),
		windowsDropped: reg.Counter("profstore_compaction_windows_dropped_total", "Coarse windows dropped by retention."),
		windowsClosed:  reg.Counter("profstore_windows_closed_total", "Fine windows closed (observed by the trend tracker and indexed)."),
		snapshots:      reg.Counter("profstore_snapshots_total", "Snapshots committed."),
		snapshotErrors: reg.Counter("profstore_snapshot_errors_total", "Snapshot attempts that failed."),
		batches:        reg.Counter("profstore_ingest_batches_total", "Batch ingests applied (one shard-lock acquisition per shard per batch)."),
		batchProfiles:  reg.Counter("profstore_ingest_batch_profiles_total", "Profiles ingested through the batch path."),
		walAppends:     reg.Counter("profstore_wal_appends_total", "WAL records appended."),
		walBytes:       reg.Counter("profstore_wal_appended_bytes_total", "WAL bytes appended (frame headers included)."),
		walFsyncs:      reg.Counter("profstore_wal_fsyncs_total", "WAL segment fsyncs."),
		walPruned:      reg.Counter("profstore_wal_pruned_segments_total", "WAL segments deleted after snapshot coverage or retention."),
		indexRebuilds:  reg.Counter("profstore_index_rebuilds_total", "Recoveries that rebuilt the frame index from retained windows."),

		cacheHits:          reg.Counter("profstore_cache_hits_total", "Query-cache hits (generation stamps matched)."),
		cacheMisses:        reg.Counter("profstore_cache_misses_total", "Query-cache misses (no entry, or stale)."),
		cacheInvalidations: reg.Counter("profstore_cache_invalidations_total", "Query-cache misses where a depended-on window had mutated."),
		cacheEvictions:     reg.Counter("profstore_cache_evictions_total", "Query-cache LRU evictions."),

		partialsCached:  reg.Counter("dcserver_partial_encodings_total", partialEncodingsHelp, telemetry.L("result", "cached")),
		partialsEncoded: reg.Counter("dcserver_partial_encodings_total", partialEncodingsHelp, telemetry.L("result", "encoded")),
	}
}

// registerStoreGauges installs the scrape-time callbacks for occupancy
// and bookkeeping values that live under the store's own locks. They run
// under the registry mutex at render time; each takes the all-shard read
// lock briefly. Re-registering (a second store over the same registry)
// repoints the callbacks at the newest store.
func (s *Store) registerStoreGauges(reg *telemetry.Registry) {
	reg.CounterFunc("profstore_ingested_profiles_total", "Profiles ingested since the directory was created (survives restarts).",
		func() int64 { return s.occupancy().ingested })
	reg.GaugeFunc("profstore_fine_windows", "Fine windows currently retained.",
		func() float64 { return float64(s.occupancy().fine) })
	reg.GaugeFunc("profstore_coarse_windows", "Coarse windows currently retained.",
		func() float64 { return float64(s.occupancy().coarse) })
	reg.GaugeFunc("profstore_series", "Per-window series currently retained (a series in two windows counts twice).",
		func() float64 { return float64(s.occupancy().series) })
	reg.GaugeFunc("profstore_tree_nodes", "Calling-context-tree nodes currently retained.",
		func() float64 { return float64(s.occupancy().nodes) })
	reg.GaugeFunc("profstore_last_ingest_timestamp_seconds", "Unix time of the newest ingested profile; 0 when empty.",
		func() float64 { return unixSeconds(s.occupancy().lastIngest) })
	reg.GaugeFunc("profstore_cache_entries", "Query-cache entries currently held.",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("profstore_last_snapshot_timestamp_seconds", "Unix time of the last successful snapshot; 0 when never.",
		func() float64 {
			ns := s.lastSnapshot.Load()
			if ns == 0 {
				return 0
			}
			return float64(ns) / 1e9
		})
	reg.GaugeFunc("profstore_last_snapshot_bytes", "Bytes committed by the last successful snapshot.",
		func() float64 { return float64(s.lastSnapBytes.Load()) })
	reg.GaugeFunc("profstore_trend_series", "Series the regression detector tracks.",
		func() float64 { return float64(s.trendStats().Series) })
	reg.GaugeFunc("profstore_trend_frames", "Per-series frames the regression detector tracks.",
		func() float64 { return float64(s.trendStats().Frames) })
	reg.GaugeFunc("profstore_trend_findings", "Regression findings currently retained.",
		func() float64 { return float64(s.trendStats().Findings) })
	reg.GaugeFunc("profstore_trend_suppressed", "Trend drifts suppressed below the confirmation threshold.",
		func() float64 { return float64(s.trendStats().Suppressed) })
	reg.GaugeFunc("profstore_index_frames", "Distinct frames in the fleet-query index.",
		func() float64 { return float64(s.indexOccupancy().frames) })
	reg.GaugeFunc("profstore_index_postings", "Series postings in the fleet-query index.",
		func() float64 { return float64(s.indexOccupancy().postings) })
}

func unixSeconds(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// storeOccupancy is one consistent cut of the per-shard occupancy values
// Stats() also reports.
type storeOccupancy struct {
	fine, coarse  int
	series, nodes int
	ingested      int64
	lastIngest    time.Time
}

func (s *Store) occupancy() storeOccupancy {
	s.rlockAll()
	defer s.runlockAll()
	var oc storeOccupancy
	fineStarts := make(map[int64]bool)
	coarseStarts := make(map[int64]bool)
	for _, sh := range s.shards {
		oc.ingested += sh.ingested
		if sh.lastIngest.After(oc.lastIngest) {
			oc.lastIngest = sh.lastIngest
		}
		for k, w := range sh.fine {
			fineStarts[k] = true
			oc.series += len(w.series)
			oc.nodes += w.nodes()
		}
		for k, w := range sh.coarse {
			coarseStarts[k] = true
			oc.series += len(w.series)
			oc.nodes += w.nodes()
		}
	}
	oc.fine, oc.coarse = len(fineStarts), len(coarseStarts)
	return oc
}

// trendStats sums the per-shard tracker stats (zero when tracking is
// disabled).
func (s *Store) trendStats() TrendStats {
	var ts TrendStats
	s.rlockAll()
	defer s.runlockAll()
	for _, sh := range s.shards {
		if sh.tracker == nil {
			continue
		}
		st := sh.tracker.Stats()
		ts.Series += st.Series
		ts.Frames += st.Frames
		ts.Findings += st.Findings
		ts.Suppressed += st.Suppressed
		ts.Late += st.Late
	}
	return ts
}

type indexOccupancy struct {
	frames, postings int64
}

func (s *Store) indexOccupancy() indexOccupancy {
	var oc indexOccupancy
	s.rlockAll()
	defer s.runlockAll()
	for _, sh := range s.shards {
		if sh.idx != nil {
			oc.frames += int64(sh.idx.in.Len())
			oc.postings += sh.idx.postings
		}
	}
	return oc
}
