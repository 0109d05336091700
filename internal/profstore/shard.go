package profstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore/persist"
	"deepcontext/internal/profstore/trend"
)

// series is one label set's rolling aggregate within a window.
type series struct {
	labels   Labels
	tree     *cct.Tree
	profiles int
	// agg is the close-time per-label aggregate for the fleet queries;
	// nil while the window is open or after late data lands (queries then
	// compute on the fly). Non-nil implies the tree is registered in the
	// owning shard's frame index under this series' key — the invariant
	// Search's posting-list skip relies on (see index.go).
	agg *seriesAgg
	// enc caches the tree's persist.EncodeProfile bytes for partial
	// exports, filled on first export and cleared by every tree mutation
	// (mergePlan, merge). Readers under the shard read lock may race to
	// fill it; both encode the same bytes.
	enc atomic.Pointer[[]byte]
}

// mergePlan folds a planned profile into the series tree.
func (s *series) mergePlan(p *cct.Plan) {
	s.tree.MergePlan(p)
	s.changed()
}

// merge folds another tree into the series tree.
func (s *series) merge(t *cct.Tree) {
	cct.Merge(s.tree, t)
	s.changed()
}

// changed drops what was derived from the tree before it mutated: the
// close-time aggregate (late data into a closed bucket, a compaction fold
// or a recovery overlap; queries fall back to the tree until the next
// close pass) and the cached encoding. Every tree mutation goes through
// mergePlan or merge, so none can leave a stale encoding behind.
func (s *series) changed() {
	s.agg = nil
	s.enc.Store(nil)
}

// encoded returns the series as persist.EncodeProfile bytes, the tree
// partial a query exports, encoding only when the tree changed since the
// last export. met counts cached and fresh encodings. The bytes are
// shared by every export until the next mutation: callers must not
// modify them. Callers hold the shard lock, at least for reading.
func (s *series) encoded(met *storeMetrics) ([]byte, error) {
	if b := s.enc.Load(); b != nil {
		met.partialsCached.Inc()
		return *b, nil
	}
	b, err := persist.EncodeProfile(&profiler.Profile{
		Tree: s.tree,
		Meta: profiler.Meta{Workload: s.labels.Workload, Vendor: s.labels.Vendor, Framework: s.labels.Framework},
	})
	if err != nil {
		return nil, err
	}
	s.enc.Store(&b)
	met.partialsEncoded.Inc()
	return b, nil
}

// window is one time bucket holding per-label merged trees.
type window struct {
	start  time.Time
	dur    time.Duration
	series map[string]*series
}

func (w *window) profiles() int {
	n := 0
	for _, s := range w.series {
		n += s.profiles
	}
	return n
}

func (w *window) nodes() int {
	n := 0
	for _, s := range w.series {
		n += s.tree.NodeCount()
	}
	return n
}

// winKey identifies one bucket within a shard: its start instant and
// resolution tier.
type winKey struct {
	start  int64 // unix nanoseconds
	coarse bool
}

// shard is one lock stripe of the store: a disjoint subset of series (by
// hash of the workload/vendor/framework key) with its own window maps, its
// own WAL segment set under <dir>/shard-<id>, and per-bucket generation
// stamps the query cache validates against. Ingest for different series
// never contends across shards; queries take every shard's read lock (in
// ascending id order — the store-wide lock order) for a consistent cut.
type shard struct {
	id  int
	cfg Config
	dir string // <cfg.Dir>/shard-<id>; "" when the store is memory-only

	mu     sync.RWMutex
	fine   map[int64]*window // unix-nano window start → bucket
	coarse map[int64]*window
	// gens stamps every retained bucket with a content generation, bumped
	// on each mutation (ingest merge, compaction fold). Bucket creation and
	// removal need no extra stamp: cache validation recomputes the bucket
	// set itself and any membership change misses.
	gens map[winKey]uint64

	ingested   int64
	lastIngest time.Time

	// tracker holds the shard's regression-detection state (series are
	// disjoint across shards, so trackers never overlap); nil when trend
	// tracking is disabled. Guarded by mu like the window maps: observation
	// happens under the write lock at ingest/compaction, reads (findings,
	// stats, snapshot capture) under at least the read lock.
	tracker *trend.Tracker
	// idx is the shard's inverted frame index for the fleet queries,
	// fed at the same window-close points as the tracker; nil when
	// Config.IndexDisabled. Guarded by mu like the tracker.
	idx *frameIndex
	// closeCursor marks the window-close frontier: every fine window with
	// start below it has been closed — fed to the tracker and aggregated
	// into the frame index. Closed fine windows are immutable (ingest only
	// lands in the current window), so the cursor only moves forward; an
	// ingest below it is late data the tracker counts but does not re-fold
	// (and which clears the bucket's cached aggregate, see
	// mergeIntoWindowLocked).
	closeCursor int64
	// curWinNS is the newest window start ingest has seen — the cheap
	// per-ingest guard that triggers a close pass only on window
	// transitions.
	curWinNS int64

	wal *persist.WAL
	// met is the store-wide telemetry handle set (shared across shards;
	// every counter is atomic). WAL append/byte/prune counts live there
	// so Stats() and /metrics read one source.
	met *storeMetrics
}

func newShard(id int, cfg Config, met *storeMetrics) *shard {
	sh := &shard{
		id:     id,
		cfg:    cfg,
		fine:   make(map[int64]*window),
		coarse: make(map[int64]*window),
		gens:   make(map[winKey]uint64),
		met:    met,
	}
	if cfg.Dir != "" {
		sh.dir = shardDir(cfg.Dir, id)
	}
	if !cfg.Trend.Disabled {
		sh.tracker = trend.New(cfg.Trend)
	}
	if !cfg.IndexDisabled {
		sh.idx = newFrameIndex()
	}
	return sh
}

// tier returns one resolution tier's window map.
func (sh *shard) tier(coarse bool) map[int64]*window {
	if coarse {
		return sh.coarse
	}
	return sh.fine
}

func shardDir(dataDir string, id int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", id))
}

// ingest appends to the shard's WAL (when durable) and merges the plan
// into the current fine window of the series key names. payload is nil
// for memory-only stores.
func (sh *shard) ingest(key string, labels Labels, plan *cct.Plan, payload []byte) (time.Time, error) {
	var t0 time.Time
	if sh.met.timings {
		t0 = time.Now()
	}
	sh.mu.Lock()
	if sh.met.timings {
		sh.met.lockWaitSeconds.Observe(time.Since(t0))
	}
	defer sh.mu.Unlock()
	now := sh.cfg.Now()
	start := now.Truncate(sh.cfg.Window)
	if payload != nil {
		if err := sh.walAppendLocked(start.UnixNano(), now.UnixNano(), payload); err != nil {
			return time.Time{}, err
		}
	}
	if sh.tracker != nil || sh.idx != nil {
		if ns := start.UnixNano(); ns != sh.curWinNS {
			if ns < sh.closeCursor {
				if sh.tracker != nil {
					sh.tracker.NoteLate()
				}
			} else {
				// A new window opened: everything before it has closed.
				sh.closeWindowsLocked(now)
				sh.curWinNS = ns
			}
		}
	}
	sh.mergeIntoWindowLocked(start, key, labels, plan)
	sh.ingested++
	sh.lastIngest = now
	return start, nil
}

// ingestBatch applies the batch entries selected by idxs (in order) under
// one acquisition of the shard's write lock: one clock read, one
// window-close pass, then WAL append + merge per entry exactly as ingest.
// A WAL failure aborts the batch; earlier entries are fully applied
// (appended and merged), matching a sequence of single ingests.
func (sh *shard) ingestBatch(batch []PreparedProfile, idxs []int) (time.Time, error) {
	var t0 time.Time
	if sh.met.timings {
		t0 = time.Now()
	}
	sh.mu.Lock()
	if sh.met.timings {
		sh.met.lockWaitSeconds.Observe(time.Since(t0))
	}
	defer sh.mu.Unlock()
	now := sh.cfg.Now()
	start := now.Truncate(sh.cfg.Window)
	if sh.tracker != nil || sh.idx != nil {
		if ns := start.UnixNano(); ns != sh.curWinNS {
			if ns < sh.closeCursor {
				if sh.tracker != nil {
					sh.tracker.NoteLate()
				}
			} else {
				sh.closeWindowsLocked(now)
				sh.curWinNS = ns
			}
		}
	}
	for _, i := range idxs {
		if batch[i].payload != nil {
			if err := sh.walAppendLocked(start.UnixNano(), now.UnixNano(), batch[i].payload); err != nil {
				return time.Time{}, err
			}
		}
		sh.mergeIntoWindowLocked(start, batch[i].key, batch[i].labels, batch[i].plan)
		sh.ingested++
	}
	sh.lastIngest = now
	return start, nil
}

// closeWindowsLocked processes every fine window that closed by asOf —
// and has not been closed yet — oldest first, each series in sorted key
// order: the trend tracker observes it and the frame index gains its
// frames plus the series' close-time aggregate. A window is closed once
// asOf passes its end; from then on its trees are immutable, so one pass
// is final. Callers hold sh.mu exclusively.
func (sh *shard) closeWindowsLocked(asOf time.Time) {
	if sh.tracker == nil && sh.idx == nil {
		return
	}
	var t0 time.Time
	if sh.met.timings {
		t0 = time.Now()
	}
	closed := 0
	asNS := asOf.UnixNano()
	metric := sh.cfg.Trend.Metric
	for _, k := range sortedKeys(sh.fine) {
		if k < sh.closeCursor {
			continue
		}
		w := sh.fine[k]
		if k+int64(w.dur) > asNS {
			break // sorted ascending: every later window is open too
		}
		for _, key := range sortedKeys(w.series) {
			ser := w.series[key]
			if sh.tracker != nil {
				if shares, ok := metricShares(ser.tree, metric); ok {
					sh.tracker.Observe(key, ser.labels.Workload, ser.labels.Vendor, ser.labels.Framework, k, shares)
				}
			}
			if sh.idx != nil && ser.agg == nil {
				ser.agg = computeSeriesAgg(ser.tree)
				sh.idx.addSeries(key, ser.tree)
			}
		}
		sh.closeCursor = k + 1
		closed++
		if sh.met.timings {
			sh.met.journal.Record("window_close", fmt.Sprintf("shard %d closed window %s (%d series)", sh.id, w.start.UTC().Format(time.RFC3339), len(w.series)),
				"shard", fmt.Sprint(sh.id), "start", w.start.UTC().Format(time.RFC3339), "series", fmt.Sprint(len(w.series)))
		}
	}
	if closed > 0 {
		sh.met.windowsClosed.Add(int64(closed))
		if sh.met.timings {
			sh.met.closeSeconds.Observe(time.Since(t0))
		}
	}
}

// mergeIntoWindowLocked folds a planned profile into the fine bucket
// starting at start and bumps its generation. Callers hold sh.mu
// exclusively.
func (sh *shard) mergeIntoWindowLocked(start time.Time, key string, labels Labels, plan *cct.Plan) {
	w := sh.fine[start.UnixNano()]
	if w == nil {
		w = &window{start: start, dur: sh.cfg.Window, series: make(map[string]*series)}
		sh.fine[start.UnixNano()] = w
	}
	ser := w.series[key]
	if ser == nil {
		ser = &series{labels: labels, tree: cct.New()}
		w.series[key] = ser
	}
	// Late data into an already-closed bucket drops its close-time
	// aggregate until the bucket next closes (compaction for fine
	// buckets). The index keeps its old postings — over-approximation is
	// sound — but the skip needs agg.
	ser.mergePlan(plan)
	ser.profiles++
	sh.gens[winKey{start.UnixNano(), false}]++
}

// walAppendLocked lazily opens the shard WAL and appends one framed
// record. Callers hold sh.mu exclusively.
func (sh *shard) walAppendLocked(startNS, tstampNS int64, payload []byte) error {
	if err := sh.openWALLocked(); err != nil {
		return err
	}
	n, err := sh.wal.Append(startNS, tstampNS, payload)
	if err != nil {
		return fmt.Errorf("profstore: shard %d wal append: %w", sh.id, err)
	}
	sh.met.walAppends.Inc()
	sh.met.walBytes.Add(n)
	return nil
}

func (sh *shard) openWALLocked() error {
	if sh.wal != nil {
		return nil
	}
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("profstore: shard dir: %w", err)
	}
	w, err := persist.OpenWAL(sh.dir)
	if err != nil {
		return err
	}
	m := persist.WALMetrics{Fsyncs: sh.met.walFsyncs}
	if sh.met.timings {
		m.AppendSeconds = sh.met.walAppendSeconds
		m.FsyncSeconds = sh.met.walFsyncSeconds
	}
	w.SetMetrics(m)
	sh.wal = w
	return nil
}

// compact runs one retention pass against now: fine windows older than the
// horizon fold (in sorted window/series order, so the coarse trees are
// reproducible across recoveries) into their coarse bucket, and expired
// coarse windows drop along with their fine windows' WAL segments. It
// returns how many fine windows folded and how many coarse windows dropped.
func (sh *shard) compact(now time.Time) (folded, dropped int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Close windows (trend observation + index/aggregate maintenance)
	// before any of them fold away: folding is lossy in time resolution,
	// observation is not.
	sh.closeWindowsLocked(now)
	fineHorizon := now.Add(-time.Duration(sh.cfg.Retention) * sh.cfg.Window).Truncate(sh.cfg.Window)
	for _, key := range sortedKeys(sh.fine) {
		w := sh.fine[key]
		if !w.start.Before(fineHorizon) {
			continue
		}
		cStart := w.start.Truncate(sh.cfg.coarse())
		cw := sh.coarse[cStart.UnixNano()]
		if cw == nil {
			cw = &window{start: cStart, dur: sh.cfg.coarse(), series: make(map[string]*series)}
			sh.coarse[cStart.UnixNano()] = cw
		}
		for _, k := range sortedKeys(w.series) {
			ser := w.series[k]
			dst := cw.series[k]
			if dst == nil {
				dst = &series{labels: ser.labels, tree: cct.New()}
				cw.series[k] = dst
			}
			// The coarse tree changes; its close-time aggregate is
			// recomputed by the sweep below once the fold settles.
			dst.merge(ser.tree)
			dst.profiles += ser.profiles
		}
		delete(sh.fine, key)
		delete(sh.gens, winKey{key, false})
		sh.gens[winKey{cStart.UnixNano(), true}]++
		folded++
	}
	if sh.idx != nil {
		// Re-aggregate and index every coarse series whose aggregate was
		// invalidated — by the fold above or by recovery adoption (Recover
		// converges through CompactNow, so adopted coarse windows are
		// indexed here too). Coarse buckets only change at compaction, so
		// between passes their aggregates stay valid.
		for _, key := range sortedKeys(sh.coarse) {
			w := sh.coarse[key]
			for _, k := range sortedKeys(w.series) {
				ser := w.series[k]
				if ser.agg == nil {
					ser.agg = computeSeriesAgg(ser.tree)
					sh.idx.addSeries(k, ser.tree)
				}
			}
		}
	}
	coarseHorizon := now.Add(-time.Duration(sh.cfg.CoarseRetention) * sh.cfg.coarse()).Truncate(sh.cfg.coarse())
	for _, key := range sortedKeys(sh.coarse) {
		w := sh.coarse[key]
		if w.start.Before(coarseHorizon) {
			delete(sh.coarse, key)
			delete(sh.gens, winKey{key, true})
			dropped++
			// Retiring a coarse window retires the WAL segments of every
			// fine window folded into it: the data has aged out, so a
			// WAL-only recovery must not resurrect it.
			sh.pruneWALRangeLocked(w.start.UnixNano(), w.start.Add(w.dur).UnixNano())
		}
	}
	return folded, dropped
}

// pruneWALRangeLocked deletes WAL segments for window starts in [lo, hi).
// Callers hold sh.mu exclusively. Prune failures are recorded nowhere fatal
// — a leftover segment only costs replay time and is re-dropped by the next
// compaction after recovery.
func (sh *shard) pruneWALRangeLocked(lo, hi int64) {
	if sh.dir == "" {
		return
	}
	if err := sh.openWALLocked(); err != nil {
		return
	}
	if n, err := sh.wal.PruneRange(lo, hi); err == nil {
		sh.met.walPruned.Add(int64(n))
	}
}

// snapshot captures the shard's retained windows under its read lock —
// the capture includes encoding them, so ingest into this shard stalls for
// as long as the encode takes — then, with the lock released, commits the
// image atomically to the shard directory and prunes WAL segments it fully
// covers. compactions carries the store-wide compaction
// count (the store passes it on shard 0 only, so the directory-wide sum is
// conserved across snapshot/recover cycles).
func (sh *shard) snapshot(now time.Time, compactions int64) (persist.Info, error) {
	var info persist.Info
	sh.mu.Lock()
	if err := sh.openWALLocked(); err != nil {
		sh.mu.Unlock()
		return info, err
	}
	sh.mu.Unlock()

	sh.mu.RLock()
	offsets, err := sh.wal.Offsets()
	if err != nil {
		sh.mu.RUnlock()
		return info, err
	}
	// CaptureState encodes the live trees, so it must finish before the
	// read lock is released and a writer can mutate them.
	capture, err := sh.captureLocked(now, compactions, offsets)
	sh.mu.RUnlock()
	if err != nil {
		return info, err
	}
	info, err = capture.Commit(sh.dir)
	if err != nil {
		return info, err
	}
	// Segments fully covered by the committed image are dead weight; only
	// the currently-appending segment survives this (see persist.Prune).
	sh.mu.Lock()
	if n, perr := sh.wal.Prune(offsets); perr == nil {
		sh.met.walPruned.Add(int64(n))
	}
	sh.mu.Unlock()
	return info, nil
}

// captureLocked encodes the shard's retained windows into a commit-ready
// image. offsets is the WAL watermark set the image covers; nil for a
// migration export, whose target directory starts WAL-free. Callers hold
// at least sh.mu's read lock.
func (sh *shard) captureLocked(now time.Time, compactions int64, offsets map[int64]int64) (*persist.Capture, error) {
	state := &persist.State{
		CreatedUnixNano: now.UnixNano(),
		Ingested:        sh.ingested,
		Compactions:     compactions,
		WALOffsets:      offsets,
	}
	if !sh.lastIngest.IsZero() {
		state.LastIngestUnixNano = sh.lastIngest.UnixNano()
	}
	if sh.tracker != nil {
		blob, err := sh.tracker.EncodeState()
		if err != nil {
			return nil, fmt.Errorf("profstore: shard %d encode trend state: %w", sh.id, err)
		}
		state.Trend = blob
	}
	if sh.idx != nil {
		blob, err := sh.idx.encodeState()
		if err != nil {
			return nil, fmt.Errorf("profstore: shard %d encode index state: %w", sh.id, err)
		}
		state.Index = blob
	}
	appendWindow := func(w *window, coarse bool) {
		ws := persist.WindowState{Start: w.start.UnixNano(), DurNS: int64(w.dur), Coarse: coarse}
		for key, ser := range w.series {
			ws.Series = append(ws.Series, persist.SeriesState{
				Key:      key,
				Profiles: ser.profiles,
				Profile: &profiler.Profile{
					Tree: ser.tree,
					Meta: profiler.Meta{
						Workload:  ser.labels.Workload,
						Vendor:    ser.labels.Vendor,
						Framework: ser.labels.Framework,
					},
				},
			})
		}
		state.Windows = append(state.Windows, ws)
	}
	for _, w := range sh.fine {
		appendWindow(w, false)
	}
	for _, w := range sh.coarse {
		appendWindow(w, true)
	}
	return persist.CaptureState(state)
}

// exportTo commits the shard's current image into dir — a migration
// staging directory, never sh.dir. Nothing in the shard's own directory
// is touched: no WAL open, no prune, no snapshot rotation, so the source
// layout stays fully authoritative until the migration commits.
func (sh *shard) exportTo(dir string, now time.Time, compactions int64) (persist.Info, error) {
	sh.mu.RLock()
	capture, err := sh.captureLocked(now, compactions, nil)
	sh.mu.RUnlock()
	if err != nil {
		return persist.Info{}, err
	}
	return capture.Commit(dir)
}

// closeWAL syncs the shard's WAL shut.
func (sh *shard) closeWAL() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.wal != nil {
		sh.wal.Close()
	}
}

// sortedKeys returns m's keys ascending — iteration order for every fold
// or drop that must be deterministic.
func sortedKeys[K interface{ ~int | ~int64 | ~string }, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
