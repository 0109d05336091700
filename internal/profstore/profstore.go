// Package profstore is the continuous-profiling backend: it accepts
// profiles from many concurrent clients and aggregates them into
// time-bucketed rolling windows, one merged calling context tree per
// (workload, vendor, framework) label set per window. Profiles are
// normalized at ingest (cct.NormalizeFrame, applied as a cct.Plan is built)
// so runs from different processes and machines unify, the same
// fleet-aggregation model as
// datacenter-wide profilers: the store's size is proportional to distinct
// calling contexts per window, not to the number of profiles received.
//
// Retention is two-tiered. Fine windows (Config.Window wide) hold recent
// data at full label granularity; a compaction pass — callable directly or
// run by a background goroutine — folds fine windows older than the
// retention horizon into coarser windows (CoarseFactor × Window wide) via
// the associative cct.Merge, and eventually drops coarse windows past their
// own retention. Metric sums are conserved by compaction; only time
// resolution is lost.
//
// # Sharding
//
// The store is split into Config.Shards lock-striped shards; each series
// (label set) is routed to one shard by hash of its key, so concurrent
// ingest from disjoint series never contends. Queries (top-N hotspots,
// window-vs-window signed diffs, merged aggregates for flame graphs and
// the analyzer) take every shard's read lock — in ascending shard order,
// the store-wide lock order — for one consistent cut, and fold series in
// globally sorted (window, series-key) order, so query results are
// byte-identical for every shard count.
//
// # Query cache
//
// With Config.CacheSize > 0, hotspot, diff and aggregate results are
// memoized. Each shard stamps every retained bucket with a generation,
// bumped on ingest merge and compaction fold; a cached result records the
// stamps of every bucket it read, and is served only when re-deriving the
// stamp set under the query's read lock matches exactly — so a mutation of
// any (shard, window) a result depends on invalidates precisely the
// queries that read it, and a cache hit is indistinguishable from
// recomputing. Cached results (rows, trees) are shared between callers and
// must be treated as read-only; with the cache disabled (the default)
// every query returns a fresh tree the caller owns.
//
// # Fleet-wide queries
//
// TopK (global frame ranking) and Search (which series contain a frame)
// answer fleet-scale questions without folding trees: when a fine window
// closes — the same transition points the trend tracker hooks — each of
// its series is reduced to a per-label exclusive-sum aggregate (see
// agg.go). Queries fold the cached aggregates in the canonical (tier,
// start, seriesKey) order, one label lookup per series for Search. Both
// are bit-identical to aggregating the trees on the fly, which the
// equivalence and golden tests pin.
//
// # Regression detection
//
// Each shard feeds every fine window that closes (detected at ingest
// window transitions, compaction passes, and explicit TrendSweep calls) to
// a trend tracker that maintains per-(series, frame) EWMA share baselines
// and flags sustained drifts — see internal/profstore/trend. Regressions
// returns the retained findings in a canonical order independent of shard
// count and restarts; tracker state rides in snapshots so detection
// history survives recovery.
//
// # Durability
//
// With Config.Dir set the store is durable: every ingested profile is
// appended to its shard's write-ahead log (rotated per window bucket)
// before it is merged, and Snapshot writes an atomic compacted image of
// each shard's retained windows under <dir>/shard-<i>/. Every ingest —
// Ingest, IngestPlan and IngestPrepared alike — goes through one locked
// write per shard: one clock read, the window-close trigger, then WAL
// append and merge per profile, in order. Recover, called on an empty
// store at boot, loads each shard's latest snapshot and replays only the
// WAL suffix beyond the snapshot's per-segment watermarks; because
// cct.Merge is associative and replay preserves ingest order, the
// recovered store answers Hotspots and Diff byte-equal to the pre-crash
// store. Recover also adopts a directory committed under a different
// shard count by routing every recovered series to its current shard and
// re-committing the directory, with an atomically-written STORE.json as
// the migration commit point. A directory in the pre-shard single-store
// layout is refused, untouched. See internal/profstore/persist for the
// on-disk format and corruption policy.
//
// # Locking
//
// Each shard has one RWMutex guarding its window maps, generation stamps
// and counters. Ingest and compaction take exactly one shard's lock at a
// time; queries and Stats take all shard read locks in ascending order and
// nothing acquires a lower-numbered shard lock while holding a higher one,
// so the order is acyclic. Each shard's WAL has an internal mutex only
// ever acquired under that shard's lock (or from Snapshot's post-capture
// prune) — shard.mu is always taken first, never inside a WAL call. The
// query cache has its own mutex, acquired under shard read locks on
// lookup but never the other way around. snapMu serializes whole Snapshot
// calls against each other only. Store-level counters (compactions,
// snapshot bookkeeping, cache hit counts) are atomic telemetry counters,
// so Stats reads no counter unguarded.
//
// # Telemetry
//
// The store registers its metrics — activity counters, occupancy gauges,
// and latency histograms for ingest, lock wait, WAL append/fsync, window
// close, compaction, snapshot, recovery and trend sweeps — on
// Config.Telemetry (or a private registry when nil; see
// internal/telemetry), and records lifecycle events in the registry's
// journal. Stats() reads the same counters the registry exports, so the
// JSON and /metrics surfaces cannot drift. Hot-path recording is
// zero-alloc and lock-free, and always on: TestIngestAllocGate pins the
// ingest path's allocation profile with every timing recorded.
package profstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore/persist"
	"deepcontext/internal/profstore/trend"
	"deepcontext/internal/telemetry"
)

// Typed query failures, for errors.Is dispatch at API boundaries (a server
// maps ErrNoData to 404 and ErrUnknownMetric to 400).
var (
	// ErrNoData reports a query that matched no retained window or series.
	ErrNoData = errors.New("profstore: no matching data")
	// ErrUnknownMetric reports a metric name absent from the matched data.
	ErrUnknownMetric = errors.New("profstore: unknown metric")
)

// Labels identify one profile series. As a query filter, empty fields match
// anything (matching is case-insensitive, mirroring the facade's vendor and
// framework parsing).
type Labels struct {
	Workload  string `json:"workload,omitempty"`
	Vendor    string `json:"vendor,omitempty"`
	Framework string `json:"framework,omitempty"`
}

// LabelsOf extracts the series labels from profile metadata.
func LabelsOf(m profiler.Meta) Labels {
	return Labels{Workload: m.Workload, Vendor: m.Vendor, Framework: m.Framework}
}

// Key renders the canonical series key "workload/vendor/framework".
func (l Labels) Key() string {
	return strings.ToLower(l.Workload + "/" + l.Vendor + "/" + l.Framework)
}

// Matches reports whether l satisfies the filter f (empty filter fields are
// wildcards).
func (l Labels) Matches(f Labels) bool {
	return matchField(l.Workload, f.Workload) &&
		matchField(l.Vendor, f.Vendor) &&
		matchField(l.Framework, f.Framework)
}

func matchField(have, want string) bool {
	return want == "" || strings.EqualFold(have, want)
}

// Config tunes windowing, retention, sharding, caching and the clock.
type Config struct {
	// Window is the fine bucket width (default one minute).
	Window time.Duration
	// Retention is how many fine windows are kept before compaction folds
	// them into coarse windows (default 60).
	Retention int
	// CoarseFactor is the coarse bucket width in fine windows (default 10).
	CoarseFactor int
	// CoarseRetention is how many coarse windows are kept (default 144).
	CoarseRetention int
	// Shards is the lock-stripe count; series route to shards by hash of
	// their label key, so ingest of disjoint series never contends.
	// Default 1. Query results are independent of the shard count.
	Shards int
	// CacheSize bounds the query cache in entries; 0 (the default)
	// disables caching. With caching enabled, results returned by
	// Hotspots, Diff and Aggregate may be shared between callers and must
	// be treated as read-only.
	CacheSize int
	// Now supplies the ingest clock; tests and the load generator inject a
	// virtual clock here. Defaults to time.Now.
	Now func() time.Time
	// Dir, when non-empty, roots the durable state (per-shard WAL segments
	// and snapshots; see internal/profstore/persist). Empty keeps the
	// store memory-only.
	Dir string
	// Trend tunes the regression detector (see internal/profstore/trend),
	// which is always on.
	Trend trend.Config
	// Telemetry receives the store's metrics and lifecycle events; nil
	// gives the store a private registry (Stats() is backed by the same
	// counters either way). Stores sharing a registry share counters —
	// give each store its own.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Retention <= 0 {
		c.Retention = 60
	}
	if c.CoarseFactor <= 1 {
		c.CoarseFactor = 10
	}
	if c.CoarseRetention <= 0 {
		c.CoarseRetention = 144
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Trend = c.Trend.WithDefaults()
	return c
}

func (c Config) coarse() time.Duration { return time.Duration(c.CoarseFactor) * c.Window }

// Store is a concurrency-safe, lock-striped rolling profile aggregator.
type Store struct {
	cfg    Config
	shards []*shard
	cache  *queryCache
	// met holds the telemetry handles (counters, histograms, journal)
	// the store records into; the same counters back Stats().
	met *storeMetrics

	// Snapshot bookkeeping. snapMu serializes Snapshot calls; it is never
	// held together with a shard lock (per-shard capture takes its own
	// locks inside).
	snapMu        sync.Mutex
	lastSnapshot  atomic.Int64 // unix nanoseconds; 0 = never
	lastSnapBytes atomic.Int64
	lastSnapErr   atomic.Value // string
	recovery      atomic.Pointer[RecoveryStats]

	// metaOK latches only SUCCESS of the layout check (a transient failure
	// — full disk, unmounted volume — must retry on the next ingest, so
	// errors are never cached).
	metaMu sync.Mutex
	metaOK bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New returns an empty store. Call Close when done if StartCompactor was
// used (and always when Config.Dir is set, so the WALs are synced shut).
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	met := newStoreMetrics(reg)
	s := &Store{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		cache:  newQueryCache(cfg.CacheSize, met),
		met:    met,
		stop:   make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg, met)
	}
	s.registerStoreGauges(reg)
	return s
}

// Config returns the store's effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// Telemetry returns the registry the store records into — the one from
// Config.Telemetry, or the private registry New created when none was
// supplied. Servers expose it (/metrics, /debug/events) and may register
// their own families on it.
func (s *Store) Telemetry() *telemetry.Registry { return s.met.reg }

// shardFor routes a series key to its shard by FNV-1a hash. The hash is
// deterministic across processes: a restarted store routes every recovered
// series back to the shard directory that wrote it.
func (s *Store) shardFor(key string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return s.shards[int(h%uint32(len(s.shards)))]
}

// rlockAll acquires every shard's read lock in ascending id order (the
// store-wide lock order), giving queries one consistent cut across shards.
func (s *Store) rlockAll() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.RUnlock()
	}
}

// ensureMeta stamps the data directory with the store's shard layout
// before the first WAL byte lands, and refuses to ingest into a directory
// committed under a different layout — Recover owns migrations. Only
// success is latched; a transient failure retries on the next ingest.
func (s *Store) ensureMeta() error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if s.metaOK {
		return nil
	}
	dir := s.cfg.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("profstore: data dir: %w", err)
	}
	meta, err := persist.ReadStoreMeta(dir)
	if err != nil {
		return fmt.Errorf("profstore: %w", err)
	}
	switch {
	case meta == nil && persist.LegacyLayoutPresent(dir):
		return fmt.Errorf("profstore: %w", errPreShard(dir))
	case meta == nil:
		if err := persist.WriteStoreMeta(dir, persist.StoreMeta{Shards: len(s.shards)}); err != nil {
			return err
		}
	case meta.Shards != len(s.shards):
		return fmt.Errorf("profstore: %s was committed with %d shards but the store is configured with %d; call Recover to migrate", dir, meta.Shards, len(s.shards))
	case meta.Pending != "":
		return fmt.Errorf("profstore: %s has an unfinished layout swap; call Recover to resume it before ingesting", dir)
	}
	s.metaOK = true
	return nil
}

// errPreShard refuses a directory in the pre-shard single-store layout,
// which this release neither reads nor migrates.
func errPreShard(dir string) error {
	return fmt.Errorf("%s holds a pre-shard single-store layout (a root-level wal/ or CURRENT and no STORE.json), which this release does not read", dir)
}

// noteMetaCommitted marks the layout check as already satisfied (Recover
// calls it after committing the layout).
func (s *Store) noteMetaCommitted() {
	s.metaMu.Lock()
	s.metaOK = true
	s.metaMu.Unlock()
}

// CommittedShards reports the shard count dir was last committed with,
// and false for a directory without a committed sharded layout. dcserver
// derives its -store-shards default from this so a CPU-count change never
// triggers an implicit migration.
func CommittedShards(dir string) (int, bool) {
	meta, err := persist.ReadStoreMeta(dir)
	if err != nil || meta == nil {
		return 0, false
	}
	return meta.Shards, true
}

// Ingest folds p into the current fine window of its series' shard and
// returns that window's start. The profile's address-unified frames are
// normalized to cross-run stable identities as it merges (see cct.Plan);
// p itself is not modified and may be discarded by the caller.
//
// With persistence enabled the raw profile is appended to the shard's WAL
// before the merge, under the same critical section, so log order equals
// merge order and a replay reconstructs the exact tree. A WAL append
// failure fails the ingest — an acknowledged profile must be durable.
//
// A durable store encodes p for its WAL; a caller that holds the
// profile's bytes skips both that encoding and the tree: see IngestPlan.
func (s *Store) Ingest(p *profiler.Profile) (time.Time, error) {
	t0 := time.Now()
	if p == nil || p.Tree == nil {
		return time.Time{}, fmt.Errorf("profstore: nil profile")
	}
	payload, err := s.payloadFor(p)
	if err != nil {
		return time.Time{}, err
	}
	plan := plans.Get().(*cct.Plan)
	defer func() {
		plan.Reset()
		plans.Put(plan)
	}()
	if err := plan.FromTree(p.Tree); err != nil {
		return time.Time{}, fmt.Errorf("profstore: %w", err)
	}
	return s.ingestPlan(t0, LabelsOf(p.Meta), plan, payload)
}

// plans recycles the plans Ingest builds from trees.
var plans = sync.Pool{New: func() any { return new(cct.Plan) }}

// IngestPlan is Ingest for a profile already planned for merging — the
// served path, which plans each record straight from the bytes it received
// (profdb.PlanBundle) and builds no tree. Planning ran outside any lock;
// under the shard lock the plan is one child lookup and the slot merges per
// node. payload is the profile's WAL record (profdb.Planned.Encoded), which
// a durable store requires and a memory-only one ignores. The plan is only
// read and may be reused once IngestPlan returns.
func (s *Store) IngestPlan(labels Labels, plan *cct.Plan, payload []byte) (time.Time, error) {
	return s.ingestPlan(time.Now(), labels, plan, payload)
}

// ingestPlan writes one planned profile through its shard's write, as a
// batch of one, and observes the ingest latency since t0.
func (s *Store) ingestPlan(t0 time.Time, labels Labels, plan *cct.Plan, payload []byte) (time.Time, error) {
	payload, err := s.checkPayload(payload)
	if err != nil {
		return time.Time{}, err
	}
	key := labels.Key()
	start, err := s.shardFor(key).write([]PreparedProfile{{key: key, labels: labels, plan: plan, payload: payload}})
	if err == nil {
		s.met.ingestSeconds.Observe(time.Since(t0))
	}
	return start, err
}

// checkPayload passes the WAL payload through for a durable store, after
// the layout check, and drops it for a memory-only one.
func (s *Store) checkPayload(payload []byte) ([]byte, error) {
	if s.cfg.Dir == "" {
		return nil, nil
	}
	if err := s.ensureMeta(); err != nil {
		return nil, err
	}
	if payload == nil {
		return nil, fmt.Errorf("profstore: durable ingest without an encoded profile")
	}
	return payload, nil
}

// payloadFor returns p's WAL payload for a durable store, p encoded now. A
// memory-only store needs none.
func (s *Store) payloadFor(p *profiler.Profile) ([]byte, error) {
	if s.cfg.Dir == "" {
		return nil, nil
	}
	payload, err := persist.EncodeProfile(p)
	if err != nil {
		return nil, fmt.Errorf("profstore: encode for wal: %w", err)
	}
	return payload, nil
}

// PreparedProfile is one batch-ingest entry: the profile's series labels,
// its merge plan, and its WAL payload. Prepare captures all three from the
// profile, so the source profile may be mutated (or delta-materialized
// further) before the batch lands.
type PreparedProfile struct {
	key     string // labels.Key()
	labels  Labels
	plan    *cct.Plan
	payload []byte
}

// PayloadBytes reports the entry's WAL payload size (0 for a memory-only
// store) — what one full upload of this profile costs on the wire.
func (pp *PreparedProfile) PayloadBytes() int { return len(pp.payload) }

// Prepare runs the lock-free half of Ingest — the WAL payload and the
// merge plan, both full-tree walks — and returns an entry that owns its
// plan, for IngestPrepared: a Go caller holding trees that may change
// before the batch lands (cmd/dcbench's replay) prepares each, then
// applies whole batches under one shard lock acquisition. No served path
// uses it; dcserver lands every body through IngestPlan.
func (s *Store) Prepare(p *profiler.Profile) (PreparedProfile, error) {
	if p == nil || p.Tree == nil {
		return PreparedProfile{}, fmt.Errorf("profstore: nil profile")
	}
	payload, err := s.payloadFor(p)
	if err != nil {
		return PreparedProfile{}, err
	}
	if payload, err = s.checkPayload(payload); err != nil {
		return PreparedProfile{}, err
	}
	plan := new(cct.Plan)
	if err := plan.FromTree(p.Tree); err != nil {
		return PreparedProfile{}, fmt.Errorf("profstore: %w", err)
	}
	plan.Detach() // p may change before the batch lands
	labels := LabelsOf(p.Meta)
	return PreparedProfile{key: labels.Key(), labels: labels, plan: plan, payload: payload}, nil
}

// IngestPrepared folds a batch of prepared profiles into the store,
// acquiring each shard's write lock once for all of that shard's entries
// instead of once per profile. Within a shard, entries apply in batch
// order (WAL append before merge, exactly as Ingest), and the whole batch
// shares one clock read — a batch lands in a single window per shard.
// Returned window starts align with the batch; on error, entries of the
// failing shard and all entries of higher-numbered shards report zero
// starts, and of those only the failing shard's entries ahead of the
// failure were applied.
func (s *Store) IngestPrepared(batch []PreparedProfile) ([]time.Time, error) {
	t0 := time.Now()
	starts := make([]time.Time, len(batch))
	if len(batch) == 0 {
		return starts, nil
	}
	// Group entries by shard, preserving batch order within each group.
	// Shards are locked one at a time in ascending id order — the
	// store-wide lock order — though never nested.
	ids := make([]int, len(batch))
	byShard := make([][]PreparedProfile, len(s.shards))
	for i := range batch {
		ids[i] = s.shardFor(batch[i].key).id
		byShard[ids[i]] = append(byShard[ids[i]], batch[i])
	}
	shardStarts := make([]time.Time, len(s.shards))
	var err error
	for id, entries := range byShard {
		if len(entries) == 0 {
			continue
		}
		if shardStarts[id], err = s.shards[id].write(entries); err != nil {
			break
		}
	}
	for i, id := range ids {
		starts[i] = shardStarts[id]
	}
	if err != nil {
		return starts, err
	}
	s.met.batches.Inc()
	s.met.batchProfiles.Add(int64(len(batch)))
	s.met.ingestSeconds.Observe(time.Since(t0))
	return starts, nil
}

// WindowInfo describes one retained bucket.
type WindowInfo struct {
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Coarse   bool          `json:"coarse,omitempty"`
	Series   int           `json:"series"`
	Profiles int           `json:"profiles"`
	Nodes    int           `json:"nodes"`
}

// Windows lists retained buckets, oldest first (fine and coarse
// interleaved by start time), each combined across shards.
func (s *Store) Windows() []WindowInfo {
	s.rlockAll()
	defer s.runlockAll()
	var out []WindowInfo
	at := make(map[winKey]int)
	for _, sh := range s.shards {
		for _, coarse := range []bool{false, true} {
			for k, w := range sh.tier(coarse) {
				i, ok := at[winKey{k, coarse}]
				if !ok {
					// The lowest shard holding the bucket supplies its start.
					i = len(out)
					at[winKey{k, coarse}] = i
					out = append(out, WindowInfo{Start: w.start, Duration: w.dur, Coarse: coarse})
				}
				out[i].Series += len(w.series)
				out[i].Profiles += w.profiles()
				out[i].Nodes += w.nodes()
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return !out[i].Coarse && out[j].Coarse
	})
	return out
}

// bucketsLocked gathers one resolution tier's windows from every shard,
// grouped by bucket start. Callers hold all shard read locks.
func (s *Store) bucketsLocked(coarse bool) map[int64][]*window {
	out := make(map[int64][]*window)
	for _, sh := range s.shards {
		for k, w := range sh.tier(coarse) {
			out[k] = append(out[k], w)
		}
	}
	return out
}

// AggregateInfo summarizes what an aggregate query matched. Coverage is set
// only on degraded cluster results (see internal/cluster); single-node
// queries always leave it nil so the JSON shape is unchanged.
type AggregateInfo struct {
	Windows  int       `json:"windows"`
	Profiles int       `json:"profiles"`
	Series   []string  `json:"series"`
	Coverage *Coverage `json:"coverage,omitempty"`
}

// Aggregate merges every series matching filter in buckets whose start lies
// in [from, to) into one fresh tree. Zero bounds are open (from the oldest
// bucket / through the newest). The stored trees are never modified; with
// the query cache disabled the result is owned by the caller, with it
// enabled the result may be shared and must be treated as read-only.
// Cancellation of ctx is honored at bucket boundaries; a canceled fold
// returns ctx's error (wrapped) and is never cached.
func (s *Store) Aggregate(ctx context.Context, from, to time.Time, filter Labels) (*cct.Tree, AggregateInfo, error) {
	return cachedRange(s, from, to,
		func() string { return fmt.Sprintf("agg|%d|%d|%s", from.UnixNano(), to.UnixNano(), filter.Key()) },
		func() (*cct.Tree, AggregateInfo, error) {
			return foldTree(s.walker(ctx, from, to, filter), from, to, filter)
		},
		func(tree *cct.Tree) (*cct.Tree, error) { return tree, nil })
}

// walker feeds a fold from the store's canonical walk. The fold must run
// under all shard read locks.
func (s *Store) walker(ctx context.Context, from, to time.Time, filter Labels) walkFunc {
	return func(visit func(foldItem) error) error {
		return s.walkLocked(ctx, from, to, filter, nil, visit)
	}
}

// rangeDepsLocked stamps every bucket whose start lies in [from, to): the
// full dependency set of a range query. Any mutation of those buckets, or
// a bucket appearing in or vanishing from the range, changes the derived
// set and misses the cache. Callers hold all shard read locks.
func (s *Store) rangeDepsLocked(from, to time.Time) []dep {
	in := func(st time.Time) bool {
		return (from.IsZero() || !st.Before(from)) && (to.IsZero() || st.Before(to))
	}
	var deps []dep
	for si, sh := range s.shards {
		for _, k := range sortedKeys(sh.fine) {
			if in(sh.fine[k].start) {
				wk := winKey{k, false}
				deps = append(deps, dep{si, wk, sh.gens[wk]})
			}
		}
		for _, k := range sortedKeys(sh.coarse) {
			if in(sh.coarse[k].start) {
				wk := winKey{k, true}
				deps = append(deps, dep{si, wk, sh.gens[wk]})
			}
		}
	}
	return deps
}

// bucketDepsLocked stamps one resolved bucket across the shards that hold
// it. Callers hold all shard read locks.
func (s *Store) bucketDepsLocked(key winKey) []dep {
	var deps []dep
	for si, sh := range s.shards {
		if sh.tier(key.coarse)[key.start] != nil {
			deps = append(deps, dep{si, key, sh.gens[key]})
		}
	}
	return deps
}

// Hotspot is one top-N query row: a calling context ranked by the magnitude
// of its exclusive metric.
type Hotspot struct {
	Rank  int      `json:"rank"`
	Label string   `json:"label"`
	Kind  string   `json:"kind"`
	Path  []string `json:"path"`
	Excl  float64  `json:"excl"`
	Incl  float64  `json:"incl"`
	// Frac is Excl relative to the root's inclusive total.
	Frac float64 `json:"frac"`
}

// Hotspots returns the top calling contexts by exclusive metric over the
// aggregate of [from, to) under filter. With the query cache enabled the
// returned rows may be shared and must be treated as read-only.
func (s *Store) Hotspots(ctx context.Context, from, to time.Time, filter Labels, metric string, top int) ([]Hotspot, AggregateInfo, error) {
	if metric == "" {
		metric = cct.MetricGPUTime
	}
	return cachedRange(s, from, to,
		func() string {
			return fmt.Sprintf("hot|%d|%d|%s|%s|%d", from.UnixNano(), to.UnixNano(), filter.Key(), metric, top)
		},
		func() (*cct.Tree, AggregateInfo, error) {
			return foldTree(s.walker(ctx, from, to, filter), from, to, filter)
		},
		func(tree *cct.Tree) ([]Hotspot, error) { return rankHotspots(tree, metric, top) })
}

// rankHotspots flattens a (fresh, caller-owned) aggregate tree into rows
// ranked by exclusive-metric magnitude.
func rankHotspots(tree *cct.Tree, metric string, top int) ([]Hotspot, error) {
	id, ok := tree.Schema.Lookup(metric)
	if !ok {
		return nil, fmt.Errorf("metric %q not present (known: %s): %w",
			metric, strings.Join(tree.Schema.Names(), ", "), ErrUnknownMetric)
	}
	total := tree.Root.InclValue(id)
	var rows []Hotspot
	tree.Visit(func(n *cct.Node) {
		v := n.ExclValue(id)
		if v == 0 || n.Kind == cct.KindRoot {
			return
		}
		h := Hotspot{Label: n.Label(), Kind: n.Kind.String(), Excl: v, Incl: n.InclValue(id)}
		for _, f := range n.Path() {
			h.Path = append(h.Path, f.Label())
		}
		if total != 0 {
			h.Frac = v / total
		}
		rows = append(rows, h)
	})
	sort.SliceStable(rows, func(i, j int) bool {
		return math.Abs(rows[i].Excl) > math.Abs(rows[j].Excl)
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows, nil
}

// DiffRow is one changed calling context of a window-vs-window comparison,
// with the per-side exclusive values for context (the shape of cmd/dcdiff's
// hotspot table).
type DiffRow struct {
	Rank   int     `json:"rank"`
	Label  string  `json:"label"`
	Kind   string  `json:"kind"`
	Delta  float64 `json:"delta"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

// DiffResult is a signed window-vs-window comparison: positive deltas mean
// the "after" window spent more (a regression when after is the newer one).
type DiffResult struct {
	Metric      string    `json:"metric"`
	BeforeTotal float64   `json:"before_total"`
	AfterTotal  float64   `json:"after_total"`
	Net         float64   `json:"net"`
	Rows        []DiffRow `json:"rows"`
	// Coverage is set only on degraded cluster results (see
	// internal/cluster); single-node diffs always leave it nil.
	Coverage *Coverage `json:"coverage,omitempty"`
	// Tree is the signed delta tree (after − before) for flame rendering;
	// omitted from JSON.
	Tree *cct.Tree `json:"-"`
}

// Diff compares the window containing the instant "after" against the one
// containing "before" under filter, ranking changed contexts by magnitude.
// Stored trees were normalized at ingest, so the result matches cmd/dcdiff
// over the same profiles (up to child order). With the query cache enabled
// the result may be shared and must be treated as read-only.
func (s *Store) Diff(ctx context.Context, before, after time.Time, filter Labels, metric string, top int) (*DiffResult, error) {
	if metric == "" {
		metric = cct.MetricGPUTime
	}
	// Resolve windows and aggregate under one all-shard read lock: a
	// compaction pass between the two steps could fold a just-resolved
	// fine window into a coarse bucket, making retained data look absent.
	s.rlockAll()
	bSide, aSide := s.diffSideLocked(before, filter), s.diffSideLocked(after, filter)
	var qkey, shape string
	var deps []dep
	bKey, bOK := bSide.resolve()
	aKey, aOK := aSide.resolve()
	if s.cache != nil && bOK && aOK {
		qkey = fmt.Sprintf("diff|%d|%d|%s|%s|%d", before.UnixNano(), after.UnixNano(), filter.Key(), metric, top)
		// The shape pins which buckets the instants resolved to: a fine
		// window appearing over a previously-coarse instant changes the
		// result even if the cached buckets themselves never mutated.
		shape = fmt.Sprintf("%d.%v|%d.%v", bKey.start, bKey.coarse, aKey.start, aKey.coarse)
		deps = append(s.bucketDepsLocked(bKey), s.bucketDepsLocked(aKey)...)
		if v, ok := s.cache.serve(qkey, shape, deps); ok {
			s.runlockAll()
			return v.(*DiffResult), nil
		}
	}
	// Cancellation is honored before the two bucket folds — each one is a
	// single bucket's worth of work, the granularity the range queries
	// check at.
	if err := ctx.Err(); err != nil {
		s.runlockAll()
		return nil, fmt.Errorf("profstore: query canceled: %w", err)
	}
	beforeTree, err := foldDiffSide(bSide, before, filter)
	if err != nil {
		s.runlockAll()
		return nil, fmt.Errorf("profstore: before: %w", err)
	}
	afterTree, err := foldDiffSide(aSide, after, filter)
	s.runlockAll()
	if err != nil {
		return nil, fmt.Errorf("profstore: after: %w", err)
	}
	res, err := buildDiffResult(beforeTree, afterTree, metric, top)
	if err != nil {
		return nil, err
	}
	s.cache.put(qkey, shape, deps, res)
	return res, nil
}

// buildDiffResult assembles the signed comparison of two (fresh,
// caller-owned) single-bucket aggregates: the delta tree, per-side totals,
// and changed contexts ranked by |delta|.
func buildDiffResult(beforeTree, afterTree *cct.Tree, metric string, top int) (*DiffResult, error) {
	diff := cct.Diff(afterTree, beforeTree)
	id, ok := diff.Schema.Lookup(metric)
	if !ok {
		return nil, fmt.Errorf("metric %q not present in either window (known: %s): %w",
			metric, strings.Join(diff.Schema.Names(), ", "), ErrUnknownMetric)
	}
	res := &DiffResult{Metric: metric, Tree: diff}
	if bid, ok := beforeTree.Schema.Lookup(metric); ok {
		res.BeforeTotal = beforeTree.Root.InclValue(bid)
	}
	if aid, ok := afterTree.Schema.Lookup(metric); ok {
		res.AfterTotal = afterTree.Root.InclValue(aid)
	}
	res.Net = res.AfterTotal - res.BeforeTotal

	beforeVals := exclByPath(beforeTree, metric)
	afterVals := exclByPath(afterTree, metric)
	diff.Visit(func(n *cct.Node) {
		d := n.ExclValue(id)
		if d == 0 || n.Kind == cct.KindRoot {
			return
		}
		key := pathKey(n)
		res.Rows = append(res.Rows, DiffRow{
			Label:  n.Label(),
			Kind:   n.Kind.String(),
			Delta:  d,
			Before: beforeVals[key],
			After:  afterVals[key],
		})
	})
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return math.Abs(res.Rows[i].Delta) > math.Abs(res.Rows[j].Delta)
	})
	if top > 0 && len(res.Rows) > top {
		res.Rows = res.Rows[:top]
	}
	for i := range res.Rows {
		res.Rows[i].Rank = i + 1
	}
	return res, nil
}

// exclByPath flattens a tree into path-key → exclusive value for metric.
func exclByPath(t *cct.Tree, metric string) map[string]float64 {
	out := make(map[string]float64)
	id, ok := t.Schema.Lookup(metric)
	if !ok {
		return out
	}
	t.Visit(func(n *cct.Node) {
		if v := n.ExclValue(id); v != 0 {
			out[pathKey(n)] = v
		}
	})
	return out
}

func pathKey(n *cct.Node) string {
	var sb strings.Builder
	for _, f := range n.Path() {
		sb.WriteString(f.Key())
		sb.WriteByte(';')
	}
	return sb.String()
}

// CompactNow runs one compaction pass over every shard against the store's
// clock: fine windows older than Retention×Window fold into their coarse
// bucket (series-by-series, via the associative cct.Merge — metric sums
// are conserved), and coarse windows older than CoarseRetention×coarse
// width are dropped. It returns how many fine windows were folded and how
// many coarse windows were dropped across all shards.
func (s *Store) CompactNow() (folded, dropped int) {
	t0 := time.Now()
	now := s.cfg.Now()
	for _, sh := range s.shards {
		f, d := sh.compact(now)
		folded += f
		dropped += d
	}
	if folded > 0 || dropped > 0 {
		s.met.compactions.Inc()
		s.met.windowsFolded.Add(int64(folded))
		s.met.windowsDropped.Add(int64(dropped))
		d := time.Since(t0)
		s.met.compactSeconds.Observe(d)
		s.met.journal.Record("compaction", fmt.Sprintf("folded %d fine windows, dropped %d coarse", folded, dropped),
			"folded", fmt.Sprint(folded), "dropped", fmt.Sprint(dropped), "duration", d.String())
	}
	return folded, dropped
}

// StartCompactor runs CompactNow every interval (default: one fine window)
// until Close. Start background loops before any Close call; beyond that
// they may be started from any goroutine (a shared WaitGroup tracks them —
// PR 3 kept a single done channel here, which raced a concurrent Close).
func (s *Store) StartCompactor(interval time.Duration) {
	if interval <= 0 {
		interval = s.cfg.Window
	}
	s.startLoop(interval, func() { s.CompactNow() })
}

// StartSnapshotter snapshots every interval until Close. Errors are
// retained in Stats (LastSnapshotError); the next tick retries.
func (s *Store) StartSnapshotter(interval time.Duration) {
	if interval <= 0 || s.cfg.Dir == "" {
		return
	}
	s.startLoop(interval, func() { s.Snapshot() })
}

func (s *Store) startLoop(interval time.Duration, tick func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				tick()
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the background loops and syncs every shard's WAL shut.
// Idempotent.
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	for _, sh := range s.shards {
		sh.closeWAL()
	}
}

// Snapshot writes an atomic compacted image of every shard's retained
// windows under Config.Dir and prunes WAL segments the images fully cover.
// Each shard's capture — reading the WAL watermarks and encoding every
// retained tree — runs under its read lock, so window state and
// watermarks form one consistent cut and that shard's ingest waits for the
// whole encode; only the disk I/O happens after release. Concurrent
// Snapshot calls serialize on snapMu.
func (s *Store) Snapshot() (persist.Info, error) {
	var total persist.Info
	if s.cfg.Dir == "" {
		return total, fmt.Errorf("profstore: snapshot: no Config.Dir")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	t0 := time.Now()
	now := s.cfg.Now()
	// The store-wide compaction count rides in shard 0's image, so the
	// directory-wide sum recovers exactly.
	comp := s.met.compactions.Value()
	for i, sh := range s.shards {
		c := int64(0)
		if i == 0 {
			c = comp
		}
		info, err := sh.snapshot(now, c)
		total.Files += info.Files
		total.Bytes += info.Bytes
		if err != nil {
			return total, s.noteSnapshotErr(fmt.Errorf("shard %d: %w", i, err))
		}
	}
	total.Dir = s.cfg.Dir
	s.met.snapshots.Inc()
	s.lastSnapshot.Store(now.UnixNano())
	s.lastSnapBytes.Store(total.Bytes)
	s.lastSnapErr.Store("")
	d := time.Since(t0)
	s.met.snapshotSeconds.Observe(d)
	s.met.journal.Record("snapshot", fmt.Sprintf("committed %d files, %d bytes", total.Files, total.Bytes),
		"files", fmt.Sprint(total.Files), "bytes", fmt.Sprint(total.Bytes), "duration", d.String())
	return total, nil
}

func (s *Store) noteSnapshotErr(err error) error {
	err = fmt.Errorf("profstore: snapshot: %w", err)
	s.met.snapshotErrors.Inc()
	s.lastSnapErr.Store(err.Error())
	s.met.journal.Record("snapshot_error", err.Error())
	return err
}

// Stats is a point-in-time snapshot of store occupancy and activity.
type Stats struct {
	Ingested      int64     `json:"ingested"`
	Compactions   int64     `json:"compactions"`
	Shards        int       `json:"shards"`
	FineWindows   int       `json:"fine_windows"`
	CoarseWindows int       `json:"coarse_windows"`
	Series        int       `json:"series"`
	Nodes         int       `json:"nodes"`
	LastIngest    time.Time `json:"last_ingest,omitempty"`
	// Cache is present only when Config.CacheSize > 0.
	Cache *CacheStats `json:"cache,omitempty"`
	// Persist is present only when Config.Dir is set.
	Persist *PersistStats `json:"persist,omitempty"`
	Trend   *TrendStats   `json:"trend,omitempty"`
}

// PersistStats counts durability work since boot, summed across shards.
type PersistStats struct {
	Dir               string         `json:"dir"`
	WALAppends        int64          `json:"wal_appends"`
	WALBytes          int64          `json:"wal_bytes"`
	Snapshots         int64          `json:"snapshots"`
	LastSnapshot      time.Time      `json:"last_snapshot,omitempty"`
	LastSnapshotBytes int64          `json:"last_snapshot_bytes,omitempty"`
	LastSnapshotError string         `json:"last_snapshot_error,omitempty"`
	PrunedWALSegments int64          `json:"pruned_wal_segments"`
	Recovery          *RecoveryStats `json:"recovery,omitempty"`
}

// Stats snapshots the store under all shard read locks, so the
// occupancy values form one consistent cut. The activity counters
// (compactions, WAL work, cache effectiveness) are read from the same
// telemetry counters /metrics exports — one source of truth, so the two
// surfaces agree by construction.
func (s *Store) Stats() Stats {
	s.rlockAll()
	defer s.runlockAll()
	st := Stats{
		Compactions: s.met.compactions.Value(),
		Shards:      len(s.shards),
		Cache:       s.cache.stats(),
	}
	oc := s.occupancyLocked()
	st.Ingested, st.LastIngest = oc.ingested, oc.lastIngest
	st.Series, st.Nodes = oc.series, oc.nodes
	st.FineWindows, st.CoarseWindows = oc.fine, oc.coarse
	ts := s.trendStatsLocked()
	st.Trend = &ts
	if s.cfg.Dir != "" {
		ps := &PersistStats{
			Dir:               s.cfg.Dir,
			WALAppends:        s.met.walAppends.Value(),
			WALBytes:          s.met.walBytes.Value(),
			Snapshots:         s.met.snapshots.Value(),
			LastSnapshotBytes: s.lastSnapBytes.Load(),
			PrunedWALSegments: s.met.walPruned.Value(),
			Recovery:          s.recovery.Load(),
		}
		if ns := s.lastSnapshot.Load(); ns != 0 {
			ps.LastSnapshot = time.Unix(0, ns)
		}
		if e, ok := s.lastSnapErr.Load().(string); ok {
			ps.LastSnapshotError = e
		}
		st.Persist = ps
	}
	return st
}
