package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deepcontext"
	"deepcontext/internal/cct"
	"deepcontext/internal/cluster"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/persist"
)

// The traced run. The server has no spans of its own yet (a later issue),
// so the layers are timed from outside: a sample of the workload's own
// inputs is replayed, in this process, through the public functions the
// handlers call, with a span around every call. The server workload is
// also rerun briefly with a client span around every HTTP call. Spans stay
// in memory and are written to trace.json at the end; the per-layer
// figures are their medians.

const (
	replaySample  = 256 // inputs replayed through the per-profile layers
	storeSample   = 64  // series fed to the whole-store operations (roll, compact, snapshot)
	layerSlice    = 100 * time.Millisecond
	storeOpReps   = 3
	streamReplayR = 3  // delta rounds in each replayed session
	treeSeries    = 96 // series in the store the tree-shaped queries are replayed on
)

// layerMetric maps a span name to the per-layer metric it yields.
type layerMetric struct {
	name, span, unit string
}

// layerMetrics lists every replayed metric, in report order. These are the
// per_layer metrics of BENCHMARK.json: all of them are measured on every
// workload, over that workload's own inputs.
var layerMetrics = []layerMetric{
	{"profdb.decode_us", "profdb.decode", "us"},
	{"profdb.save_us", "profdb.save", "us"},
	{"profdb.load_us", "profdb.load", "us"},
	{"profdb.batch_read_us", "profdb.batch_read", "us"},
	{"profdb.delta_apply_us", "profdb.delta_apply", "us"},
	{"profdb.checksum_us", "profdb.checksum", "us"},
	{"profdb.delta_encode_us", "profdb.delta_encode", "us"},
	{"cct.normalize_us", "cct.normalize", "us"},
	{"cct.merge_us", "cct.merge", "us"},
	{"cct.clone_us", "cct.clone", "us"},
	{"cct.diff_us", "cct.diff", "us"},
	{"cct.merge_profiles_ms", "cct.merge_profiles", "ms"},
	{"cct.diff_profiles_ms", "cct.diff_profiles", "ms"},
	{"persist.encode_us", "persist.encode", "us"},
	{"persist.wal_append_us", "persist.wal_append", "us"},
	{"persist.decode_us", "persist.decode", "us"},
	{"profstore.ingest_mem_us", "profstore.ingest_mem", "us"},
	{"profstore.ingest_wal_us", "profstore.ingest_wal", "us"},
	{"profstore.prepare_us", "profstore.prepare", "us"},
	{"profstore.window_roll_us", "profstore.window_roll", "us"},
	{"profstore.compact_ms", "profstore.compact", "ms"},
	{"profstore.hotspots_cold_us", "profstore.hotspots_cold", "us"},
	{"profstore.hotspots_cached_us", "profstore.hotspots_cached", "us"},
	{"profstore.diff_us", "profstore.diff", "us"},
	{"profstore.aggregate_us", "profstore.aggregate", "us"},
	{"profstore.topk_us", "profstore.topk", "us"},
	{"profstore.search_us", "profstore.search", "us"},
	{"profstore.regressions_us", "profstore.regressions", "us"},
	{"profstore.snapshot_ms", "profstore.snapshot", "ms"},
	{"profstore.recover_ms", "profstore.recover", "ms"},
	{"cluster.encode_forward_us", "cluster.encode_forward", "us"},
	{"cluster.apply_forward_us", "cluster.apply_forward", "us"},
	{"cluster.serve_partials_us", "cluster.serve_partials", "us"},
	{"cluster.partials_wire_us", "cluster.partials_wire", "us"},
	{"cluster.partial_decode_us", "cluster.partial_decode", "us"},
	{"cluster.fold_hotspots_us", "cluster.fold_hotspots", "us"},
	{"cluster.fold_topk_us", "cluster.fold_topk", "us"},
	{"profiler.collect_ms", "profiler.collect", "ms"},
	{"analyzer.run_ms", "analyzer.run", "ms"},
	{"flamegraph.html_ms", "flamegraph.html", "ms"},
	{"flamegraph.folded_ms", "flamegraph.folded", "ms"},
}

// derivedLayerMetrics are computed from other spans rather than read off
// one.
var derivedLayerMetrics = []string{
	"profdb.decode_ns_per_byte",
	"persist.wal_replay_us_per_record",
	"profstore.merge_self_us",
	"profstore.ingest_prepared_us_per_profile",
	"cluster.ring_owner_ns",
	"dcbench.gen_s",
	"dcbench.client_cpu_s",
	"dcbench.trace_overhead_frac",
}

// driverPerLayer is the per_layer list of BENCHMARK.json.
var driverPerLayer = func() []string {
	var out []string
	for _, lm := range layerMetrics {
		out = append(out, lm.name)
	}
	return append(out, derivedLayerMetrics...)
}()

// replayer times layer calls into a tracer.
type replayer struct {
	tr      *tracer
	dir     string // scratch directory for WALs and durable stores
	derived map[string]float64
	clock   time.Time // the virtual ingest clock of every replay store
}

func (r *replayer) now() time.Time { return r.clock }

// each calls fn(i) for i = 0, 1, ... n-1, n ..., wrapping at n, with a
// span around every call, until n calls are done or the layer's time
// slice is used up (but at least storeOpReps calls).
func (r *replayer) each(span string, n int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= storeOpReps && time.Since(start) > layerSlice {
			break
		}
		end := r.tr.begin(span, 0, 0)
		err := fn(i)
		end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", span, err)
		}
	}
	return nil
}

func (r *replayer) storeConfig(dir string, cache int) profstore.Config {
	return profstore.Config{
		Window: windowWidth, Retention: 60, CoarseFactor: 5, CoarseRetention: 60,
		Shards: runtime.GOMAXPROCS(0), CacheSize: cache, Dir: dir, Now: r.now,
	}
}

func (r *replayer) subdir(name string) string {
	d := filepath.Join(r.dir, name)
	os.MkdirAll(d, 0o755)
	return d
}

// replayLayers runs the whole replay over ss.
func (r *replayer) replayLayers(ss []series) error {
	r.clock = time.Unix(1_700_000_000, 0)
	sample := ss[:min(len(ss), replaySample)]
	n := len(sample)

	// profdb and persist: the codecs a body passes on its way in.
	profiles := make([]*profiler.Profile, n)
	var decodedBytes int64
	if err := r.each("profdb.decode", n, func(i int) error {
		entries, err := profdb.LoadBundleLimit(bytes.NewReader(sample[i].body), profdb.DefaultMaxBytes)
		if err == nil {
			profiles[i] = entries[0].Profile
			decodedBytes += int64(len(sample[i].body))
		}
		return err
	}); err != nil {
		return err
	}
	decode := r.tr.stat("profdb.decode")
	r.derived["profdb.decode_ns_per_byte"] = float64(decode.mean.Nanoseconds()) * float64(decode.n) / float64(max(1, decodedBytes))
	for i := range profiles {
		if profiles[i] == nil { // the decode slice ran out first
			profiles[i] = sample[i].profile
		}
	}
	var buf bytes.Buffer
	if err := r.each("profdb.save", n, func(i int) error {
		buf.Reset()
		return profdb.Save(&buf, profiles[i])
	}); err != nil {
		return err
	}
	if err := r.each("profdb.load", n, func(i int) error {
		_, err := profdb.Load(bytes.NewReader(sample[i].body))
		return err
	}); err != nil {
		return err
	}
	payloads := make([][]byte, n)
	if err := r.each("persist.encode", n, func(i int) error {
		var err error
		payloads[i], err = persist.EncodeProfile(profiles[i])
		return err
	}); err != nil {
		return err
	}
	for i := range payloads {
		if payloads[i] == nil {
			payloads[i] = sample[i].body
		}
	}
	if err := r.each("persist.decode", n, func(i int) error {
		_, err := persist.DecodeProfile(payloads[i])
		return err
	}); err != nil {
		return err
	}
	wal, err := persist.OpenWAL(r.subdir("wal"))
	if err != nil {
		return err
	}
	appended := 0
	if err := r.each("persist.wal_append", n, func(i int) error {
		appended++
		_, err := wal.Append(r.clock.UnixNano(), r.clock.UnixNano(), payloads[i])
		return err
	}); err != nil {
		return err
	}
	t0 := time.Now()
	stats, err := wal.Replay(nil, func(int64, int64, *profiler.Profile) error { return nil })
	if err != nil || stats.Records != int64(appended) {
		return fmt.Errorf("replay wal: %d of %d records (%v)", stats.Records, appended, err)
	}
	r.derived["persist.wal_replay_us_per_record"] = us(time.Since(t0)) / float64(appended)
	wal.Close()

	// cct: the tree operations under every ingest and fold.
	norm := make([]*cct.Tree, n)
	if err := r.each("cct.normalize", n, func(i int) error {
		norm[i] = cct.NormalizeAddresses(profiles[i].Tree)
		return nil
	}); err != nil {
		return err
	}
	for i := range norm {
		if norm[i] == nil {
			norm[i] = cct.NormalizeAddresses(profiles[i].Tree)
		}
	}
	acc := make([]*cct.Tree, n)
	r.each("cct.clone", n, func(i int) error {
		acc[i] = cct.Clone(norm[i])
		return nil
	})
	for i := range acc {
		if acc[i] == nil {
			acc[i] = cct.Clone(norm[i])
		}
	}
	r.each("cct.merge", n, func(i int) error {
		cct.Merge(acc[i], norm[i])
		return nil
	})
	r.each("cct.diff", n, func(i int) error {
		cct.Diff(acc[i], norm[i])
		return nil
	})

	// profstore: one ingest, in memory and durable.
	mem := profstore.New(r.storeConfig("", 0))
	if err := r.each("profstore.ingest_mem", n, func(i int) error {
		_, err := mem.Ingest(profiles[i])
		return err
	}); err != nil {
		return err
	}
	mem.Close()
	dur := profstore.New(r.storeConfig(r.subdir("ingest"), 0))
	if err := r.each("profstore.ingest_wal", n, func(i int) error {
		_, err := dur.Ingest(profiles[i])
		return err
	}); err != nil {
		return err
	}
	if err := r.replayStream(dur, sample); err != nil {
		return err
	}
	dur.Close()

	if err := r.replayStoreOps(profiles[:min(n, storeSample)]); err != nil {
		return err
	}
	if err := r.replayQueries(ss); err != nil {
		return err
	}
	return r.replayPipeline(sample, profiles)
}

// replayStream times the delta path on short sessions over the sample,
// four series each as in the workload: the agent's encode (inside
// genSession), then the server's steps on each batch — batch read,
// dictionary and delta apply, checksum, prepare, batch ingest.
func (r *replayer) replayStream(store *profstore.Store, sample []series) error {
	var preparedNS, preparedN int64
	start := time.Now()
	for g := 0; g*seriesPerBatch < len(sample); g++ {
		if g >= storeOpReps && time.Since(start) > 5*layerSlice {
			break
		}
		group := sample[g*seriesPerBatch : min(len(sample), (g+1)*seriesPerBatch)]
		sess, err := genSession(fmt.Sprintf("replay-%d", g), group, streamReplayR, r.tr)
		if err != nil {
			return fmt.Errorf("replay stream: %w", err)
		}
		dec := profdb.NewDeltaDecoder()
		cursors := map[string]*profdb.SeriesCursor{}
		for round := range sess.batches {
			end := r.tr.begin("profdb.batch_read", 0, 0)
			batch, err := profdb.ReadBatch(gob.NewDecoder(bytes.NewReader(sess.batches[round].body)))
			end()
			if err != nil {
				return fmt.Errorf("replay stream: %w", err)
			}
			var prep []profstore.PreparedProfile
			for i := range batch.Frames {
				f := &batch.Frames[i]
				key := profstore.LabelsOf(f.Meta).Key()
				if cursors[key] == nil {
					cursors[key] = &profdb.SeriesCursor{}
				}
				span := "profdb.delta_apply"
				if round == 0 {
					span = "profdb.full_apply"
				}
				end := r.tr.begin(span, 0, 0)
				err := dec.AddFrames(f)
				var p *profiler.Profile
				if err == nil {
					p, err = dec.Apply(cursors[key], f)
				}
				end()
				if err != nil {
					return fmt.Errorf("replay stream apply: %w", err)
				}
				end = r.tr.begin("profdb.checksum", 0, 0)
				profdb.Checksum(p)
				end()
				end = r.tr.begin("profstore.prepare", 0, 0)
				pp, err := store.Prepare(p)
				end()
				if err != nil {
					return err
				}
				prep = append(prep, pp)
			}
			t0 := time.Now()
			if _, err := store.IngestPrepared(prep); err != nil {
				return err
			}
			preparedNS += time.Since(t0).Nanoseconds()
			preparedN += int64(len(prep))
		}
	}
	r.derived["profstore.ingest_prepared_us_per_profile"] = float64(preparedNS) / 1e3 / float64(max(1, preparedN))
	return nil
}

// replayStoreOps times the operations that touch a whole store: the ingest
// that rolls a window, a compaction pass, a snapshot and a recovery.
func (r *replayer) replayStoreOps(profiles []*profiler.Profile) error {
	fill := func(s *profstore.Store) error {
		for _, p := range profiles {
			if _, err := s.Ingest(p); err != nil {
				return err
			}
		}
		return nil
	}
	roll := profstore.New(r.storeConfig("", 0))
	defer roll.Close()
	for rep := 0; rep < storeOpReps; rep++ {
		if err := fill(roll); err != nil {
			return err
		}
		r.clock = r.clock.Add(windowWidth)
		end := r.tr.begin("profstore.window_roll", 0, 0)
		_, err := roll.Ingest(profiles[0])
		end()
		if err != nil {
			return err
		}
	}
	for rep := 0; rep < storeOpReps; rep++ {
		cfg := r.storeConfig("", 0)
		cfg.Retention = 2
		s := profstore.New(cfg)
		for w := 0; w < 5; w++ {
			if err := fill(s); err != nil {
				return err
			}
			r.clock = r.clock.Add(windowWidth)
		}
		end := r.tr.begin("profstore.compact", 0, 0)
		folded, _ := s.CompactNow()
		end()
		s.Close()
		if folded == 0 {
			return fmt.Errorf("replay compact: nothing folded")
		}
	}
	for rep := 0; rep < storeOpReps; rep++ {
		dir := r.subdir(fmt.Sprintf("snap-%d", rep))
		s := profstore.New(r.storeConfig(dir, 0))
		for w := 0; w < 2; w++ {
			if err := fill(s); err != nil {
				return err
			}
			r.clock = r.clock.Add(windowWidth)
		}
		end := r.tr.begin("profstore.snapshot", 0, 0)
		_, err := s.Snapshot()
		end()
		if err != nil {
			return fmt.Errorf("replay snapshot: %w", err)
		}
		// One more window lands in the log only, so recovery has both a
		// snapshot to load and a suffix to replay.
		if err := fill(s); err != nil {
			return err
		}
		s.Close()
		end = r.tr.begin("profstore.recover", 0, 0)
		re := profstore.New(r.storeConfig(dir, 0))
		_, err = re.Recover()
		end()
		re.Close()
		if err != nil {
			return fmt.Errorf("replay recover: %w", err)
		}
	}
	return nil
}

// replayQueries feeds a store the workload's whole series set — two closed
// windows and a live one — and times every query shape on it, then the
// cluster's share of the same queries: export, wire, decode, fold.
func (r *replayer) replayQueries(ss []series) error {
	build := func(ss []series, cache int) (*profstore.Store, time.Time, time.Time, error) {
		s := profstore.New(r.storeConfig("", cache))
		w0 := r.clock.Truncate(windowWidth)
		for w := 0; w < 3; w++ {
			for i := range ss {
				if w == 2 && i >= len(ss)/2 {
					break
				}
				if _, err := s.Ingest(ss[i].profile); err != nil {
					return nil, w0, w0, err
				}
			}
			if w < 2 {
				r.clock = r.clock.Add(windowWidth)
			}
		}
		s.TrendSweep()
		return s, w0, w0.Add(windowWidth), nil
	}
	// The queries that fold trees run on at most treeSeries series; the
	// ones that read close-time aggregates run on all of them (the fleet's
	// five hundred).
	few := ss[:min(len(ss), treeSeries)]
	var fleet *profstore.Store
	if len(ss) > len(few) {
		var err error
		if fleet, _, _, err = build(ss, 0); err != nil {
			return err
		}
		defer fleet.Close()
	}
	cold, w0, w1, err := build(few, 0)
	if err != nil {
		return err
	}
	defer cold.Close()
	if fleet == nil {
		fleet = cold
	}
	ctx := context.Background()
	hot := hotFrames(ss, 1)[0]
	var none profstore.Labels
	var zero time.Time
	reps := 64
	if err := r.each("profstore.hotspots_cold", reps, func(int) error {
		_, _, err := cold.Hotspots(ctx, zero, zero, none, "", 10)
		return err
	}); err != nil {
		return err
	}
	if err := r.each("profstore.diff", reps, func(int) error {
		_, err := cold.Diff(ctx, w0, w1, none, "", 5)
		return err
	}); err != nil {
		return err
	}
	if err := r.each("profstore.aggregate", reps, func(int) error {
		_, _, err := cold.Aggregate(ctx, zero, zero, none)
		return err
	}); err != nil {
		return err
	}
	if err := r.each("profstore.topk", reps, func(int) error {
		fleet.TrendSweep()
		_, _, err := fleet.TopK(ctx, zero, zero, none, "", 10)
		return err
	}); err != nil {
		return err
	}
	if err := r.each("profstore.search", reps, func(int) error {
		fleet.TrendSweep()
		_, _, err := fleet.Search(ctx, zero, zero, none, hot, "", 50)
		return err
	}); err != nil {
		return err
	}
	r.each("profstore.regressions", reps, func(int) error {
		fleet.TrendSweep()
		fleet.Regressions(profstore.RegressionQuery{Direction: 1, Limit: 100})
		return nil
	})
	warm, _, _, err := build(few, 512)
	if err != nil {
		return err
	}
	defer warm.Close()
	if _, _, err := warm.Hotspots(ctx, zero, zero, none, "", 10); err != nil {
		return err
	}
	if err := r.each("profstore.hotspots_cached", reps, func(int) error {
		_, _, err := warm.Hotspots(ctx, zero, zero, none, "", 10)
		return err
	}); err != nil {
		return err
	}

	// cluster: what a peer does for the coordinator and the coordinator
	// with the answer.
	nodes := []cluster.Node{{ID: "n1", Addr: "a"}, {ID: "n2", Addr: "b"}, {ID: "n3", Addr: "c"}}
	ring := cluster.NewRing(nodes)
	t0 := time.Now()
	lookups := 0
	for rep := 0; rep < 200; rep++ {
		for i := range ss {
			ring.Owner(ss[i].labels.Key())
			lookups++
		}
	}
	r.derived["cluster.ring_owner_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(lookups)

	sample := ss[:min(len(ss), replaySample)]
	forwards := make([][]byte, len(sample))
	if err := r.each("cluster.encode_forward", len(sample), func(i int) error {
		var err error
		forwards[i], err = cluster.EncodeForward([]*profiler.Profile{sample[i].profile})
		return err
	}); err != nil {
		return err
	}
	owner := profstore.New(r.storeConfig(r.subdir("owner"), 0))
	defer owner.Close()
	if err := r.each("cluster.apply_forward", len(sample), func(i int) error {
		if forwards[i] == nil {
			return nil
		}
		_, err := cluster.ApplyForward(owner, bytes.NewReader(forwards[i]), profdb.DefaultMaxBytes)
		return err
	}); err != nil {
		return err
	}
	treeReq := &cluster.PartialsRequest{Kind: "range", Mode: "trees", FromNS: w0.UnixNano(), ToNS: w1.Add(windowWidth).UnixNano()}
	var trees *cluster.PartialsResponse
	if err := r.each("cluster.serve_partials", 16, func(int) error {
		var err error
		trees, err = cluster.ServePartials(ctx, cold, treeReq)
		return err
	}); err != nil {
		return err
	}
	if err := r.each("cluster.partials_wire", 16, func(int) error {
		raw, err := json.Marshal(trees)
		if err != nil {
			return err
		}
		var back cluster.PartialsResponse
		return json.Unmarshal(raw, &back)
	}); err != nil {
		return err
	}
	parts := trees.Set.Series
	if len(parts) == 0 {
		return fmt.Errorf("replay cluster: no partials exported")
	}
	if err := r.each("cluster.partial_decode", len(parts), func(i int) error {
		_, err := parts[i].DecodeTree()
		return err
	}); err != nil {
		return err
	}
	if err := r.each("cluster.fold_hotspots", 16, func(int) error {
		_, _, err := profstore.FoldHotspots(append([]profstore.SeriesPartial(nil), parts...), w0, w1.Add(windowWidth), none, "", 10)
		return err
	}); err != nil {
		return err
	}
	aggReq := *treeReq
	aggReq.Mode = "aggs"
	aggs, err := cluster.ServePartials(ctx, cold, &aggReq)
	if err != nil {
		return err
	}
	return r.each("cluster.fold_topk", 64, func(int) error {
		_, _, err := profstore.FoldTopK(append([]profstore.SeriesPartial(nil), aggs.Set.Series...), w0, w1.Add(windowWidth), none, "", 10)
		return err
	})
}

// replayPipeline runs the offline pipeline, spans on, over the sample's
// distinct cells, and the folded renderer and the facade's merge and diff
// over the sample's profiles.
func (r *replayer) replayPipeline(sample []series, profiles []*profiler.Profile) error {
	cells := allCells()
	start := time.Now()
	var prev *profiler.Profile
	for i, c := range cells {
		if i >= storeOpReps && time.Since(start) > 4*layerSlice {
			break
		}
		p, _, err := pipeline(c, prev, true, false, r.tr, int64(i)+1)
		if err != nil {
			return fmt.Errorf("replay pipeline: %w", err)
		}
		prev = p
	}
	if err := r.each("flamegraph.folded", len(profiles), func(i int) error {
		return deepcontext.WriteFolded(io.Discard, profiles[i], "")
	}); err != nil {
		return err
	}
	return nil
}

// layerResults turns the spans into the per-layer metric list.
func (r *replayer) layerResults() metricSet {
	var m metricSet
	for _, lm := range layerMetrics {
		st := r.tr.stat(lm.span)
		v := us(st.median)
		if lm.unit == "ms" {
			v = ms(st.median)
		}
		m.addOK(lm.name, v, lm.unit, st.n, st.n > 0)
	}
	if im, ok := m.get("profstore.ingest_mem_us"); ok {
		if nm, ok := m.get("cct.normalize_us"); ok {
			r.derived["profstore.merge_self_us"] = im.Value - nm.Value
		}
	}
	units := map[string]string{
		"profdb.decode_ns_per_byte": "ns/B", "persist.wal_replay_us_per_record": "us",
		"profstore.merge_self_us": "us", "profstore.ingest_prepared_us_per_profile": "us",
		"cluster.ring_owner_ns": "ns", "dcbench.gen_s": "s", "dcbench.client_cpu_s": "s",
		"dcbench.trace_overhead_frac": "ratio",
	}
	for _, name := range derivedLayerMetrics {
		v, ok := r.derived[name]
		m.addOK(name, v, units[name], 0, ok)
	}
	return m
}

// runTraced is the traced run of one workload: a short untraced phase and
// a short traced one against the real servers (their p50s give the tracing
// overhead, the untraced scrape the figure the replay is reconciled with),
// then the layer replay.
func runTraced(b *bench, spec workloadSpec, tracePath string) (*result, error) {
	res := &result{Workload: spec.name, Why: spec.why, Seed: b.seed, Seconds: b.seconds, Traced: true}
	tr := &tracer{}
	dir, err := b.procs.newDataDir()
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: tr, dir: dir, derived: map[string]float64{}}
	part := time.Duration(b.seconds / 4 * float64(time.Second))
	cpu0 := selfCPU()

	var sample []series
	var scraped metricSet
	if spec.server == nil {
		cells, order, hash := offlineInputs(b.seed)
		res.Schedule = hash
		plain := runPipelines(cells, order, b.conns, time.Now().Add(part), 0, false, nil)
		traced := runPipelines(cells, order, b.conns, time.Now().Add(part), 0, false, tr)
		res.Attempted, res.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
		if res.Failed > 0 {
			res.problem("%d pipelines failed; first: %s%s", res.Failed, plain.firstFailure, traced.firstFailure)
		}
		rp.overhead(plain.latencies, traced.latencies)
		rp.derived["dcbench.gen_s"] = 0
		// The pipelines have no request bodies; the replay takes the cells as
		// series, one each.
		if sample, err = genSeries(rand.New(rand.NewSource(b.seed)), len(cells)); err != nil {
			return nil, err
		}
	} else {
		w := spec.server()
		genStart := time.Now()
		if res.Schedule, err = w.gen(b, rand.New(rand.NewSource(b.seed))); err != nil {
			return nil, fmt.Errorf("%s: generate inputs: %w", spec.name, err)
		}
		rp.derived["dcbench.gen_s"] = time.Since(genStart).Seconds()
		if _, _, err := setUp(b, w, 1); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		defer w.teardown(b)
		before, err := observeAll(w.servers())
		if err != nil {
			return nil, err
		}
		plain := w.timed(b, time.Now().Add(part), nil)
		after, err := observeAll(w.servers())
		if err != nil {
			return nil, err
		}
		traced := w.timed(b, time.Now().Add(part), tr)
		pv := phaseView{elapsed: plain.elapsed, profiles: plain.profiles(), queries: plain.queries(), ingestRoute: w.ingestRoute()}
		scraped = scrapeMetrics(before, after, pv)
		for _, ph := range []*phase{plain, traced} {
			sub := result{Attempted: 1}
			checkPhase(&sub, ph)
			res.Problems = append(res.Problems, sub.Problems...)
			for _, t := range []*tally{ph.writes, ph.reads} {
				if t != nil {
					res.Attempted += t.attempted
					res.Failed += t.failed
				}
			}
		}
		w.verify(b, res, traced, scraped)
		if spec.primary == primaryIngest {
			rp.overhead(plain.writes.latencies, traced.writes.latencies)
		} else {
			rp.overhead(plain.reads.latencies, traced.reads.latencies)
		}
		sample = w.sample()
	}

	if err := rp.replayLayers(sample); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	rp.derived["dcbench.client_cpu_s"] = selfCPU() - cpu0
	res.PerLayer = rp.layerResults()
	rp.reconcile(res, scraped)
	os.RemoveAll(dir)
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeFile(tracePath); err != nil {
		return nil, err
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// overhead records what the client spans cost: traced p50 over untraced
// p50, minus one.
func (r *replayer) overhead(plain, traced []time.Duration) {
	p, t := summarize(plain), summarize(traced)
	if p.N > 0 && t.N > 0 && p.P50 > 0 {
		r.derived["dcbench.trace_overhead_frac"] = float64(t.P50)/float64(p.P50) - 1
	}
}

// reconcile sets the replayed layer times against what the server's own
// handler histograms measured over the untraced phase. Means are used on
// both sides: the handler figure is a mean (sum over count), and body
// sizes are too skewed for a median to stand in for it. A ratio far from 1
// says how much of the handler's time the replay does not cover.
func (r *replayer) reconcile(res *result, scraped metricSet) {
	mean := func(span string) float64 { return ms(r.tr.stat(span).mean) }
	covered := map[string]string{
		"ingest": "profdb.decode + profstore.ingest_wal; not covered: reading the body off the socket, shard-lock wait under concurrent requests, the JSON acknowledgement",
		"stream": "per frame: profdb.delta_apply + profdb.checksum + profstore.prepare + ingest_prepared, plus profdb.batch_read; not covered: body read, session lookup, lock wait",
		"query":  "Store.Hotspots/Diff/Aggregate (cold and cached, mixed by the scraped hit ratio) + TopK/Search/Regressions + flamegraph.folded and analyzer.run, weighted by the routes' request counts; not covered: JSON encoding of the response, lock wait, and on a cluster the peers' time and the wire; the replay runs unfiltered queries over every window where the workload's may be filtered or bounded",
	}
	report := func(name, key string, replayed, handler float64, ok bool) {
		if !ok || handler <= 0 {
			res.PerLayer.na(name, "ratio")
			return
		}
		ratio := replayed / handler
		res.PerLayer.add(name, ratio, "ratio")
		if ratio < 0.6 || ratio > 1.4 {
			res.warn("%s = %.2f (replayed %.3f ms against the handler's %.3f ms): %s", name, ratio, replayed, handler, covered[key])
		}
	}
	if h, ok := scraped.get("dcserver.handler_ms.ingest"); ok {
		report("dcbench.reconcile_ratio.ingest", "ingest", mean("profdb.decode")+mean("profstore.ingest_wal"), h.Value, true)
	} else if h, ok := scraped.get("dcserver.handler_ms.stream"); ok {
		perFrame := mean("profdb.delta_apply") + mean("profdb.checksum") + mean("profstore.prepare") + r.derived["profstore.ingest_prepared_us_per_profile"]/1e3
		report("dcbench.reconcile_ratio.ingest", "stream", mean("profdb.batch_read")+seriesPerBatch*perFrame, h.Value, true)
	} else {
		res.PerLayer.na("dcbench.reconcile_ratio.ingest", "ratio")
	}
	// The scraped hit ratio says what share of the cacheable lookups cost
	// a cache hit instead of a fold.
	var hit float64
	if m, ok := scraped.get("profstore.cache_hit_ratio"); ok {
		hit = m.Value
	}
	fold := func(span string) float64 { return (1-hit)*mean(span) + hit*mean("profstore.hotspots_cached") }
	replayOf := map[string]float64{
		"hotspots": fold("profstore.hotspots_cold"), "diff": fold("profstore.diff"),
		"topk": mean("profstore.topk"), "search": mean("profstore.search"),
		"regressions": mean("profstore.regressions"),
		"flame":       fold("profstore.aggregate") + mean("flamegraph.folded"),
		"analyze":     fold("profstore.aggregate") + mean("analyzer.run"),
	}
	var replayed, handler float64
	for route, cost := range replayOf {
		if h, ok := scraped.get("dcserver.handler_ms." + route); ok {
			replayed += cost * float64(h.N)
			handler += h.Value * float64(h.N)
		}
	}
	report("dcbench.reconcile_ratio.query", "query", replayed, handler, handler > 0)
}
