package profstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
)

// This file proves the profdb v3 delta path is an encoding change, never a
// data change: a store fed exclusively through mutate→delta-encode→apply→
// ingest must answer every query surface byte-identically to a store fed
// the same evolution as whole profiles, across shard counts, cache
// configurations, injected stream faults, and durable restarts.

// deltaAgent is one simulated long-lived profiling client: a cumulative
// profile it keeps mutating, plus both halves of a v3 session (the
// encoder a sender would run and the decoder its receiver would run).
// The decoder verifies checksums — this is the untrusted-receiver
// configuration, not the client shadow's TrustChecksums mode.
type deltaAgent struct {
	labels  Labels
	cum     *profiler.Profile
	targets []*cct.Node
	pcBase  uint64
	serial  int

	enc   *profdb.DeltaEncoder
	dec   *profdb.DeltaDecoder
	cur   profdb.SeriesCursor
	epoch uint64

	deltas, fulls, rejects int
}

func newDeltaAgent(lb Labels, pcBase uint64) *deltaAgent {
	a := &deltaAgent{
		labels: lb,
		cum:    synthProfile(lb.Workload, lb.Vendor, lb.Framework, pcBase, 1),
		pcBase: pcBase,
		enc:    profdb.NewDeltaEncoder(),
		dec:    profdb.NewDeltaDecoder(),
	}
	a.cum.Tree.Visit(func(n *cct.Node) {
		if n.Kind != cct.KindRoot {
			a.targets = append(a.targets, n)
		}
	})
	return a
}

// mutate advances the cumulative profile by one step: mostly new samples
// at existing contexts (the steady-state shape deltas exploit), sometimes
// a new call path or a metric name the schema has not seen.
func (a *deltaAgent) mutate(rng *rand.Rand) {
	tr := a.cum.Tree
	switch rng.Intn(10) {
	case 0, 1:
		a.serial++
		leaf := tr.InsertPath([]cct.Frame{
			cct.PythonFrame("train.py", 10+a.serial, "main"),
			cct.OperatorFrame(fmt.Sprintf("aten::op_%d", a.serial%7)),
			{Kind: cct.KindKernel, Name: fmt.Sprintf("kern_%d", a.serial), Lib: "[gpu]",
				PC: a.pcBase + uint64(64*a.serial)},
		})
		a.targets = append(a.targets, leaf)
		tr.AddMetric(leaf, tr.MetricID(cct.MetricGPUTime), float64(10+a.serial))
	case 2:
		a.serial++
		id := tr.MetricID(fmt.Sprintf("aux_%d", a.serial%3))
		tr.AddMetric(a.targets[rng.Intn(len(a.targets))], id, float64(rng.Intn(50)+1))
	default:
		id := tr.MetricID(cct.MetricGPUTime)
		if rng.Intn(2) == 0 {
			id = tr.MetricID(cct.MetricCPUTime)
		}
		tr.AddMetric(a.targets[rng.Intn(len(a.targets))], id, float64(rng.Intn(1000)+1))
	}
}

// upload ships the current cumulative state through the session and
// returns the receiver-side materialized profile. Established series send
// deltas; occasionally the frame is corrupted in flight first, and the
// typed rejection (ErrStaleBase for a desynced base, ErrCorrupt for wire
// damage) must leave the session recoverable by the client's own
// protocol: a full frame under a bumped epoch.
func (a *deltaAgent) upload(t *testing.T, rng *rand.Rand) *profiler.Profile {
	t.Helper()
	if a.cur.Base != nil {
		f, ok, err := a.enc.EncodeDeltaFrom(a.cur.Base, a.cur.Sum, a.cum, a.epoch, a.cur.Seq+1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fault := rng.Intn(12)
			if fault == 1 && len(f.Nodes) == 0 {
				fault = 12
			}
			switch fault {
			case 0:
				// Desynced sender: the base checksum disagrees. The frame
				// must be rejected before the cursor is touched.
				f.BaseSum ^= 0x5a5a5a5a
				if err := a.dec.AddFrames(&f); err != nil {
					t.Fatal(err)
				}
				if _, err := a.dec.Apply(&a.cur, &f); !errors.Is(err, profdb.ErrStaleBase) {
					t.Fatalf("corrupted base checksum applied: err=%v, want ErrStaleBase", err)
				}
				a.rejects++
			case 1:
				// Wire damage inside a node: rejected with ErrCorrupt and
				// the cursor poisoned (the base may be half-mutated).
				f.Nodes[0].Excl = append([]profdb.MetricEntry{{Idx: 9998}}, f.Nodes[0].Excl...)
				if err := a.dec.AddFrames(&f); err != nil {
					t.Fatal(err)
				}
				if _, err := a.dec.Apply(&a.cur, &f); !errors.Is(err, profdb.ErrCorrupt) {
					t.Fatalf("corrupt metric index applied: err=%v, want ErrCorrupt", err)
				}
				a.rejects++
			default:
				if err := a.dec.AddFrames(&f); err != nil {
					t.Fatal(err)
				}
				p, err := a.dec.Apply(&a.cur, &f)
				if err != nil {
					t.Fatal(err)
				}
				a.deltas++
				return p
			}
		}
	}
	// Establishment, fallback or resync: a full frame under a bumped
	// epoch — the client's two-tier recovery.
	a.epoch++
	f, err := a.enc.EncodeFull(a.cum, a.epoch, a.cur.Seq+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.dec.AddFrames(&f); err != nil {
		t.Fatal(err)
	}
	p, err := a.dec.Apply(&a.cur, &f)
	if err != nil {
		t.Fatal(err)
	}
	a.fulls++
	return p
}

// TestPropertyDeltaFullEquivalence drives randomized
// mutate/upload/advance/compact interleavings through paired stores — one
// fed materialized delta-session output, one fed the identical evolution
// as whole profiles — and requires Hotspots, TopK, Search, Diff and
// Windows to match byte-for-byte at every checkpoint, across
// shards{1,2,4} x cache{off,on} plus two durable variants restarted
// mid-script (graceful: snapshot then close; hard: WAL-only replay).
func TestPropertyDeltaFullEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDeltaEquivalenceScript(t, seed)
		})
	}
}

func runDeltaEquivalenceScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := newClock(base)
	cfgBase := Config{Window: time.Minute, Retention: 4, CoarseFactor: 3, CoarseRetention: 6, Now: clock.Now}

	type pair struct {
		name    string
		cfg     Config // the delta side's config (Dir set on restart pairs)
		full    *Store
		delta   *Store
		restart string // "", "graceful", "hard"
	}
	var pairs []*pair
	newPair := func(name string, cfg Config, restart string) {
		fullCfg := cfg
		fullCfg.Dir = "" // the control store is always in-memory
		pr := &pair{name: name, cfg: cfg, full: New(fullCfg), delta: New(cfg), restart: restart}
		pairs = append(pairs, pr)
		t.Cleanup(func() { pr.full.Close(); pr.delta.Close() })
	}
	for _, shards := range []int{1, 2, 4} {
		for _, cacheSize := range []int{0, 64} {
			cfg := cfgBase
			cfg.Shards = shards
			cfg.CacheSize = cacheSize
			newPair(fmt.Sprintf("shards=%d/cache=%d", shards, cacheSize), cfg, "")
		}
	}
	for _, mode := range []string{"graceful", "hard"} {
		cfg := cfgBase
		cfg.Shards = 2
		cfg.CacheSize = 8
		cfg.Dir = t.TempDir()
		newPair("restart="+mode, cfg, mode)
	}

	var agents []*deltaAgent
	for i, lb := range equivSeriesPool[:5] {
		agents = append(agents, newDeltaAgent(lb, uint64(0x1000*(i+1))))
	}

	// uploadRound mutates a random subset of agents, ships each through
	// its session, and lands the results in every pair: the control side
	// ingests the cumulative profiles one by one (the v2 path), the delta
	// side ingests the materialized session output through the store's
	// Prepare/IngestPrepared batch write (the path cmd/dcbench's replay
	// takes; dcserver's /stream lands the same profiles as /ingest bodies).
	uploadRound := func() {
		count := rng.Intn(len(agents)) + 1
		perm := rng.Perm(len(agents))[:count]
		var chosen []*deltaAgent
		mats := make([]*profiler.Profile, 0, count)
		for _, ai := range perm {
			a := agents[ai]
			for m := rng.Intn(3) + 1; m > 0; m-- {
				a.mutate(rng)
			}
			mats = append(mats, a.upload(t, rng))
			chosen = append(chosen, a)
		}
		for _, pr := range pairs {
			for _, a := range chosen {
				mustIngest(t, pr.full, a.cum)
			}
			batch := make([]PreparedProfile, 0, len(mats))
			for _, p := range mats {
				pp, err := pr.delta.Prepare(p)
				if err != nil {
					t.Fatal(err)
				}
				batch = append(batch, pp)
			}
			if _, err := pr.delta.IngestPrepared(batch); err != nil {
				t.Fatal(err)
			}
		}
	}

	verify := func(step int) {
		t.Helper()
		hotspotQueries := []struct {
			filter Labels
			metric string
			top    int
		}{
			{Labels{}, cct.MetricGPUTime, 0},
			{Labels{Vendor: "nvidia"}, cct.MetricGPUTime, 5},
			{Labels{Workload: "unet"}, cct.MetricCPUTime, 3},
		}
		for _, pr := range pairs {
			for qi, q := range hotspotQueries {
				wantRows, wantInfo, wantErr := pr.full.Hotspots(context.Background(), time.Time{}, time.Time{}, q.filter, q.metric, q.top)
				gotRows, gotInfo, gotErr := pr.delta.Hotspots(context.Background(), time.Time{}, time.Time{}, q.filter, q.metric, q.top)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d %s hotspots[%d]: delta err %v, full err %v", step, pr.name, qi, gotErr, wantErr)
				}
				if wantErr == nil && (mustJSON(t, gotRows) != mustJSON(t, wantRows) ||
					mustJSON(t, gotInfo) != mustJSON(t, wantInfo)) {
					t.Fatalf("step %d %s hotspots[%d] diverged:\n got %s\nwant %s",
						step, pr.name, qi, mustJSON(t, gotRows), mustJSON(t, wantRows))
				}
			}
			wantRows, wantInfo, wantErr := pr.full.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 0)
			gotRows, gotInfo, gotErr := pr.delta.TopK(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 0)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d %s topk: delta err %v, full err %v", step, pr.name, gotErr, wantErr)
			}
			if wantErr == nil && (mustJSON(t, gotRows) != mustJSON(t, wantRows) ||
				mustJSON(t, gotInfo) != mustJSON(t, wantInfo)) {
				t.Fatalf("step %d %s topk diverged:\n got %s\nwant %s",
					step, pr.name, mustJSON(t, gotRows), mustJSON(t, wantRows))
			}
			wantSearch, _, wantErr := pr.full.Search(context.Background(), time.Time{}, time.Time{}, Labels{}, "gemm", cct.MetricGPUTime, 0)
			gotSearch, _, gotErr := pr.delta.Search(context.Background(), time.Time{}, time.Time{}, Labels{}, "gemm", cct.MetricGPUTime, 0)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d %s search: delta err %v, full err %v", step, pr.name, gotErr, wantErr)
			}
			if wantErr == nil && mustJSON(t, gotSearch) != mustJSON(t, wantSearch) {
				t.Fatalf("step %d %s search diverged:\n got %s\nwant %s",
					step, pr.name, mustJSON(t, gotSearch), mustJSON(t, wantSearch))
			}
			wins := pr.full.Windows()
			if gw := pr.delta.Windows(); mustJSON(t, gw) != mustJSON(t, wins) {
				t.Fatalf("step %d %s windows diverged:\n got %s\nwant %s",
					step, pr.name, mustJSON(t, gw), mustJSON(t, wins))
			}
			if len(wins) >= 2 {
				before, after := wins[0].Start, wins[len(wins)-1].Start
				wantDiff, wantErr := pr.full.Diff(context.Background(), before, after, Labels{}, cct.MetricGPUTime, 5)
				gotDiff, gotErr := pr.delta.Diff(context.Background(), before, after, Labels{}, cct.MetricGPUTime, 5)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d %s diff: delta err %v, full err %v", step, pr.name, gotErr, wantErr)
				}
				if wantErr == nil && mustJSON(t, gotDiff) != mustJSON(t, wantDiff) {
					t.Fatalf("step %d %s diff diverged:\n got %s\nwant %s",
						step, pr.name, mustJSON(t, gotDiff), mustJSON(t, wantDiff))
				}
			}
		}
	}

	const steps = 110
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Restart the durable delta stores mid-script: the recovered
			// state must keep answering identically to the uninterrupted
			// control store.
			for _, pr := range pairs {
				if pr.restart == "" {
					continue
				}
				if pr.restart == "graceful" {
					if _, err := pr.delta.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
				pr.delta.Close()
				pr.delta = New(pr.cfg)
				if _, err := pr.delta.Recover(); err != nil {
					t.Fatal(err)
				}
				// Recover ends with a catch-up CompactNow; the control
				// store must run the same pass or it retains windows the
				// recovered store's horizons already folded or dropped.
				pr.full.CompactNow()
			}
			verify(step)
		}
		switch r := rng.Intn(10); {
		case r < 5:
			uploadRound()
		case r < 7:
			clock.Advance(time.Duration(rng.Intn(3)+1) * cfgBase.Window)
		case r < 8:
			for _, pr := range pairs {
				pr.full.CompactNow()
				pr.delta.CompactNow()
			}
		default:
			verify(step)
		}
	}

	// Final round: every series uploads once more, then the session cursor
	// checksum must equal the cumulative profile's — the delta≡full
	// invariant at the encoding layer — and every surface must agree.
	for _, a := range agents {
		a.mutate(rng)
		mat := a.upload(t, rng)
		for _, pr := range pairs {
			mustIngest(t, pr.full, a.cum)
			pp, err := pr.delta.Prepare(mat)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pr.delta.IngestPrepared([]PreparedProfile{pp}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, a := range agents {
		if got := profdb.Checksum(a.cum); got != a.cur.Sum {
			t.Errorf("series %s: materialized checksum %x != cumulative %x", a.labels.Key(), a.cur.Sum, got)
		}
		if a.deltas == 0 || a.fulls == 0 {
			t.Errorf("series %s exercised deltas=%d fulls=%d; the script must cover both paths",
				a.labels.Key(), a.deltas, a.fulls)
		}
	}
	verify(steps)
}

// TestDeltaStreamStress hammers one store with concurrent delta sessions
// (each driving mutate→encode→apply→Prepare→IngestPrepared), plain full
// uploads, window-advancing compaction, and scraping readers. Run under
// -race in CI. Two invariants survive the interleaving: reads are
// monotonic (Stats().Ingested never goes backwards) and metric mass is
// conserved (the final full-range aggregate equals the sum every writer
// contributed, nothing lost or double-counted by the batch path).
func TestDeltaStreamStress(t *testing.T) {
	clock := newClock(base)
	// CoarseRetention is effectively unbounded so compaction folds but
	// never drops — dropping would break conservation by design.
	s := New(Config{Window: time.Minute, Retention: 3, CoarseFactor: 4, CoarseRetention: 1 << 20,
		Shards: 4, CacheSize: 16, Now: clock.Now})
	defer s.Close()

	const deltaWriters, fullWriters, uploadsPer = 3, 2, 50
	var wg sync.WaitGroup
	contrib := make([]float64, deltaWriters+fullWriters)

	for w := 0; w < deltaWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			lb := Labels{Workload: fmt.Sprintf("D%d", w), Vendor: "Nvidia", Framework: "pytorch"}
			a := newDeltaAgent(lb, uint64(0x100000*(w+1)))
			running := 140.0 // synthProfile's initial gpu_time mass
			for i := 0; i < uploadsPer; i++ {
				id := a.cum.Tree.MetricID(cct.MetricGPUTime)
				v := float64(rng.Intn(500) + 1)
				a.cum.Tree.AddMetric(a.targets[rng.Intn(len(a.targets))], id, v)
				running += v
				mat := a.upload(t, rng)
				pp, err := s.Prepare(mat)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.IngestPrepared([]PreparedProfile{pp}); err != nil {
					t.Error(err)
					return
				}
				contrib[w] += running // cumulative profiles re-land their whole mass
			}
		}(w)
	}
	for w := 0; w < fullWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lb := Labels{Workload: fmt.Sprintf("F%d", w), Vendor: "AMD", Framework: "jax"}
			for i := 0; i < uploadsPer; i++ {
				p := synthProfile(lb.Workload, lb.Vendor, lb.Framework, uint64(0x200000*(w+1)), 1)
				if _, err := s.Ingest(p); err != nil {
					t.Error(err)
					return
				}
				contrib[deltaWriters+w] += 140 // gpu_time mass per synthProfile
			}
		}(w)
	}

	done := make(chan struct{})
	var compactWG sync.WaitGroup
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			clock.Advance(time.Minute)
			s.CompactNow()
		}
	}()
	var lastIngested atomic.Int64
	for r := 0; r < 2; r++ {
		compactWG.Add(1)
		go func() {
			defer compactWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// The floor is loaded before Stats is called: a count
				// another reader published then was read before this
				// call began, so this one must not be lower.
				floor := lastIngested.Load()
				n := int64(s.Stats().Ingested)
				if n < floor {
					t.Errorf("Stats().Ingested went backwards: %d after %d", n, floor)
					return
				}
				for {
					prev := lastIngested.Load()
					if prev >= n || lastIngested.CompareAndSwap(prev, n) {
						break
					}
				}
				s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 5)
				s.Windows()
			}
		}()
	}
	wg.Wait()
	close(done)
	compactWG.Wait()

	if got := s.Stats().Ingested; got != (deltaWriters+fullWriters)*uploadsPer {
		t.Fatalf("ingested = %d, want %d", got, (deltaWriters+fullWriters)*uploadsPer)
	}
	tree, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := tree.Schema.Lookup(cct.MetricGPUTime)
	if !ok {
		t.Fatal("aggregate lost the gpu_time metric")
	}
	var want float64
	for _, c := range contrib {
		want += c
	}
	got := tree.Root.InclValue(id)
	if diff := got - want; diff < -1e-6*want || diff > 1e-6*want {
		t.Fatalf("gpu_time mass not conserved: aggregate %v, writers contributed %v", got, want)
	}
}
