package profstore

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore/trend"
)

// trendProfile builds a three-kernel profile with explicit per-kernel GPU
// costs, so scenarios control metric shares exactly. pcBase shifts kernel
// PCs per "run" (normalization must fold them).
func trendProfile(workload, vendor, fw string, pcBase uint64, gemm, relu, vecadd float64) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	insert := func(op, kernel string, pc uint64, v float64) {
		n := tree.InsertPath([]cct.Frame{
			cct.PythonFrame("train.py", 10, "main"),
			cct.OperatorFrame(op),
			{Kind: cct.KindKernel, Name: kernel, Lib: "[gpu]", PC: pc},
		})
		tree.AddMetric(n, gid, v)
	}
	insert("aten::conv2d", "gemm", pcBase, gemm)
	insert("aten::relu", "relu", pcBase+8, relu)
	insert("aten::add", "vecadd", pcBase+16, vecadd)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: vendor, Framework: fw},
	}
}

// regressionScenario drives the deterministic injected-regression script:
// two series over twelve windows, series A's gemm kernel tripling from
// window 7 on (shares 0.5/0.2/0.3 → 0.75/0.1/0.15), series B steady
// throughout, one mid-run compaction, and a final sweep so the last window
// is observed. windows limits how many windows run (12 for the full
// script); the clock ends one window past the last ingest.
func regressionScenario(t *testing.T, s *Store, clock *fakeClock, windows int) {
	t.Helper()
	for w := 0; w < windows; w++ {
		gemm := 100.0
		if w >= 7 {
			gemm = 300.0
		}
		pc := uint64(0x1000 + w*512)
		mustIngest(t, s, trendProfile("UNet", "Nvidia", "pytorch", pc, gemm, 40, 60))
		mustIngest(t, s, trendProfile("UNet", "Nvidia", "pytorch", pc+0x8000, gemm, 40, 60))
		mustIngest(t, s, trendProfile("DLRM", "AMD", "jax", pc+0x100, 50, 25, 25))
		clock.Advance(time.Minute)
		if w == 8 {
			s.CompactNow()
		}
	}
	s.TrendSweep()
}

// regressionsImage renders the /regressions query surface as one
// deterministic JSON blob: the unfiltered findings plus filtered variants,
// and the trend counters.
func regressionsImage(t *testing.T, s *Store) []byte {
	t.Helper()
	img, err := json.MarshalIndent(struct {
		All         []trend.Finding
		Regressions []trend.Finding
		UNetOnly    []trend.Finding
		Limited     []trend.Finding
		Since       []trend.Finding
		Trend       *TrendStats
	}{
		All:         s.Regressions(RegressionQuery{}),
		Regressions: s.Regressions(RegressionQuery{Direction: 1}),
		UNetOnly:    s.Regressions(RegressionQuery{Filter: Labels{Workload: "unet"}}),
		Limited:     s.Regressions(RegressionQuery{Limit: 2}),
		Since:       s.Regressions(RegressionQuery{Since: base.Add(9 * time.Minute)}),
		Trend:       s.Stats().Trend,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// trendConfigs enumerates the configurations whose findings must be
// byte-identical: shard striping and the query cache must be invisible to
// detection. Retention is short enough that the scenario's mid-run
// compaction folds early windows — observation must beat the fold.
func trendConfigs() []Config {
	base := Config{Window: time.Minute, Retention: 6, CoarseFactor: 4}
	var out []Config
	for _, shards := range []int{1, 2, 4} {
		for _, cache := range []int{0, 128} {
			cfg := base
			cfg.Shards = shards
			cfg.CacheSize = cache
			out = append(out, cfg)
		}
	}
	return out
}

// TestRegressionsGolden pins the detector's end-to-end output: every store
// configuration must produce the recorded findings byte-for-byte from the
// injected-regression scenario. Regenerate with -update-golden only when a
// detection-semantics change is intended.
func TestRegressionsGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "regressions.golden.json")
	if *updateGolden {
		clock := newClock(base)
		cfg := trendConfigs()[0]
		cfg.Now = clock.Now
		s := New(cfg)
		defer s.Close()
		regressionScenario(t, s, clock, 12)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, regressionsImage(t, s), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	for i, cfg := range trendConfigs() {
		clock := newClock(base)
		cfg.Now = clock.Now
		s := New(cfg)
		regressionScenario(t, s, clock, 12)
		// Two passes: the second must be idempotent (sweeps with no new
		// closed windows change nothing), cached or not.
		for pass := 0; pass < 2; pass++ {
			if got := regressionsImage(t, s); !bytes.Equal(got, want) {
				t.Errorf("config %d (shards=%d cache=%d) pass %d: regression findings diverged from golden",
					i, cfg.Shards, cfg.CacheSize, pass)
			}
		}
		s.Close()
	}
}

// TestRegressionsGoldenSemantics spot-checks the recorded scenario beyond
// byte equality: the injected kernel is flagged as the only regression,
// within K windows of the injection, with its exact before/after shares.
func TestRegressionsGoldenSemantics(t *testing.T) {
	clock := newClock(base)
	cfg := trendConfigs()[0]
	cfg.Now = clock.Now
	s := New(cfg)
	defer s.Close()
	regressionScenario(t, s, clock, 12)

	ups := s.Regressions(RegressionQuery{Direction: 1})
	if len(ups) != 1 {
		t.Fatalf("want exactly the injected kernel flagged, got %+v", ups)
	}
	f := ups[0]
	if f.Frame != "gemm" || f.Series != "unet/nvidia/pytorch" {
		t.Fatalf("wrong finding: %+v", f)
	}
	k := s.Config().Trend.K
	confirm := base.Add(time.Duration(7+k-1) * time.Minute).UnixNano()
	if f.AfterUnixNano != confirm {
		t.Fatalf("confirmed at %d, want within K=%d windows of injection (%d)", f.AfterUnixNano, k, confirm)
	}
	if f.BeforeUnixNano != base.Add(6*time.Minute).UnixNano() {
		t.Fatalf("before anchor = %d, want last pre-injection window", f.BeforeUnixNano)
	}
	if f.BeforeShare != 0.5 || f.Share != 0.75 {
		t.Fatalf("shares: before=%v after=%v, want 0.5 → 0.75", f.BeforeShare, f.Share)
	}
	// The improvements are the other two kernels' shrinking shares — and
	// nothing else.
	downs := s.Regressions(RegressionQuery{Direction: -1})
	if len(downs) != 2 || downs[0].Frame != "relu" || downs[1].Frame != "vecadd" {
		t.Fatalf("improvements = %+v", downs)
	}
	// Exact-share re-derivation from the raw (uncached: CacheSize=0)
	// store: both flagged windows are still fine, so a single-window
	// aggregate reproduces the finding's shares bit-for-bit.
	for _, check := range []struct {
		ns    int64
		share float64
	}{{f.BeforeUnixNano, f.BeforeShare}, {f.AfterUnixNano, f.Share}} {
		from := time.Unix(0, check.ns)
		tree, _, err := s.Aggregate(context.Background(), from, from.Add(cfg.Window), Labels{Workload: f.Workload, Vendor: f.Vendor, Framework: f.Framework})
		if err != nil {
			t.Fatalf("re-derive window %d: %v", check.ns, err)
		}
		shares, ok := metricShares(tree, f.Metric)
		if !ok || shares[f.Frame] != check.share {
			t.Fatalf("window %d: re-derived share %v, finding says %v", check.ns, shares[f.Frame], check.share)
		}
	}
}

// TestRegressionsRestartEquivalence is the SIGKILL gate: a store killed
// mid-scenario — with a snapshot plus WAL suffix, or with only the WAL —
// must finish the scenario with findings byte-equal to a store that never
// restarted, including across a shard-count migration.
func TestRegressionsRestartEquivalence(t *testing.T) {
	control := func() []byte {
		clock := newClock(base)
		cfg := trendConfigs()[0]
		cfg.Now = clock.Now
		s := New(cfg)
		defer s.Close()
		regressionScenario(t, s, clock, 12)
		return regressionsImage(t, s)
	}()

	for _, tc := range []struct {
		name         string
		snapshot     bool
		reviveShards int
	}{
		{"wal-only", false, 2},
		{"snapshot-plus-suffix", true, 2},
		{"migrate-shards", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := newClock(base)
			cfg := trendConfigs()[0]
			cfg.Shards = 2
			cfg.Now = clock.Now
			cfg.Dir = dir
			s := New(cfg)
			// Run the scenario through the first drift windows, snapshot
			// mid-way (so trend state must ride the snapshot), then crash.
			regressionScenario(t, s, clock, 9)
			if tc.snapshot {
				if _, err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			s.Close() // the crash: nothing after this is flushed

			rcfg := cfg
			rcfg.Shards = tc.reviveShards
			revived := New(rcfg)
			defer revived.Close()
			if _, err := revived.Recover(); err != nil {
				t.Fatal(err)
			}
			// Finish the scenario: windows 9..11 land post-restart. The
			// clock continues where the crashed store left off (the
			// scenario already advanced past window 8).
			for w := 9; w < 12; w++ {
				pc := uint64(0x1000 + w*512)
				mustIngest(t, revived, trendProfile("UNet", "Nvidia", "pytorch", pc, 300, 40, 60))
				mustIngest(t, revived, trendProfile("UNet", "Nvidia", "pytorch", pc+0x8000, 300, 40, 60))
				mustIngest(t, revived, trendProfile("DLRM", "AMD", "jax", pc+0x100, 50, 25, 25))
				clock.Advance(time.Minute)
			}
			revived.TrendSweep()
			if got := regressionsImage(t, revived); !bytes.Equal(got, control) {
				t.Errorf("findings diverged from the never-crashed store\ngot:  %s\nwant: %s", got, control)
			}
		})
	}
}

// TestRegressionsPropertyRederivable randomizes ingest/advance/compact
// scripts and holds the detector to its contract: every finding's series
// was actually ingested, every finding clears its own recorded noise band,
// and — while the flagged windows are retained at fine resolution — an
// uncached Store.Diff over the flagged pair reproduces the finding's share
// delta exactly. The store under test runs sharded with the cache on; the
// replica is the 1-shard uncached reference.
func TestRegressionsPropertyRederivable(t *testing.T) {
	var totalFindings, totalVerified int
	for _, seed := range []int64{3, 11, 77} {
		rng := rand.New(rand.NewSource(seed))
		clock := newClock(base)
		cfg := Config{Window: time.Minute, Retention: 10, CoarseFactor: 3, Shards: 3, CacheSize: 64, Now: clock.Now}
		s := New(cfg)
		refClock := newClock(base)
		ref := New(Config{Window: time.Minute, Retention: 10, CoarseFactor: 3, Now: refClock.Now})

		type seriesSpec struct {
			labels Labels
			gemm   float64 // current sustained level
		}
		specs := []*seriesSpec{
			{Labels{"UNet", "Nvidia", "pytorch"}, 100},
			{Labels{"DLRM", "AMD", "jax"}, 80},
			{Labels{"Bert", "Nvidia", "jax"}, 120},
		}
		ingested := map[string]bool{}
		verified := map[string]bool{}

		fineRetained := func(st *Store, ns int64) bool {
			for _, w := range st.Windows() {
				if !w.Coarse && w.Start.UnixNano() == ns {
					return true
				}
			}
			return false
		}

		for step := 0; step < 60; step++ {
			for si, sp := range specs {
				if rng.Intn(8) == 0 {
					// A sustained level shift the detector should flag.
					if rng.Intn(2) == 0 {
						sp.gemm *= 2.5
					} else {
						sp.gemm /= 2.5
					}
				}
				for n := rng.Intn(3); n >= 0; n-- {
					pc := uint64(0x1000 + step*4096 + si*512 + n*64)
					p := trendProfile(sp.labels.Workload, sp.labels.Vendor, sp.labels.Framework, pc, sp.gemm, 40, 60)
					mustIngest(t, s, p)
					p2 := trendProfile(sp.labels.Workload, sp.labels.Vendor, sp.labels.Framework, pc, sp.gemm, 40, 60)
					mustIngest(t, ref, p2)
					ingested[sp.labels.Key()] = true
				}
			}
			adv := time.Minute
			if rng.Intn(10) == 0 {
				adv = 2 * time.Minute
			}
			clock.Advance(adv)
			refClock.Advance(adv)
			if rng.Intn(6) == 0 {
				s.CompactNow()
				ref.CompactNow()
			}
			s.TrendSweep()

			for _, f := range s.Regressions(RegressionQuery{}) {
				if !ingested[f.Series] {
					t.Fatalf("seed %d step %d: finding references never-ingested series %q", seed, step, f.Series)
				}
				if math.Abs(f.Share-f.BaselineShare) <= f.Band {
					t.Fatalf("seed %d step %d: finding inside its own band: %+v", seed, step, f)
				}
				fkey, _ := json.Marshal(f)
				if verified[string(fkey)] {
					continue
				}
				totalFindings++
				if !fineRetained(ref, f.BeforeUnixNano) || !fineRetained(ref, f.AfterUnixNano) {
					continue // window already folded coarse; share-exact replay needs fine data
				}
				labels := Labels{Workload: f.Workload, Vendor: f.Vendor, Framework: f.Framework}
				res, err := ref.Diff(context.Background(), time.Unix(0, f.BeforeUnixNano), time.Unix(0, f.AfterUnixNano), labels, f.Metric, 0)
				if err != nil {
					t.Fatalf("seed %d step %d: uncached diff over flagged pair failed: %v (%+v)", seed, step, err, f)
				}
				var deltaSum float64
				for _, row := range res.Rows {
					if row.Label == f.Frame {
						deltaSum += row.Delta
					}
				}
				want := f.Share*res.AfterTotal - f.BeforeShare*res.BeforeTotal
				if tol := 1e-9 * math.Max(1, math.Abs(want)); math.Abs(deltaSum-want) > tol {
					t.Fatalf("seed %d step %d: diff does not reproduce finding: delta %v, shares imply %v (%+v)",
						seed, step, deltaSum, want, f)
				}
				verified[string(fkey)] = true
				totalVerified++
			}
		}
		s.Close()
		ref.Close()
	}
	if totalFindings == 0 || totalVerified == 0 {
		t.Fatalf("property test was vacuous: %d findings, %d verified", totalFindings, totalVerified)
	}
}

// TestTrendStatsRaceUnderIngest hammers Stats and the regression surface
// while writers ingest across window transitions — the -race gate for the
// tracker's lock discipline (all tracker access rides the shard mutexes).
func TestTrendStatsRaceUnderIngest(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: 10 * time.Millisecond, Retention: 5, CoarseFactor: 2, Shards: 4, CacheSize: 32, Now: clock.Now})
	defer s.Close()

	done := make(chan struct{})
	// The clock runs outside the writer WaitGroup (a ticking goroutine
	// that the writers' wg.Wait also waits on never returns); it just
	// stops with done.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				clock.Advance(3 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	workloads := []string{"UNet", "DLRM", "Bert", "GPT"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				p := trendProfile(workloads[w], "Nvidia", "pytorch", uint64(0x1000+w*64+i), float64(100+i%7*20), 40, 60)
				if _, err := s.Ingest(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st := s.Stats()
				if st.Trend == nil {
					t.Error("trend stats missing while tracking enabled")
					return
				}
				s.TrendSweep()
				s.Regressions(RegressionQuery{Direction: 1})
				s.CompactNow()
			}
		}()
	}
	wg.Wait()
	close(done)

	// Close every window deterministically before asserting: the racing
	// goroutines may all finish before the virtual clock crosses even one
	// window boundary.
	clock.Advance(time.Second)
	s.TrendSweep()
	st := s.Stats()
	if st.Trend == nil || st.Trend.Series == 0 {
		t.Fatalf("no series tracked after concurrent ingest: %+v", st.Trend)
	}
	if got := len(s.Regressions(RegressionQuery{})); int64(got) > st.Trend.Findings {
		t.Fatalf("retained findings (%d) exceed emitted counter (%d)", got, st.Trend.Findings)
	}
}
