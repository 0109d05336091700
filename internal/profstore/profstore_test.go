package profstore

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// fakeClock is a mutex-guarded manual clock for deterministic windowing.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// base is aligned to every window width the tests use.
var base = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// synthProfile builds a small deterministic profile. pcBase shifts kernel
// program counters (normalization must unify them across "runs"); scale
// scales every metric.
func synthProfile(workload, vendor, fw string, pcBase uint64, scale float64) *profiler.Profile {
	tree := cct.New()
	gid := tree.MetricID(cct.MetricGPUTime)
	cid := tree.MetricID(cct.MetricCPUTime)
	conv := tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 10, "main"),
		cct.OperatorFrame("aten::conv2d"),
		{Kind: cct.KindKernel, Name: "gemm", Lib: "[gpu]", PC: pcBase},
	})
	tree.AddMetric(conv, gid, 100*scale)
	relu := tree.InsertPath([]cct.Frame{
		cct.PythonFrame("train.py", 20, "main"),
		cct.OperatorFrame("aten::relu"),
		{Kind: cct.KindKernel, Name: "relu", Lib: "[gpu]", PC: pcBase + 8},
	})
	tree.AddMetric(relu, gid, 40*scale)
	tree.AddMetric(relu.Parent, cid, 7*scale)
	return &profiler.Profile{
		Tree: tree,
		Meta: profiler.Meta{Workload: workload, Vendor: vendor, Framework: fw},
	}
}

func TestIngestWindowingAndHotspots(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})

	for i := 0; i < 3; i++ {
		start, err := s.Ingest(synthProfile("UNet", "Nvidia", "pytorch", uint64(0x1000+i*64), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !start.Equal(base) {
			t.Fatalf("window start = %v, want %v", start, base)
		}
	}
	wins := s.Windows()
	if len(wins) != 1 || wins[0].Series != 1 || wins[0].Profiles != 3 {
		t.Fatalf("windows = %+v", wins)
	}

	rows, info, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 10)
	if err != nil {
		t.Fatal(err)
	}
	if info.Profiles != 3 || len(info.Series) != 1 {
		t.Fatalf("info = %+v", info)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Normalization unified the shifting PCs: 3 profiles × 100 on gemm.
	if rows[0].Label != "gemm" || rows[0].Excl != 300 {
		t.Fatalf("top hotspot = %+v", rows[0])
	}
	if rows[1].Label != "relu" || rows[1].Excl != 120 {
		t.Fatalf("second hotspot = %+v", rows[1])
	}
	if math.Abs(rows[0].Frac-300.0/420.0) > 1e-12 {
		t.Fatalf("frac = %v", rows[0].Frac)
	}
	if rows[0].Rank != 1 || rows[1].Rank != 2 {
		t.Fatalf("ranks = %d, %d", rows[0].Rank, rows[1].Rank)
	}

	// Unknown metric is a typed failure, not empty rows.
	if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, "bogus_metric", 10); err == nil {
		t.Fatal("bogus metric should fail")
	}
}

func TestLabelFiltering(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x10, 1))
	mustIngest(t, s, synthProfile("UNet", "AMD", "pytorch", 0x20, 2))
	mustIngest(t, s, synthProfile("DLRM", "Nvidia", "jax", 0x30, 4))

	total := func(filter Labels) float64 {
		tree, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, filter)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := tree.Schema.Lookup(cct.MetricGPUTime)
		return tree.Root.InclValue(id)
	}
	if got := total(Labels{}); got != 140*(1+2+4) {
		t.Fatalf("unfiltered total = %v", got)
	}
	// Filters are case-insensitive wildcards per field.
	if got := total(Labels{Vendor: "nvidia"}); got != 140*(1+4) {
		t.Fatalf("nvidia total = %v", got)
	}
	if got := total(Labels{Workload: "unet", Vendor: "amd"}); got != 280 {
		t.Fatalf("unet/amd total = %v", got)
	}
	if _, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{Workload: "nope"}); err == nil {
		t.Fatal("unmatched filter should fail")
	}
}

// The satellite test: many goroutines ingest while queries run, and the
// final aggregate must be equivalent to a serial merge over the same
// (normalized) inputs.
func TestConcurrentIngestMatchesSerialMerge(t *testing.T) {
	const goroutines = 16
	const perGoroutine = 8
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})

	inputs := make([]*profiler.Profile, 0, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perGoroutine; i++ {
			// Distinct PCs per input: normalization must fold them all.
			p := synthProfile("UNet", "Nvidia", "pytorch",
				uint64(0x1000+(g*perGoroutine+i)*32), float64(i%5+1))
			inputs = append(inputs, p)
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Results vary while ingestion races on; only panics and
				// data races (under -race) are failures here.
				s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 5)
				s.Windows()
				s.Stats()
			}
		}()
	}

	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perGoroutine; i++ {
				if _, err := s.Ingest(inputs[g*perGoroutine+i]); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	got, info, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Profiles != len(inputs) {
		t.Fatalf("profiles = %d, want %d", info.Profiles, len(inputs))
	}
	want := cct.New()
	for _, p := range inputs {
		cct.Merge(want, cct.NormalizeAddresses(p.Tree))
	}
	if err := cct.Equivalent(got, want); err != nil {
		t.Fatalf("concurrent aggregate differs from serial merge: %v", err)
	}
	if st := s.Stats(); st.Ingested != int64(len(inputs)) {
		t.Fatalf("stats.Ingested = %d", st.Ingested)
	}
}

func TestCompactionConservesTotalsAndDropsExpired(t *testing.T) {
	clock := newClock(base)
	s := New(Config{
		Window:          time.Minute,
		Retention:       2,
		CoarseFactor:    3,
		CoarseRetention: 2,
		Now:             clock.Now,
	})
	for i := 0; i < 3; i++ {
		mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", uint64(0x100*i), float64(i+1)))
		clock.Advance(time.Minute)
	}
	totalOf := func() float64 {
		tree, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := tree.Schema.Lookup(cct.MetricGPUTime)
		return tree.Root.InclValue(id)
	}
	before := totalOf()
	if before != 140*(1+2+3) {
		t.Fatalf("pre-compaction total = %v", before)
	}

	// The clock is at +3m, so the retention horizon is +1m: only the +0m
	// window is past it and folds into the coarse bucket starting at +0m;
	// +1m and +2m stay fine.
	folded, dropped := s.CompactNow()
	if folded != 1 || dropped != 0 {
		t.Fatalf("folded=%d dropped=%d", folded, dropped)
	}
	st := s.Stats()
	if st.FineWindows != 2 || st.CoarseWindows != 1 {
		t.Fatalf("stats after compaction = %+v", st)
	}
	if after := totalOf(); after != before {
		t.Fatalf("compaction changed total: %v -> %v", before, after)
	}

	// Far in the future everything folds and then ages out entirely.
	clock.Advance(24 * time.Hour)
	s.CompactNow()
	s.CompactNow() // second pass drops coarse buckets created by the first
	st = s.Stats()
	if st.FineWindows != 0 || st.CoarseWindows != 0 {
		t.Fatalf("store not empty after retention: %+v", st)
	}
	if _, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{}); err == nil {
		t.Fatal("empty store should fail aggregate")
	}
}

// diffRowKey identifies a diff row independent of ordering among equal
// magnitudes.
type diffRowKey struct {
	label         string
	delta, before float64
	after         float64
}

// The acceptance check: a /diff of two windows must match what cmd/dcdiff
// computes for the same profiles — normalize each side, cct.Diff(context.Background(), after,
// before), rank changed contexts by |delta| — up to child order.
func TestDiffMatchesDcdiffSemantics(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})

	beforeP := synthProfile("UNet", "Nvidia", "pytorch", 0x9000, 2)
	afterP := synthProfile("UNet", "Nvidia", "pytorch", 0x5000, 3)
	// Give the after run an extra context so structure differs too.
	gid, _ := afterP.Tree.Schema.Lookup(cct.MetricGPUTime)
	extra := afterP.Tree.InsertPath([]cct.Frame{cct.OperatorFrame("aten::extra")})
	afterP.Tree.AddMetric(extra, gid, 55)

	mustIngest(t, s, beforeP)
	clock.Advance(time.Minute)
	mustIngest(t, s, afterP)

	res, err := s.Diff(context.Background(), base, base.Add(time.Minute), Labels{}, cct.MetricGPUTime, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: dcdiff's computation over the same two profiles.
	bTree := cct.NormalizeAddresses(beforeP.Tree)
	aTree := cct.NormalizeAddresses(afterP.Tree)
	refDiff := cct.Diff(aTree, bTree)
	refID, _ := refDiff.Schema.Lookup(cct.MetricGPUTime)
	want := map[diffRowKey]bool{}
	refDiff.Visit(func(n *cct.Node) {
		if d := n.ExclValue(refID); d != 0 && n.Kind != cct.KindRoot {
			want[diffRowKey{label: n.Label(), delta: d}] = true
		}
	})
	got := map[diffRowKey]bool{}
	for _, r := range res.Rows {
		got[diffRowKey{label: r.Label, delta: r.Delta}] = true
	}
	if len(got) != len(want) {
		t.Fatalf("row sets differ: got %v want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing row %+v (got %v)", k, got)
		}
	}

	bID, _ := bTree.Schema.Lookup(cct.MetricGPUTime)
	aID, _ := aTree.Schema.Lookup(cct.MetricGPUTime)
	if res.BeforeTotal != bTree.Root.InclValue(bID) || res.AfterTotal != aTree.Root.InclValue(aID) {
		t.Fatalf("totals = %v/%v", res.BeforeTotal, res.AfterTotal)
	}
	if res.Net != res.AfterTotal-res.BeforeTotal {
		t.Fatalf("net = %v", res.Net)
	}
	// Rows are ranked by magnitude, like dcdiff's table.
	if !sort.SliceIsSorted(res.Rows, func(i, j int) bool {
		return math.Abs(res.Rows[i].Delta) > math.Abs(res.Rows[j].Delta)
	}) {
		t.Fatalf("rows not ranked by |delta|: %+v", res.Rows)
	}
	// The per-side values come from the matching calling context.
	for _, r := range res.Rows {
		if r.Label == "gemm" {
			if r.Before != 200 || r.After != 300 || r.Delta != 100 {
				t.Fatalf("gemm row = %+v", r)
			}
		}
		if r.Label == "aten::extra" {
			if r.Before != 0 || r.After != 55 || r.Delta != 55 {
				t.Fatalf("extra row = %+v", r)
			}
		}
	}
}

// A diff instant whose fine window has been compacted resolves to the
// coarse bucket — and must read only that bucket, not every fine window
// sharing the coarse range (which could include the other diff side).
func TestDiffCoarseFallbackReadsOnlyThatBucket(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Retention: 2, CoarseFactor: 10, Now: clock.Now})
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	clock.Advance(3 * time.Minute)
	s.CompactNow() // folds the base window into coarse[base]
	// A newer fine window inside the same coarse range [base, base+10m).
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x2, 5))
	if st := s.Stats(); st.FineWindows != 1 || st.CoarseWindows != 1 {
		t.Fatalf("setup stats = %+v", st)
	}

	res, err := s.Diff(context.Background(), base, base.Add(3*time.Minute), Labels{}, cct.MetricGPUTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The before side is the coarse bucket alone (scale 1), not coarse
	// plus the after window's fine data.
	if res.BeforeTotal != 140 || res.AfterTotal != 700 {
		t.Fatalf("totals = %v/%v, want 140/700", res.BeforeTotal, res.AfterTotal)
	}
	if res.Net != 560 {
		t.Fatalf("net = %v", res.Net)
	}
}

func TestTypedQueryErrors(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	if _, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty store: err = %v, want ErrNoData", err)
	}
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, "bogus", 5); !errors.Is(err, ErrUnknownMetric) {
		t.Fatalf("bogus metric: err = %v, want ErrUnknownMetric", err)
	}
	if _, err := s.Diff(context.Background(), base, base.Add(time.Hour), Labels{}, cct.MetricGPUTime, 0); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing window: err = %v, want ErrNoData", err)
	}
}

func TestDiffMissingWindowFails(t *testing.T) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	if _, err := s.Diff(context.Background(), base.Add(time.Hour), base, Labels{}, cct.MetricGPUTime, 0); err == nil {
		t.Fatal("diff against an absent window should fail")
	}
}

// A diff whose filter matches nothing names the resolved bucket in its
// error. One node and a cluster must word it identically whatever zone the
// store clock runs in: the bucket start renders once, in UTC.
func TestDiffNoSeriesErrorIsZoneIndependent(t *testing.T) {
	clock := newClock(base.In(time.FixedZone("X", 5*3600)))
	s := New(Config{Window: time.Minute, Now: clock.Now})
	defer s.Close()
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	filter := Labels{Workload: "nosuch"}

	_, storeErr := s.Diff(context.Background(), base, base, filter, cct.MetricGPUTime, 0)
	if !errors.Is(storeErr, ErrNoData) {
		t.Fatalf("store diff: err = %v, want ErrNoData", storeErr)
	}
	part, err := s.DiffPartials(context.Background(), base, filter)
	if err != nil {
		t.Fatal(err)
	}
	_, foldErr := FoldDiffSide([]DiffPartials{part}, base, filter)
	if foldErr == nil {
		t.Fatal("partials diff side matched a filter that matches nothing")
	}
	if got, want := storeErr.Error(), "profstore: before: "+foldErr.Error(); got != want {
		t.Fatalf("store and partials paths word the error differently:\nstore    %s\npartials %s", got, want)
	}
	const want = "no series match nosuch// in window 2026-01-01 00:00:00 +0000 UTC"
	if !strings.Contains(storeErr.Error(), want) {
		t.Fatalf("error %q does not contain %q", storeErr, want)
	}
}

func TestCompactorLifecycle(t *testing.T) {
	s := New(Config{Window: 10 * time.Millisecond})
	s.StartCompactor(time.Millisecond)
	mustIngest(t, s, synthProfile("UNet", "Nvidia", "pytorch", 0x1, 1))
	time.Sleep(5 * time.Millisecond)
	s.Close() // must stop the goroutine and not deadlock
	s.Close() // idempotent
}

func mustIngest(t *testing.T, s *Store, p *profiler.Profile) {
	t.Helper()
	if _, err := s.Ingest(p); err != nil {
		t.Fatal(err)
	}
}
