package profstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore/persist"
)

// checkPartialEncodings exports every tree partial of s and checks the two
// properties a cached encoding must keep: each partial's bytes equal a
// fresh persist.EncodeProfile of the live series tree, and the fold a
// cluster coordinator runs over those bytes answers exactly what the store
// answers itself — the aggregate and a diff between instants before and
// after. It returns the exported partials.
func checkPartialEncodings(t *testing.T, s *Store, when string, before, after time.Time) []SeriesPartial {
	t.Helper()
	ctx := context.Background()
	set, err := s.Partials(ctx, PartialsQuery{Mode: PartialTrees})
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if len(set.Series) == 0 {
		t.Fatalf("%s: nothing exported", when)
	}
	s.rlockAll()
	for _, p := range set.Series {
		ser := s.shardFor(p.Key).tier(p.Bucket.Coarse)[p.Bucket.StartNS].series[p.Key]
		fresh, err := persist.EncodeProfile(&profiler.Profile{
			Tree: ser.tree,
			Meta: profiler.Meta{Workload: ser.labels.Workload, Vendor: ser.labels.Vendor, Framework: ser.labels.Framework},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Tree, fresh) {
			t.Errorf("%s: partial %s@%d (coarse %v) is a stale encoding of its series tree", when, p.Key, p.Bucket.StartNS, p.Bucket.Coarse)
		}
	}
	s.runlockAll()

	got, gotInfo, err := FoldAggregate(append([]SeriesPartial(nil), set.Series...), time.Time{}, time.Time{}, Labels{})
	if err != nil {
		t.Fatalf("%s: fold: %v", when, err)
	}
	want, wantInfo, err := s.Aggregate(ctx, time.Time{}, time.Time{}, Labels{})
	if err != nil {
		t.Fatalf("%s: aggregate: %v", when, err)
	}
	if !bytes.Equal(treeBytes(t, got), treeBytes(t, want)) || mustJSON(t, gotInfo) != mustJSON(t, wantInfo) {
		t.Errorf("%s: the fold over exported partials differs from the store's aggregate", when)
	}

	var sides [2]*cct.Tree
	for i, at := range []time.Time{before, after} {
		dp, err := s.DiffPartials(ctx, at, Labels{})
		if err != nil {
			t.Fatal(err)
		}
		if sides[i], err = FoldDiffSide([]DiffPartials{dp}, at, Labels{}); err != nil {
			t.Fatalf("%s: diff side at %v: %v", when, at, err)
		}
	}
	gotDiff, err := BuildDiff(sides[0], sides[1], "", 0)
	if err != nil {
		t.Fatal(err)
	}
	wantDiff, err := s.Diff(ctx, before, after, Labels{}, cct.MetricGPUTime, 0)
	if err != nil {
		t.Fatalf("%s: diff: %v", when, err)
	}
	if mustJSON(t, gotDiff) != mustJSON(t, wantDiff) {
		t.Errorf("%s: the diff folded from exported partials differs from the store's", when)
	}
	return set.Series
}

// findPartial returns the fine-tier partial of key in the bucket at start.
func findPartial(t *testing.T, parts []SeriesPartial, key string, start time.Time) SeriesPartial {
	t.Helper()
	for _, p := range parts {
		if p.Key == key && !p.Bucket.Coarse && p.Bucket.StartNS == start.UnixNano() {
			return p
		}
	}
	t.Fatalf("no partial %s@%v", key, start)
	return SeriesPartial{}
}

func treeBytes(t *testing.T, tree *cct.Tree) []byte {
	t.Helper()
	b, err := persist.EncodeProfile(&profiler.Profile{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodingCounts reads the cached/encoded export counters.
func encodingCounts(s *Store) (cached, encoded int64) {
	return s.met.partialsCached.Value(), s.met.partialsEncoded.Value()
}

// TestPartialEncodingFollowsTreeChanges exports partials, then changes the
// store in every way that replaces or mutates a series tree — late data
// into a closed window, a compaction fold into an existing coarse series,
// a handoff import with replace semantics, a handoff drop and a WAL
// recovery — and after each checks that the exported bytes are the live
// tree's encoding and that the cluster fold still answers like the store.
// Readers export concurrently with a late-data writer at the end, so the
// race detector sees the cache filled and cleared from both sides.
func TestPartialEncodingFollowsTreeChanges(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := Config{Window: time.Minute, Retention: 2, CoarseFactor: 3, CoarseRetention: 4, Now: clock.Now, Dir: dir}
	s := New(cfg)
	defer func() { s.Close() }()
	const a, b = "UNet", "DLRM"
	keyA := Labels{Workload: a, Vendor: "Nvidia", Framework: "pytorch"}.Key()
	keyB := Labels{Workload: b, Vendor: "Nvidia", Framework: "pytorch"}.Key()

	// Windows +0m (A, B), +1m (A), +2m (A, B); the clock rests at +2m.
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x1000, 1))
	mustIngest(t, s, synthProfile(b, "Nvidia", "pytorch", 0x2000, 2))
	clock.Advance(time.Minute)
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x3000, 3))
	clock.Advance(time.Minute)
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x4000, 4))
	mustIngest(t, s, synthProfile(b, "Nvidia", "pytorch", 0x5000, 5))
	first := checkPartialEncodings(t, s, "first export", base, base.Add(2*time.Minute))

	// A second export with nothing changed is served entirely from cache.
	c0, e0 := encodingCounts(s)
	checkPartialEncodings(t, s, "unchanged", base, base.Add(2*time.Minute))
	c1, e1 := encodingCounts(s)
	if e1 != e0 || c1 == c0 {
		t.Fatalf("an unchanged store encoded %d partials again and served %d from cache; want 0 and all", e1-e0, c1-c0)
	}

	// Late data: the clock steps back into the closed +0m window.
	clock.Advance(-90 * time.Second)
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x6000, 6))
	clock.Advance(90 * time.Second)
	late := checkPartialEncodings(t, s, "late data", base, base.Add(2*time.Minute))
	if bytes.Equal(findPartial(t, late, keyA, base).Tree, findPartial(t, first, keyA, base).Tree) {
		t.Fatal("late data did not change the exported +0m partial")
	}

	// Compaction: at +3m the +0m window folds into a new coarse series;
	// at +4m the +1m window folds into that same, by then cached, series.
	clock.Advance(time.Minute)
	if folded, _ := s.CompactNow(); folded != 1 {
		t.Fatalf("first compaction folded %d windows, want 1", folded)
	}
	checkPartialEncodings(t, s, "compaction into a new coarse series", base, base.Add(2*time.Minute))
	clock.Advance(time.Minute)
	if folded, _ := s.CompactNow(); folded != 1 {
		t.Fatalf("second compaction folded %d windows, want 1", folded)
	}
	_, e0 = encodingCounts(s)
	checkPartialEncodings(t, s, "compaction into a cached coarse series", base, base.Add(2*time.Minute))
	if _, e1 = encodingCounts(s); e1 == e0 {
		t.Fatal("the coarse series a compaction merged into was not re-encoded")
	}

	// Handoff import: replace A's +2m series with another tree.
	replacement := cct.NormalizeAddresses(synthProfile(a, "Nvidia", "pytorch", 0x7000, 7).Tree)
	blob, err := persist.EncodeProfile(&profiler.Profile{Tree: replacement, Meta: profiler.Meta{Workload: a, Vendor: "Nvidia", Framework: "pytorch"}})
	if err != nil {
		t.Fatal(err)
	}
	imp := SeriesPartial{
		Bucket:   PartialBucket{StartNS: base.Add(2 * time.Minute).UnixNano(), DurNS: int64(time.Minute)},
		Key:      keyA,
		Labels:   LabelsOf(profiler.Meta{Workload: a, Vendor: "Nvidia", Framework: "pytorch"}),
		Profiles: 1,
		Tree:     blob,
	}
	if n, err := s.ImportPartials(PartialSet{Series: []SeriesPartial{imp}}); err != nil || n != 1 {
		t.Fatalf("import: %d, %v", n, err)
	}
	imported := checkPartialEncodings(t, s, "import", base, base.Add(2*time.Minute))
	if !bytes.Equal(findPartial(t, imported, keyA, base.Add(2*time.Minute)).Tree, blob) {
		t.Fatal("the imported series does not export the imported tree")
	}

	// Handoff drop: B leaves this node.
	if n := s.DropSeries(func(key string) bool { return key == keyB }); n == 0 {
		t.Fatal("DropSeries removed nothing")
	}
	for _, p := range checkPartialEncodings(t, s, "drop", base, base.Add(2*time.Minute)) {
		if p.Key == keyB {
			t.Fatalf("dropped series %s still exported", keyB)
		}
	}

	// WAL recovery: a snapshot covers the import and the drop, and one
	// more ingest lives only in the WAL. The revived store exports the
	// same bytes, and its caches follow its own later changes.
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x8000, 8))
	final := checkPartialEncodings(t, s, "before the restart", base, base.Add(4*time.Minute))
	s.Close()
	s = New(cfg)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	revived := checkPartialEncodings(t, s, "after recovery", base, base.Add(4*time.Minute))
	if mustJSON(t, revived) != mustJSON(t, final) {
		t.Fatal("the recovered store exports different partials")
	}
	mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", 0x9000, 9))
	checkPartialEncodings(t, s, "ingest after recovery", base, base.Add(4*time.Minute))

	// Concurrent exports beside a writer landing late and current data.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Partials(context.Background(), PartialsQuery{Mode: PartialTrees}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		mustIngest(t, s, synthProfile(a, "Nvidia", "pytorch", uint64(0xa000+i*64), float64(i+1)))
		clock.Advance(-time.Minute) // into the closed +3m window
		mustIngest(t, s, synthProfile(b, "Nvidia", "pytorch", uint64(0xb000+i*64), float64(i+1)))
		clock.Advance(time.Minute)
	}
	close(stop)
	wg.Wait()
	checkPartialEncodings(t, s, "concurrent exports", base, base.Add(4*time.Minute))
}

// TestFoldPartialsCorruptTree pins the error a corrupt tree partial folds
// to: the partial named by key and bucket start, wrapping profdb's
// ErrCorrupt — the text DecodeTree has always produced.
func TestFoldPartialsCorruptTree(t *testing.T) {
	parts := foldFixture(t, 3, 32)
	bad := &parts[1]
	bad.Tree = append([]byte(nil), bad.Tree[:len(bad.Tree)-3]...)
	_, decodeErr := bad.DecodeTree()
	_, _, err := FoldAggregate(parts, time.Time{}, time.Time{}, Labels{})
	if err == nil || !errors.Is(err, profdb.ErrCorrupt) {
		t.Fatalf("fold over a corrupt partial: err = %v, want ErrCorrupt", err)
	}
	prefix := fmt.Sprintf("profstore: partial %s@%d: ", bad.Key, bad.Bucket.StartNS)
	if !strings.HasPrefix(err.Error(), prefix) || !strings.HasPrefix(decodeErr.Error(), prefix) {
		t.Fatalf("errors %q and %q do not start %q", err, decodeErr, prefix)
	}
}

// foldFixture exports n tree partials — n series of the given number of
// calling contexts, in one window — from a fresh store. The bytes are
// copies: callers may corrupt them.
func foldFixture(t testing.TB, n, paths int) []SeriesPartial {
	t.Helper()
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	defer s.Close()
	for i := 0; i < n; i++ {
		if _, err := s.Ingest(wideProfile(fmt.Sprintf("W%02d", i), paths)); err != nil {
			t.Fatal(err)
		}
	}
	set, err := s.Partials(context.Background(), PartialsQuery{Mode: PartialTrees})
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Series {
		set.Series[i].Tree = append([]byte(nil), set.Series[i].Tree...)
	}
	return set.Series
}

// TestWalkPartialsReleasesPlans stops a fold from bytes early in each way
// it can — its visit failing, its visit seeing a canceled context, a
// corrupt partial midway — and at the end of a full walk, and checks that
// every plan the walk took went back to the pool.
func TestWalkPartialsReleasesPlans(t *testing.T) {
	var taken []*profdb.Plans
	orig := planPartial
	planPartial = func(b []byte) (*profdb.Plans, error) {
		ps, err := orig(b)
		if err == nil {
			taken = append(taken, ps)
		}
		return ps, err
	}
	defer func() { planPartial = orig }()

	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	for _, tc := range []struct {
		name    string
		corrupt int // partial index to corrupt, or -1
		visit   func(i int) error
		want    error
	}{
		{"complete walk", -1, func(int) error { return nil }, nil},
		{"visit error", -1, func(i int) error {
			if i == 2 {
				return boom
			}
			return nil
		}, boom},
		{"canceled context", -1, func(i int) error {
			if i == 1 {
				cancel()
			}
			return ctx.Err()
		}, context.Canceled},
		{"corrupt partial midway", 2, func(int) error { return nil }, profdb.ErrCorrupt},
	} {
		taken = taken[:0]
		parts := foldFixture(t, 4, 32)
		if tc.corrupt >= 0 {
			parts[tc.corrupt].Tree = parts[tc.corrupt].Tree[:10]
		}
		i := 0
		err := walkPartials(parts, PartialTrees)(func(it foldItem) error {
			if it.plan == nil || it.plan.Len() < 2 {
				t.Fatalf("%s: item %d carries no plan", tc.name, i)
			}
			err := tc.visit(i)
			i++
			return err
		})
		if (tc.want == nil) != (err == nil) || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if len(taken) == 0 {
			t.Fatalf("%s: no plan taken", tc.name)
		}
		for j, ps := range taken {
			if len(ps.Records) != 0 {
				t.Errorf("%s: plan %d of %d was not released", tc.name, j, len(taken))
			}
		}
	}
}

// TestFoldPartialsAllocsFlatInNodes is the allocation ceiling of a fold from
// bytes: folding the same partials at four times the nodes each may add
// only the result tree's own growth, never a per-input-node cost — the
// decode path it replaced built a tree, with a map per node, per partial.
func TestFoldPartialsAllocsFlatInNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	// Same-shape partials: K series in one window, each a copy of one
	// tree, so the result tree's size does not grow with K.
	fixture := func(paths, k int) []SeriesPartial {
		tree := cct.NormalizeAddresses(wideProfile("W", paths).Tree)
		parts := make([]SeriesPartial, k)
		for i := range parts {
			meta := profiler.Meta{Workload: fmt.Sprintf("W%02d", i), Vendor: "Nvidia", Framework: "pytorch"}
			blob, err := persist.EncodeProfile(&profiler.Profile{Tree: tree, Meta: meta})
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = SeriesPartial{Bucket: PartialBucket{StartNS: base.UnixNano(), DurNS: int64(time.Minute)},
				Key: LabelsOf(meta).Key(), Labels: LabelsOf(meta), Profiles: 1, Tree: blob}
		}
		return parts
	}
	allocs := func(parts []SeriesPartial) float64 {
		fold := func() {
			if _, _, err := FoldAggregate(parts, time.Time{}, time.Time{}, Labels{}); err != nil {
				t.Fatal(err)
			}
		}
		fold()
		return testing.AllocsPerRun(20, fold)
	}
	// Adding 24 partials to a fold may add a few allocations per partial
	// (the record's strings, the series bookkeeping), not per node. Plans
	// took 33 more at both widths; decoding took 14,337 and 27,849.
	const perPartial = 4
	for _, paths := range []int{64, 256} {
		few, many := allocs(fixture(paths, 8)), allocs(fixture(paths, 32))
		if extra := many - few; extra > 24*perPartial {
			t.Errorf("%d paths: folding 32 partials took %.0f allocs against %.0f for 8; %.0f more for 24 partials, ceiling %d",
				paths, many, few, extra, 24*perPartial)
		}
	}
}

// assertNoInclusive fails when any node of any window tree, in either
// tier, holds inclusive slots, and returns how many series it checked.
func assertNoInclusive(t *testing.T, s *Store, when string) int {
	t.Helper()
	s.rlockAll()
	defer s.runlockAll()
	checked := 0
	for _, sh := range s.shards {
		for _, coarse := range []bool{false, true} {
			for start, w := range sh.tier(coarse) {
				for key, ser := range w.series {
					checked++
					ser.tree.Visit(func(n *cct.Node) {
						if len(n.Incl) != 0 {
							t.Fatalf("%s: series %s@%d (coarse %v) node %s holds %d inclusive slots", when, key, start, coarse, n.Label(), len(n.Incl))
						}
					})
				}
			}
		}
	}
	return checked
}

// TestWindowTreesHoldNoInclusive pins where inclusive aggregates live:
// only in what a reader derives. Window trees hold exclusive slots after
// every way a series tree is built or mutated — ingest from a tree and
// from bytes, late data into a closed window, compaction into coarse, a
// handoff import, recovery from a snapshot plus the WAL, and a delta
// stream session's materialized profiles landed the way /stream lands
// them (each encoded standalone, planned from those bytes) — while the
// answers built from them still carry derived inclusive totals.
func TestWindowTreesHoldNoInclusive(t *testing.T) {
	dir := t.TempDir()
	clock := newClock(base)
	cfg := Config{Window: time.Minute, Retention: 2, CoarseFactor: 3, CoarseRetention: 4, Now: clock.Now, Dir: dir}
	s := New(cfg)
	defer func() { s.Close() }()
	nv := func(w string, pc uint64, scale float64) *profiler.Profile {
		return synthProfile(w, "Nvidia", "pytorch", pc, scale)
	}
	ingestBytes := func(p *profiler.Profile) {
		t.Helper()
		body, err := profdb.EncodeBundle([]profdb.Entry{{Profile: p}})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := profdb.PlanBundle(body)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Release()
		rec := &ps.Records[0]
		if _, err := s.IngestPlan(LabelsOf(rec.Meta), rec.Plan, rec.Encoded()); err != nil {
			t.Fatal(err)
		}
	}
	if nv("UNet", 0x1000, 1).Tree.Root.Incl == nil {
		t.Fatal("the profiler's trees must hold inclusive slots for this test to mean anything")
	}

	mustIngest(t, s, nv("UNet", 0x1000, 1))
	ingestBytes(nv("DLRM", 0x2000, 2))
	clock.Advance(time.Minute)
	mustIngest(t, s, nv("UNet", 0x3000, 3))
	clock.Advance(time.Minute)
	ingestBytes(nv("UNet", 0x4000, 4))
	assertNoInclusive(t, s, "ingest")

	clock.Advance(-90 * time.Second) // into the closed +0m window
	mustIngest(t, s, nv("UNet", 0x5000, 5))
	ingestBytes(nv("DLRM", 0x6000, 6))
	clock.Advance(90 * time.Second)
	assertNoInclusive(t, s, "late data")

	clock.Advance(2 * time.Minute)
	if folded, _ := s.CompactNow(); folded == 0 {
		t.Fatal("compaction folded nothing")
	}
	assertNoInclusive(t, s, "compaction into coarse")

	imported := cct.NormalizeAddresses(nv("UNet", 0x7000, 7).Tree)
	blob, err := persist.EncodeProfile(&profiler.Profile{Tree: imported, Meta: profiler.Meta{Workload: "UNet", Vendor: "Nvidia", Framework: "pytorch"}})
	if err != nil {
		t.Fatal(err)
	}
	labels := Labels{Workload: "UNet", Vendor: "Nvidia", Framework: "pytorch"}
	imp := SeriesPartial{Bucket: PartialBucket{StartNS: clock.Now().Truncate(time.Minute).UnixNano(), DurNS: int64(time.Minute)},
		Key: labels.Key(), Labels: labels, Profiles: 1, Tree: blob}
	if n, err := s.ImportPartials(PartialSet{Series: []SeriesPartial{imp}}); err != nil || n != 1 {
		t.Fatalf("import: %d, %v", n, err)
	}
	assertNoInclusive(t, s, "handoff import")

	rng := rand.New(rand.NewSource(5))
	agent := newDeltaAgent(Labels{Workload: "Bert", Vendor: "AMD", Framework: "jax"}, 0x8000)
	for r := 0; r < 6; r++ {
		agent.mutate(rng)
		p := agent.upload(t, rng)
		ingestBytes(p)
		if r%2 == 0 {
			clock.Advance(time.Minute)
		}
	}
	if agent.deltas == 0 {
		t.Fatal("the session sent no delta frames")
	}
	assertNoInclusive(t, s, "stream session")

	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, nv("UNet", 0x9000, 9)) // lives only in the WAL
	s.CompactNow()                          // as Recover does
	want := goldenHotspots(t, s)
	s.Close()
	s = New(cfg)
	if rs, err := s.Recover(); err != nil || !rs.SnapshotLoaded || rs.WALRecords == 0 {
		t.Fatalf("recovery: %v, %+v; want a snapshot and WAL records", err, rs)
	}
	if n := assertNoInclusive(t, s, "snapshot and WAL recovery"); n == 0 {
		t.Fatal("recovery restored no series")
	}
	if got := goldenHotspots(t, s); got != want {
		t.Fatalf("recovered store answers differently:\n got %s\nwant %s", got, want)
	}
	tree, _, err := s.Aggregate(context.Background(), time.Time{}, time.Time{}, Labels{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.InclValue(tree.Schema.ID(cct.MetricGPUTime)) == 0 {
		t.Fatal("the folded aggregate carries no derived inclusive total")
	}
}

// goldenHotspots renders every stored row of /hotspots, inclusive totals
// included, as one string.
func goldenHotspots(t *testing.T, s *Store) string {
	t.Helper()
	rows, info, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, cct.MetricGPUTime, 0)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, rows) + mustJSON(t, info)
}
