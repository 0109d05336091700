package profstore

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/telemetry"
)

// Pinned BenchmarkIngestStoreMemory profile, asserted exactly: telemetry
// is on by default and must cost the ingest hot path nothing. Any change
// that adds an allocation (or a byte) to Ingest shows up here before it
// shows up in a benchmark diff. The tree is planned into a pooled plan and
// merged; nothing of the profile is copied into a second tree. What is
// left is the series key (Labels.Key).
const (
	pinnedIngestAllocs = 2
	pinnedIngestBytes  = 48
)

// Pinned profile of the served byte path — plan a v5 body, append it to
// the WAL, merge the plan — for a durable store. The series key, the
// record's one string and the WAL frame are all it allocates; a tree built
// on the way (a decode, a normalization clone) costs dozens of allocations
// and shows up here.
const (
	pinnedBytePathAllocs = 4
	pinnedBytePathBytes  = 464
)

// bytesPerRun is testing.AllocsPerRun's missing sibling: average bytes
// allocated per call of f, measured single-threaded over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up once outside the window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

func TestIngestAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	defer s.Close()
	p := synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1)
	ingest := func() {
		if _, err := s.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	// Let maps, the interner and the window tree reach steady state so
	// the measurement sees only the per-ingest cost.
	for i := 0; i < 200; i++ {
		ingest()
	}
	assertAllocPin(t, "ingest", ingest, pinnedIngestAllocs, pinnedIngestBytes)
}

// assertAllocPin checks f's per-call allocation profile exactly. A stray
// runtime allocation can smear one measurement; the pin holds if any of
// three attempts lands exactly.
func assertAllocPin(t *testing.T, what string, f func(), wantAllocs int, wantBytes uint64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	var allocs float64
	var bytes uint64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(200, f)
		bytes = bytesPerRun(200, f)
		if allocs == float64(wantAllocs) && bytes == wantBytes {
			return
		}
	}
	t.Fatalf("%s profile moved: %.1f allocs/op (want %d), %d B/op (want %d)",
		what, allocs, wantAllocs, bytes, wantBytes)
}

func TestIngestBytePathAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now, Dir: t.TempDir()})
	defer s.Close()
	body, err := profdb.EncodeBundle([]profdb.Entry{{Profile: synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func() {
		ps, err := profdb.PlanBundle(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := &ps.Records[0]
		if _, err := s.IngestPlan(LabelsOf(rec.Meta), rec.Plan, rec.Encoded()); err != nil {
			t.Fatal(err)
		}
		ps.Release()
	}
	for i := 0; i < 200; i++ {
		ingest()
	}
	assertAllocPin(t, "byte-path ingest", ingest, pinnedBytePathAllocs, pinnedBytePathBytes)
}

// TestTelemetryScrapeRace hammers the store's write paths while scrapers
// render /metrics-style expositions and read the journal — the gauge
// callbacks take the all-shard read lock under the registry mutex, so
// this is also the lock-order check between the two subsystems.
func TestTelemetryScrapeRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now, Shards: 4, Telemetry: reg})
	defer s.Close()

	const writers, ingestsPer = 4, 200
	var writeWG, scrapeWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			p := synthProfile(fmt.Sprintf("W%d", w), "Nvidia", "pytorch", uint64(0x1000*(w+1)), 1)
			for i := 0; i < ingestsPer; i++ {
				if _, err := s.Ingest(p); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 49 {
					clock.Advance(time.Minute)
					s.CompactNow()
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				reg.Journal().Select(telemetry.Filter{Kinds: []string{"window_close"}, Limit: 10})
				reg.Journal().Stats()
				s.Stats()
				s.TrendSweep()
			}
		}()
	}
	writeWG.Wait()
	close(done)
	scrapeWG.Wait()

	// The exposition must reflect everything the writers did.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	want := fmt.Sprintf("profstore_ingested_profiles_total %d", writers*ingestsPer)
	if !strings.Contains(expo, want) {
		t.Fatalf("exposition missing %q", want)
	}
	if s.Stats().Ingested != writers*ingestsPer {
		t.Fatalf("Stats().Ingested = %d, want %d", s.Stats().Ingested, writers*ingestsPer)
	}
}

// The JSON surface and the exposition are backed by the same counters;
// spot-check that they cannot drift by comparing Stats() against the
// rendered text after a workload with compaction and cache traffic.
func TestStatsMatchesExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Retention: 2, CoarseFactor: 2, Now: clock.Now, Telemetry: reg, CacheSize: 8})
	defer s.Close()
	p := synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1)
	for i := 0; i < 6; i++ {
		if _, err := s.Ingest(p); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
		s.CompactNow()
	}
	if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, "", 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Hotspots(context.Background(), time.Time{}, time.Time{}, Labels{}, "", 5); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	st := s.Stats()
	for _, pair := range [][2]string{
		{"profstore_ingested_profiles_total", fmt.Sprint(st.Ingested)},
		{"profstore_compactions_total", fmt.Sprint(st.Compactions)},
		{"profstore_cache_hits_total", fmt.Sprint(st.Cache.Hits)},
		{"profstore_cache_misses_total", fmt.Sprint(st.Cache.Misses)},
	} {
		want := pair[0] + " " + pair[1]
		if !strings.Contains(expo, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.Cache.Hits == 0 {
		t.Fatal("second identical Hotspots call did not hit the cache")
	}
}
