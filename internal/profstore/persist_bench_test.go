package profstore

import (
	"testing"
	"time"
)

// The ingest-path durability tax: the same Store.Ingest call with and
// without a WAL behind it. The delta is the full per-profile cost of
// persistence — profdb encoding, record framing/CRC, and the (unsynced)
// file append — measured for docs/PERFORMANCE.md § "WAL cost".
func benchmarkIngest(b *testing.B, dir string) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now, Dir: dir})
	defer s.Close()
	p := synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestStoreMemory(b *testing.B) { benchmarkIngest(b, "") }

func BenchmarkIngestStoreWAL(b *testing.B) { benchmarkIngest(b, b.TempDir()) }

// The window-close tax on the ingest path. Observation happens when an
// ingest rolls to a new window (the previous one just closed), so each
// iteration advances the clock one window and compacts — the steady-state
// production rhythm. Every close feeds the trend detector and computes
// the series aggregate. In-window ingest (the hot path) is untouched — one
// int64 compare guards the close pass; the pinned
// BenchmarkIngestStoreMemory profile must not move.
func BenchmarkIngestWindowRoll(b *testing.B) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now})
	defer s.Close()
	p := synthProfile("UNet", "Nvidia", "pytorch", 0x1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(p); err != nil {
			b.Fatal(err)
		}
		clock.Advance(time.Minute)
		s.CompactNow()
	}
}

// Snapshot cost at a representative occupancy (60 windows × 1 series).
func BenchmarkSnapshot(b *testing.B) {
	clock := newClock(base)
	s := New(Config{Window: time.Minute, Now: clock.Now, Dir: b.TempDir()})
	defer s.Close()
	for i := 0; i < 60; i++ {
		if _, err := s.Ingest(synthProfile("UNet", "Nvidia", "pytorch", uint64(0x100*i), 1)); err != nil {
			b.Fatal(err)
		}
		clock.Advance(time.Minute)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
