package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

// Every served ingest path plans through pooled state — /ingest and WAL
// replay from bytes, /stream from materialized trees. This drives them at
// once, under the race detector in CI: full uploads and delta sessions
// into one durable server, then a WAL replay of its directory racing more
// uploads into a second server. The replayed store must answer exactly
// as the live one did.
func TestConcurrentIngestStreamReplay(t *testing.T) {
	clock := &testClock{t: testBase}
	dir := t.TempDir()
	live := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now, Dir: dir, Shards: 2})
	ts := httptest.NewServer(newHandler(live, profdb.DefaultMaxBytes, defaultSlowRequest, false))

	const uploaders, uploads, streamers, rounds = 4, 6, 2, 6
	upload := func(url string, c, i int) error {
		code, msg := postBytes(t, url+"/ingest", dcpBytes(t, testProfile(fmt.Sprintf("W%d", c%3), float64(i+1))))
		if code != http.StatusAccepted {
			return fmt.Errorf("upload %d/%d: status %d: %s", c, i, code, msg)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, uploaders*uploads+streamers*rounds)
	for c := 0; c < uploaders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < uploads; i++ {
				if err := upload(ts.URL, c, i); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	for s := 0; s < streamers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sc := newStreamClient(http.DefaultClient, ts.URL, fmt.Sprintf("race-%d", s))
			ps := []*profiler.Profile{streamTestProfile(fmt.Sprintf("S%d", s), 12)}
			for r := 0; r < rounds; r++ {
				res, err := sc.send(ps)
				if err != nil || res.Reset || len(res.Nacked) > 0 {
					errs <- fmt.Errorf("stream %d round %d: %+v %v", s, r, res, err)
					return
				}
				bumpKernels(ps[0], float64(r+1))
			}
		}(s)
	}
	wg.Wait()
	ts.Close()
	live.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := live.Stats().Ingested, int64(uploaders*uploads+streamers*rounds); got != want {
		t.Fatalf("live store ingested %d, want %d", got, want)
	}

	// Replay the live directory while another server takes uploads: both
	// draw plans from the same pools.
	other := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	ots := httptest.NewServer(newHandler(other, profdb.DefaultMaxBytes, defaultSlowRequest, false))
	defer ots.Close()
	replayed := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now, Dir: dir, Shards: 2})
	defer replayed.Close()
	errs = make(chan error, uploaders*uploads+1)
	for c := 0; c < uploaders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < uploads; i++ {
				if err := upload(ots.URL, c, i); err != nil {
					errs <- err
				}
			}
		}(c)
	}
	rs, err := replayed.Recover()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALSkippedRecords != 0 || rs.WALRecords != int64(uploaders*uploads+streamers*rounds) {
		t.Fatalf("replay: %+v", rs)
	}
	assertStoresAgree(t, replayed, live)
}
