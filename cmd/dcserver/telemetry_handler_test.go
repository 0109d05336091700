package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore"
	"deepcontext/internal/telemetry"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	clock := &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	ts, _ := newTestServer(t, clock, profdb.DefaultMaxBytes)

	resp := postIngest(t, ts, dcpBytes(t, testProfile("UNet", 1)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/hotspots?top=5"); code != http.StatusOK {
		t.Fatalf("hotspots: HTTP %d", code)
	}

	code, expo := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"# TYPE dcserver_requests_total counter",
		`dcserver_requests_total{code="2xx",endpoint="/ingest"} 1`,
		`dcserver_requests_total{code="4xx",endpoint="/ingest"} 0`,
		"# TYPE dcserver_request_seconds histogram",
		`dcserver_request_seconds_bucket{endpoint="/hotspots",le="+Inf"} 1`,
		"dcserver_inflight_requests",
		"profstore_ingested_profiles_total 1",
		"profstore_ingest_seconds_count 1",
		"profstore_cache_entries",
		"profstore_trend_series",
		"profstore_tree_nodes",
		"go_goroutines",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A scrape observes itself on the next render.
	_, expo2 := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(expo2, `dcserver_requests_total{code="2xx",endpoint="/metrics"} 1`) {
		t.Error("second scrape does not count the first")
	}
}

type eventsResponse struct {
	Total   int64             `json:"total"`
	Dropped int64             `json:"dropped"`
	Events  []telemetry.Event `json:"events"`
}

func TestEventsEndpoint(t *testing.T) {
	clock := &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	store := profstore.New(profstore.Config{Window: time.Minute, Now: clock.Now})
	// A nanosecond threshold journals every request as slow, giving the
	// endpoint something to filter.
	ts := httptest.NewServer(newHandler(store, profdb.DefaultMaxBytes, time.Nanosecond))
	t.Cleanup(ts.Close)

	resp := postIngest(t, ts, dcpBytes(t, testProfile("UNet", 1)))
	resp.Body.Close()
	clock.Advance(2 * time.Minute)
	// The second ingest lands in a later window, closing the first — the
	// close is what puts a window_close event in the journal.
	resp = postIngest(t, ts, dcpBytes(t, testProfile("UNet", 2)))
	resp.Body.Close()
	if code, _ := getBody(t, ts.URL+"/hotspots?top=3"); code != http.StatusOK {
		t.Fatalf("hotspots: HTTP %d", code)
	}

	code, body := getBody(t, ts.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events: HTTP %d: %s", code, body)
	}
	var ev eventsResponse
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Total == 0 || len(ev.Events) == 0 {
		t.Fatalf("no events recorded: %s", body)
	}
	kinds := map[string]bool{}
	for _, e := range ev.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"slow_request", "window_close"} {
		if !kinds[want] {
			t.Errorf("journal missing a %q event (got %v)", want, kinds)
		}
	}

	// kind filtering, and seq cursoring off the filtered view.
	code, body = getBody(t, ts.URL+"/debug/events?kind=slow_request&limit=2")
	if code != http.StatusOK {
		t.Fatalf("filtered: HTTP %d", code)
	}
	var slow eventsResponse
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Events) == 0 || len(slow.Events) > 2 {
		t.Fatalf("kind+limit filter returned %d events", len(slow.Events))
	}
	for _, e := range slow.Events {
		if e.Kind != "slow_request" {
			t.Fatalf("kind filter leaked a %q event", e.Kind)
		}
		if e.Fields["query"] == "" && e.Message == "/hotspots" {
			t.Fatalf("slow_request for /hotspots lost its query string: %+v", e)
		}
	}
	cursor := slow.Events[0].Seq
	code, body = getBody(t, ts.URL+"/debug/events?since_seq="+strconv.FormatInt(cursor, 10))
	if code != http.StatusOK {
		t.Fatalf("since_seq: HTTP %d", code)
	}
	var after eventsResponse
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	for _, e := range after.Events {
		if e.Seq <= cursor {
			t.Fatalf("since_seq=%d returned seq %d", cursor, e.Seq)
		}
	}

	for _, bad := range []string{"?bogus=1", "?limit=x", "?limit=-1", "?since=never", "?since_seq=-2"} {
		if code, _ := getBody(t, ts.URL+"/debug/events"+bad); code != http.StatusBadRequest {
			t.Errorf("/debug/events%s: HTTP %d, want 400", bad, code)
		}
	}
}
