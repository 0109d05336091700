package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"deepcontext/internal/telemetry"
)

// pprofMux serves net/http/pprof on its own mux so the profiler never
// rides on the public API listener (and never registers on the default
// mux as a side effect).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// defaultSlowRequest is the slow-request journal threshold: the
// -slow-request default, and what the tests serve with.
const defaultSlowRequest = time.Second

// Status classes recorded per endpoint. Everything the API can return is
// 2xx/4xx/5xx; 3xx is registered anyway so the exposition shape does not
// depend on traffic.
var codeClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// serverMetrics owns the HTTP-layer telemetry: per-endpoint handles are
// resolved once at route wiring, so per-request recording is a handful of
// atomic adds plus one histogram observation.
type serverMetrics struct {
	reg      *telemetry.Registry
	journal  *telemetry.Journal
	inflight *telemetry.Gauge
	slow     time.Duration // journal requests at/over this; 0 disables
}

// endpointMetrics is the preregistered handle set for one route.
type endpointMetrics struct {
	codes     [4]*telemetry.Counter // by status class, 2xx..5xx
	latency   *telemetry.Histogram
	reqBytes  *telemetry.Counter
	respBytes *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry, slow time.Duration) *serverMetrics {
	m := &serverMetrics{
		reg:      reg,
		journal:  reg.Journal(),
		inflight: reg.Gauge("dcserver_inflight_requests", "HTTP requests currently being served."),
		slow:     slow,
	}
	reg.GaugeFunc("go_goroutines", "Goroutines currently live.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	return m
}

// endpoint preregisters every series for one route so the exposition is
// complete (and greppable in CI) before the first request arrives.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	em := &endpointMetrics{
		latency: m.reg.Histogram("dcserver_request_seconds", "Request latency by endpoint.",
			telemetry.L("endpoint", name)),
		reqBytes: m.reg.Counter("dcserver_request_bytes_total", "Request body bytes received by endpoint.",
			telemetry.L("endpoint", name)),
		respBytes: m.reg.Counter("dcserver_response_bytes_total", "Response body bytes written by endpoint.",
			telemetry.L("endpoint", name)),
	}
	for i, class := range codeClasses {
		em.codes[i] = m.reg.Counter("dcserver_requests_total", "HTTP requests served by endpoint and status class.",
			telemetry.L("endpoint", name), telemetry.L("code", class))
	}
	return em
}

// statusRecorder captures the status code and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// wrap instruments one route: request count by status class, latency,
// bytes in/out, the in-flight gauge, and a journal event for requests at
// or over the slow threshold (query string included — the slow query is
// the one you want to reproduce).
func (m *serverMetrics) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := m.endpoint(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		m.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		m.inflight.Add(-1)
		elapsed := time.Since(t0)

		status := rec.status
		if status == 0 { // handler wrote nothing: net/http sends 200
			status = http.StatusOK
		}
		class := status/100 - 2
		if class < 0 || class >= len(em.codes) {
			class = len(em.codes) - 1 // anything exotic counts as 5xx
		}
		em.codes[class].Inc()
		em.latency.Observe(elapsed)
		if r.ContentLength > 0 {
			em.reqBytes.Add(r.ContentLength)
		}
		em.respBytes.Add(rec.bytes)

		if m.slow > 0 && elapsed >= m.slow {
			m.journal.Record("slow_request", endpoint,
				"method", r.Method,
				"query", r.URL.RawQuery,
				"status", strconv.Itoa(status),
				"ms", strconv.FormatInt(elapsed.Milliseconds(), 10))
		}
	}
}

// GET /metrics — the whole registry (request, store, WAL, cache,
// trend families) in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.store.Telemetry().WritePrometheus(w)
}

const (
	defaultEventsLimit = 100
	maxEventsLimit     = 1000
)

// GET /debug/events?kind=&since=&since_seq=&limit= — the in-memory
// lifecycle journal, oldest first.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, err := parseEventsQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := s.store.Telemetry().Journal()
	total, dropped := j.Stats()
	events := j.Select(f)
	writeJSON(w, struct {
		Total   int64             `json:"total"`
		Dropped int64             `json:"dropped"`
		Events  []telemetry.Event `json:"events"`
	}{total, dropped, events})
}

// parseEventsQuery builds the journal filter from /debug/events query
// parameters. kind= repeats or takes a comma-separated list; since=
// accepts RFC3339 or unix seconds/nanoseconds; unknown parameters are
// rejected so a typo (kinds=) fails loudly instead of returning
// everything.
func parseEventsQuery(q url.Values) (telemetry.Filter, error) {
	var f telemetry.Filter
	f.Limit = defaultEventsLimit
	for key, vals := range q {
		switch key {
		case "kind":
			for _, v := range vals {
				for _, k := range strings.Split(v, ",") {
					if k = strings.TrimSpace(k); k != "" {
						f.Kinds = append(f.Kinds, k)
					}
				}
			}
		case "since":
			t, err := parseTime(q.Get("since"))
			if err != nil {
				return telemetry.Filter{}, err
			}
			f.Since = t
		case "since_seq":
			n, err := strconv.ParseInt(q.Get("since_seq"), 10, 64)
			if err != nil || n < 0 {
				return telemetry.Filter{}, fmt.Errorf("bad since_seq %q (want a non-negative integer)", q.Get("since_seq"))
			}
			f.SinceSeq = n
		case "limit":
			n, err := strconv.Atoi(q.Get("limit"))
			if err != nil || n < 0 {
				return telemetry.Filter{}, fmt.Errorf("bad limit %q (want a non-negative integer)", q.Get("limit"))
			}
			if n == 0 || n > maxEventsLimit {
				n = maxEventsLimit
			}
			f.Limit = n
		default:
			return telemetry.Filter{}, fmt.Errorf("unknown parameter %q (want kind, since, since_seq, limit)", key)
		}
	}
	return f, nil
}
