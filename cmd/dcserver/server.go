package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepcontext"
	"deepcontext/internal/cct"
	"deepcontext/internal/cluster"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
)

// newServerHandler wires the ingest/query API over one store and returns
// the *server itself (for the shutdown write drain) beside the handler.
// maxBody caps POST /ingest and /stream bodies in bytes; requests taking
// slow or longer land in the event journal (0 disables). Every route is
// instrumented into the store's telemetry registry, which /metrics and
// /debug/events expose.
//
// The query endpoints answer from one backend chosen here, once: the
// local store, or — when coord is non-nil — the scatter-gather
// coordinator, which feeds the same folds and answers byte-identically.
// Cluster mode also routes /ingest and /stream to each series' owning
// node and registers the /cluster/* control surface.
func newServerHandler(store *profstore.Store, coord *cluster.Coordinator, maxBody int64, slow time.Duration) (*server, http.Handler) {
	var queries queryBackend = localQueries{store}
	if coord != nil {
		queries = coord
	}
	s := &server{store: store, cluster: coord, queries: queries, maxBody: maxBody, started: time.Now()}
	s.streams = newStreamRegistry(store.Telemetry())
	m := newServerMetrics(store.Telemetry(), slow)
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc(route, m.wrap(route, h))
	}
	handle("/ingest", post(s.handleIngest))
	handle("/stream", post(s.handleStream))
	handle("/hotspots", get(s.handleHotspots))
	handle("/diff", get(s.handleDiff))
	handle("/flame", get(s.handleFlame))
	handle("/analyze", get(s.handleAnalyze))
	handle("/regressions", get(s.handleRegressions))
	handle("/topk", get(s.handleTopK))
	handle("/search", get(s.handleSearch))
	handle("/windows", get(s.handleWindows))
	handle("/stats", get(s.handleStats))
	handle("/healthz", get(s.handleHealthz))
	handle("/metrics", get(s.handleMetrics))
	handle("/debug/events", get(s.handleEvents))
	if coord != nil {
		handle("/cluster/status", get(s.handleClusterStatus))
		handle("/cluster/partials", post(s.handleClusterPartials))
		handle("/cluster/ingest", post(s.handleClusterIngest))
		handle("/cluster/export", post(s.handleClusterExport))
		handle("/cluster/import", post(s.handleClusterImport))
		handle("/cluster/table", post(s.handleClusterTable))
		handle("/cluster/drop", post(s.handleClusterDrop))
		handle("/cluster/join", post(s.handleClusterJoin))
	}
	return s, mux
}

// newHTTPServer wraps the handler in an http.Server with sane production
// timeouts (a stuck client must not pin a connection forever).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

type server struct {
	store   *profstore.Store
	cluster *cluster.Coordinator
	queries queryBackend
	maxBody int64
	streams *streamRegistry
	started time.Time

	// Shutdown write drain: beginWrite/endWrite bracket every mutating
	// handler; drain flips draining (new writes get 503) and waits for the
	// in-flight ones, so the shutdown snapshot never races an /ingest or
	// /stream batch that http.Server.Shutdown gave up waiting on.
	drainMu  sync.RWMutex
	draining bool
	writes   sync.WaitGroup
}

// beginWrite registers an in-flight mutating request; it reports false
// (and the caller must 503) once the server is draining.
func (s *server) beginWrite() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.writes.Add(1)
	return true
}

func (s *server) endWrite() { s.writes.Done() }

// drain stops accepting writes and waits up to timeout for the in-flight
// ones to finish, reporting whether the store is quiescent. Called after
// Serve returns and before the shutdown snapshot.
func (s *server) drain(timeout time.Duration) bool {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.writes.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

var errDraining = errors.New("server is shutting down")

// get rejects every method but GET (and HEAD, which net/http serves
// through the GET handler body-suppressed — liveness probes use it) with
// 405.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// post rejects every method but POST with 405.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	// Content-Type must be set before WriteHeader flushes the headers.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// statusClientClosedRequest is nginx's 499: the client went away before
// the response. Nothing reads the body, but the code keeps the request
// distinguishable in the endpoint metrics.
const statusClientClosedRequest = 499

// writeQueryError maps store query failures to HTTP codes: a bad metric
// name is the client's mistake (400, retrying is pointless), a canceled
// or timed-out request is 499 (the client is gone; the fold was
// abandoned mid-way), while an empty window range is 404 (data may
// arrive later).
func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, profstore.ErrUnknownMetric) {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, statusClientClosedRequest, err)
		return
	}
	writeError(w, http.StatusNotFound, err)
}

// queryLabels builds the series filter from workload/vendor/framework
// query parameters.
func queryLabels(q url.Values) profstore.Labels {
	return profstore.Labels{
		Workload:  q.Get("workload"),
		Vendor:    q.Get("vendor"),
		Framework: q.Get("framework"),
	}
}

// parseTime accepts RFC3339 or integer unix seconds (below 1e11, before
// the year 5138) or nanoseconds (from 1e17, after March 1973); empty means
// zero (open bound). An integer between the two — milliseconds or
// microseconds — is refused rather than read as a time no window holds.
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		switch {
		case n < 1e11:
			return time.Unix(n, 0), nil
		case n >= 1e17:
			return time.Unix(0, n), nil
		}
	}
	return time.Time{}, fmt.Errorf("bad time %q (want RFC3339, unix seconds or unix nanoseconds)", s)
}

func queryRange(q url.Values) (from, to time.Time, err error) {
	if from, err = parseTime(q.Get("from")); err != nil {
		return
	}
	to, err = parseTime(q.Get("to"))
	return
}

// queryCount reads a row-count parameter: def when it is absent, an error
// for anything but a non-negative integer (0 means no bound).
func queryCount(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q (want a non-negative integer)", name, s)
	}
	return n, nil
}

// POST /ingest — body is a .dcp database (one profile or a bundle); every
// contained profile is folded into the current window. In cluster mode the
// handler is the ingest router: profiles this node owns land locally, the
// rest travel, as the bytes received, to their owning node as one
// bundle per destination.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingest(w, r, s.cluster != nil)
}

// ingest serves an /ingest body. The body is validated whole and each
// profile planned from its bytes in the same pass (profdb.PlanBundleLimit),
// so no tree is built; apply lands the plans, forwarding the profiles
// another node owns when route is set. Codes: 413 or 400 for a body that
// does not plan, then apply's 500 or 502.
func (s *server) ingest(w http.ResponseWriter, r *http.Request, route bool) {
	if !s.beginWrite() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	defer s.endWrite()
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	planned, err := profdb.PlanBundleLimit(raw, s.maxBody)
	if err != nil {
		writeIngestError(w, err)
		return
	}
	defer planned.Release()
	out, code, err := s.apply(r.Context(), planned, route)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, out)
}

// apply lands a planned database — an /ingest or /cluster/ingest body, or
// one /stream batch — and is the one way a served profile reaches the
// store: cluster.IngestPlans folds each record this node keeps straight
// into its window tree, with the bytes it was planned from as its WAL
// record. With route set, a record another node owns travels instead, as
// those same bytes, in one bundle per owning node, sent after the local
// share landed. On failure apply returns the status to answer with: 500
// for a store failure, 502 for a failed forward. Either way the records
// ahead of the failure stay applied.
func (s *server) apply(ctx context.Context, planned *profdb.Plans, route bool) (cluster.IngestSummary, int, error) {
	forwards := map[string][][]byte{}
	out, err := cluster.IngestPlans(s.store, planned, func(labels profstore.Labels, rec *profdb.Planned) bool {
		if !route {
			return false
		}
		owner := s.cluster.OwnerOf(labels)
		if owner == s.cluster.Self() {
			return false
		}
		forwards[owner] = append(forwards[owner], rec.Encoded())
		return true
	})
	if err != nil {
		// The body planned, so what is left to fail is this node's
		// durability (layout check, WAL append): not the client's fault.
		return out, http.StatusInternalServerError, err
	}
	for _, owner := range sortedKeys(forwards) {
		dbs := forwards[owner]
		body, err := profdb.JoinBundles(dbs)
		if err != nil {
			return out, http.StatusInternalServerError, err
		}
		sum, err := s.cluster.ForwardBytes(ctx, owner, body, len(dbs))
		if err != nil {
			// Never retried: a re-delivered merge would double-count. 502
			// tells the client the body was only partially applied.
			return out, http.StatusBadGateway, err
		}
		out.Ingested += sum.Ingested
		out.Series = append(out.Series, sum.Series...)
		for _, ws := range sum.Windows {
			if !slices.Contains(out.Windows, ws) {
				out.Windows = append(out.Windows, ws)
			}
		}
	}
	return out, 0, nil
}

// readBody reads a request body of at most maxBody bytes, in one
// allocation when the client declared its length: the buffer is sized from
// Content-Length (plus the slack ReadFrom needs to see EOF without
// growing), never beyond the cap however large the header claims. Chunked
// bodies grow as they arrive. On failure it has written the response: 413
// for an oversize body, 400 for one that could not be read.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if n := min(r.ContentLength, s.maxBody+1); n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// writeIngestError maps a failure past the body read to its status: 413
// for a payload over the cap, 400 for one that does not decode, and 500
// for everything else — by then the input was fine and this node failed to
// store it.
func writeIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, profdb.ErrTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, profdb.ErrCorrupt):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// queryBackend answers the query endpoints. *cluster.Coordinator is the
// cluster-mode backend; localQueries is the single-node one.
type queryBackend interface {
	Hotspots(ctx context.Context, from, to time.Time, filter profstore.Labels, metric string, top int) ([]profstore.Hotspot, profstore.AggregateInfo, error)
	Diff(ctx context.Context, before, after time.Time, filter profstore.Labels, metric string, top int) (*profstore.DiffResult, error)
	Aggregate(ctx context.Context, from, to time.Time, filter profstore.Labels) (*cct.Tree, profstore.AggregateInfo, error)
	TopK(ctx context.Context, from, to time.Time, filter profstore.Labels, metric string, k int) ([]profstore.TopKRow, profstore.AggregateInfo, error)
	Search(ctx context.Context, from, to time.Time, filter profstore.Labels, frame, metric string, limit int) ([]profstore.SearchRow, profstore.AggregateInfo, error)
	Regressions(ctx context.Context, q profstore.RegressionQuery) ([]trend.Finding, *profstore.TrendStats, *profstore.Coverage, error)
}

// localQueries is the single-node queryBackend: the store, sweeping before
// the queries that read closed windows, as every node does when the
// coordinator asks — so windows that closed since the last ingest are
// aggregated and observed even on a quiet store.
type localQueries struct{ *profstore.Store }

func (l localQueries) TopK(ctx context.Context, from, to time.Time, filter profstore.Labels, metric string, k int) ([]profstore.TopKRow, profstore.AggregateInfo, error) {
	l.TrendSweep()
	return l.Store.TopK(ctx, from, to, filter, metric, k)
}

func (l localQueries) Search(ctx context.Context, from, to time.Time, filter profstore.Labels, frame, metric string, limit int) ([]profstore.SearchRow, profstore.AggregateInfo, error) {
	l.TrendSweep()
	return l.Store.Search(ctx, from, to, filter, frame, metric, limit)
}

// Regressions reports a single node's findings with its trend stats; the
// coverage is always complete.
func (l localQueries) Regressions(_ context.Context, q profstore.RegressionQuery) ([]trend.Finding, *profstore.TrendStats, *profstore.Coverage, error) {
	l.TrendSweep()
	return l.Store.Regressions(q), l.Stats().Trend, nil, nil
}

// GET /hotspots?metric=&top=&workload=&vendor=&framework=&from=&to=
func (s *server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to, err := queryRange(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	top, err := queryCount(q, "top", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	metric := q.Get("metric")
	rows, info, err := s.queries.Hotspots(r.Context(), from, to, queryLabels(q), metric, top)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	if metric == "" {
		metric = defaultMetric
	}
	writeJSON(w, struct {
		Metric string                  `json:"metric"`
		Info   profstore.AggregateInfo `json:"info"`
		Rows   []profstore.Hotspot     `json:"rows"`
	}{metric, info, rows})
}

// GET /diff?before=&after=&metric=&top=&workload=&vendor=&framework=
func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	before, err := parseTime(q.Get("before"))
	if err != nil || before.IsZero() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("diff needs before= and after= window times: %v", err))
		return
	}
	after, err := parseTime(q.Get("after"))
	if err != nil || after.IsZero() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("diff needs before= and after= window times: %v", err))
		return
	}
	top, err := queryCount(q, "top", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.queries.Diff(r.Context(), before, after, queryLabels(q), q.Get("metric"), top)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, res)
}

// GET /flame?format=html|folded&metric=&bottomup=1&from=&to=&filters...
// With before= and after= set it renders the signed diff flame instead.
func (s *server) handleFlame(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	signed := false
	var p *deepcontext.Profile
	if q.Get("before") != "" || q.Get("after") != "" {
		before, err1 := parseTime(q.Get("before"))
		after, err2 := parseTime(q.Get("after"))
		if err1 != nil || err2 != nil || before.IsZero() || after.IsZero() {
			writeError(w, http.StatusBadRequest, fmt.Errorf("signed flame needs both before= and after="))
			return
		}
		res, err := s.queries.Diff(r.Context(), before, after, queryLabels(q), metric, 0)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		p = &deepcontext.Profile{Tree: res.Tree}
		p.Meta.Workload = "diff"
		signed = true
	} else {
		from, to, err := queryRange(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		tree, info, err := s.queries.Aggregate(r.Context(), from, to, queryLabels(q))
		if err != nil {
			writeQueryError(w, err)
			return
		}
		p = &deepcontext.Profile{Tree: tree}
		p.Meta.Workload = strings.Join(info.Series, "+")
	}
	// A bad metric name is the client's mistake; catch it here so it maps
	// to 400 like /hotspots and /diff, not the renderer's 500.
	if metric != "" {
		if _, ok := p.Tree.Schema.Lookup(metric); !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("metric %q not present (known: %s)",
				metric, strings.Join(p.Tree.Schema.Names(), ", ")))
			return
		}
	}
	switch q.Get("format") {
	case "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := deepcontext.WriteFolded(w, p, metric); err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
	case "", "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		opts := deepcontext.FlameOptions{Metric: metric, Signed: signed, BottomUp: q.Get("bottomup") != ""}
		if err := deepcontext.WriteFlameGraph(w, p, opts); err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want html or folded)", q.Get("format")))
	}
}

// GET /analyze?from=&to=&filters... — the automated analyzer over the
// window aggregate, as JSON.
func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, to, err := queryRange(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tree, info, err := s.queries.Aggregate(r.Context(), from, to, queryLabels(q))
	if err != nil {
		writeQueryError(w, err)
		return
	}
	p := &deepcontext.Profile{Tree: tree}
	rep := deepcontext.Analyze(p)
	writeJSON(w, struct {
		Info   profstore.AggregateInfo `json:"info"`
		Report any                     `json:"report"`
	}{info, rep.JSON()})
}

// GET /windows — retained buckets, oldest first.
func (s *server) handleWindows(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Windows())
}

// GET /stats — store occupancy plus server uptime and limits.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cfg := s.store.Config()
	writeJSON(w, struct {
		Store           profstore.Stats `json:"store"`
		UptimeSeconds   float64         `json:"uptime_seconds"`
		MaxBodyBytes    int64           `json:"max_body_bytes"`
		WindowSeconds   float64         `json:"window_seconds"`
		Retention       int             `json:"retention"`
		CoarseFactor    int             `json:"coarse_factor"`
		CoarseRetention int             `json:"coarse_retention"`
	}{s.store.Stats(), time.Since(s.started).Seconds(), s.maxBody,
		cfg.Window.Seconds(), cfg.Retention, cfg.CoarseFactor, cfg.CoarseRetention})
}

// GET /healthz — liveness, the ingest count, and the peer-wire version
// this node speaks (a cluster router marks a peer of another version down).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Status   string `json:"status"`
		Ingested int64  `json:"ingested"`
		PeerWire int    `json:"peer_wire"`
	}{"ok", s.store.Stats().Ingested, cluster.WireVersion})
}
