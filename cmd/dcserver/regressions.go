package main

// The /regressions surface and the webhook notifier: both read the
// profstore trend detector's confirmed change points, grade them with the
// analyzer's trend rules, and attach a signed-flame drill-down link so one
// click shows which calling contexts grew between the flagged windows.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"deepcontext/internal/analyzer"
	"deepcontext/internal/profstore"
	"deepcontext/internal/profstore/trend"
)

// regressionRow is one finding on the wire: the raw change point plus its
// analyzer grade and the signed-diff flame link for drill-down.
type regressionRow struct {
	trend.Finding
	Severity   string `json:"severity"`
	Analysis   string `json:"analysis"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
	// FlameURL renders the before→after signed diff flame for the
	// finding's series (relative to the server root; valid while both
	// windows are retained).
	FlameURL string `json:"flame_url"`
}

// regressionRows grades findings into wire rows.
func regressionRows(findings []trend.Finding) []regressionRow {
	rows := make([]regressionRow, 0, len(findings))
	for _, f := range findings {
		is := analyzer.GradeTrend(f)
		rows = append(rows, regressionRow{
			Finding:    f,
			Severity:   is.Severity.String(),
			Analysis:   is.Analysis,
			Message:    is.Message,
			Suggestion: is.Suggestion,
			FlameURL:   flameURL(f),
		})
	}
	return rows
}

// flameURL builds the signed-diff drill-down link for one finding.
func flameURL(f trend.Finding) string {
	q := url.Values{}
	q.Set("before", strconv.FormatInt(f.BeforeUnixNano, 10))
	q.Set("after", strconv.FormatInt(f.AfterUnixNano, 10))
	q.Set("workload", f.Workload)
	q.Set("vendor", f.Vendor)
	q.Set("framework", f.Framework)
	q.Set("metric", f.Metric)
	return "/flame?" + q.Encode()
}

// parseRegressionQuery maps /regressions query parameters to a store
// query. dir selects up (share increases — regressions, the default),
// down (improvements) or both; limit bounds the result to the newest N
// findings (default 100, 0 = unbounded).
func parseRegressionQuery(q url.Values) (profstore.RegressionQuery, error) {
	out := profstore.RegressionQuery{
		Filter: profstore.Labels{
			Workload:  q.Get("workload"),
			Vendor:    q.Get("vendor"),
			Framework: q.Get("framework"),
		},
		Direction: 1,
		Limit:     100,
	}
	switch dir := q.Get("dir"); dir {
	case "", "up":
		// regressions — the default view
	case "down":
		out.Direction = -1
	case "both":
		out.Direction = 0
	default:
		return out, fmt.Errorf("bad dir %q (want up, down or both)", dir)
	}
	if s := q.Get("since"); s != "" {
		t, err := parseTime(s)
		if err != nil {
			return out, err
		}
		out.Since = t
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return out, fmt.Errorf("bad limit %q (want a non-negative integer)", s)
		}
		out.Limit = n
	}
	return out, nil
}

// GET /regressions?workload=&vendor=&framework=&since=&dir=up|down|both&limit=
// — confirmed change points, graded and linked to their diff flames.
func (s *server) handleRegressions(w http.ResponseWriter, r *http.Request) {
	q, err := parseRegressionQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	findings, stats, cov, err := s.queries.Regressions(r.Context(), q)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	rows := regressionRows(findings)
	writeJSON(w, struct {
		Count    int                   `json:"count"`
		Trend    *profstore.TrendStats `json:"trend"`
		Coverage *profstore.Coverage   `json:"coverage,omitempty"`
		Rows     []regressionRow       `json:"rows"`
	}{len(rows), stats, cov, rows})
}

// webhookPayload is the body POSTed to -webhook-url: the newly confirmed
// findings since the previous poll, graded like /regressions rows.
type webhookPayload struct {
	Source   string          `json:"source"`
	Count    int             `json:"count"`
	Findings []regressionRow `json:"findings"`
}

// encodeWebhookPayload builds the webhook body for a batch of findings.
func encodeWebhookPayload(findings []trend.Finding) ([]byte, error) {
	rows := regressionRows(findings)
	return json.Marshal(webhookPayload{Source: "dcserver", Count: len(rows), Findings: rows})
}

// findingKey identifies one confirmed change point for webhook dedup.
// Series and frame labels never contain '\x00'.
func findingKey(f trend.Finding) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d", f.Series, f.Frame, f.AfterUnixNano, f.Direction)
}

// notifier polls the store and POSTs newly confirmed findings (both
// directions) to a webhook. The first poll primes the seen-set without
// posting, so a restart does not replay findings already notified before
// the previous shutdown. Delivery is at-most-once: a failed POST is
// logged and not retried.
type notifier struct {
	store    *profstore.Store
	url      string
	interval time.Duration
	client   *http.Client

	mu     sync.Mutex
	seen   map[string]bool
	primed bool

	stop chan struct{}
	done chan struct{}
}

// startNotifier begins polling in the background; Close stops it.
func startNotifier(store *profstore.Store, url string, interval time.Duration) *notifier {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	n := &notifier{
		store:    store,
		url:      url,
		interval: interval,
		client:   &http.Client{Timeout: 30 * time.Second},
		seen:     make(map[string]bool),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		tick := time.NewTicker(n.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if _, err := n.poll(); err != nil {
					fmt.Fprintln(os.Stderr, "dcserver: webhook:", err)
				}
			case <-n.stop:
				return
			}
		}
	}()
	return n
}

// Close stops the polling goroutine and waits for it to exit.
func (n *notifier) Close() {
	close(n.stop)
	<-n.done
}

// poll sweeps the store, diffs the retained findings against the
// seen-set, and POSTs the fresh ones. It returns how many findings were
// posted (0 on the priming poll and when nothing is new).
func (n *notifier) poll() (int, error) {
	n.store.TrendSweep()
	findings := n.store.Regressions(profstore.RegressionQuery{})

	n.mu.Lock()
	cur := make(map[string]bool, len(findings))
	var fresh []trend.Finding
	for _, f := range findings {
		k := findingKey(f)
		cur[k] = true
		if !n.seen[k] {
			fresh = append(fresh, f)
		}
	}
	prime := !n.primed
	n.seen, n.primed = cur, true
	n.mu.Unlock()

	if prime || len(fresh) == 0 {
		return 0, nil
	}
	body, err := encodeWebhookPayload(fresh)
	if err != nil {
		return 0, err
	}
	resp, err := n.client.Post(n.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("POST %s: %w", n.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return 0, fmt.Errorf("POST %s: HTTP %d", n.url, resp.StatusCode)
	}
	return len(fresh), nil
}
