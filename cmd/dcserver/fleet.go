package main

// The fleet-wide query surface: /topk ranks frame labels across every
// matching series via the store's close-time aggregates, /search finds
// the series containing a given frame via the inverted frame index. Both
// parsers take url.Values directly so the fuzz tests drive them without a
// server.

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"deepcontext/internal/profstore"
)

// topkQuery is the parsed form of /topk's parameters.
type topkQuery struct {
	filter   profstore.Labels
	from, to time.Time
	metric   string
	k        int
}

// parseTopKQuery maps /topk query parameters to a store query. k bounds
// the result rows (default 20, 0 = unbounded).
func parseTopKQuery(q url.Values) (topkQuery, error) {
	out := topkQuery{
		filter: profstore.Labels{
			Workload:  q.Get("workload"),
			Vendor:    q.Get("vendor"),
			Framework: q.Get("framework"),
		},
		metric: q.Get("metric"),
		k:      20,
	}
	var err error
	if out.from, err = parseTime(q.Get("from")); err != nil {
		return out, err
	}
	if out.to, err = parseTime(q.Get("to")); err != nil {
		return out, err
	}
	if s := q.Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return out, fmt.Errorf("bad k %q (want a non-negative integer)", s)
		}
		out.k = n
	}
	return out, nil
}

// searchQuery is the parsed form of /search's parameters.
type searchQuery struct {
	filter   profstore.Labels
	from, to time.Time
	frame    string
	metric   string
	limit    int
}

// parseSearchQuery maps /search query parameters to a store query. frame
// (the display label to look for, e.g. a kernel name) is required; limit
// bounds the result rows (default 50, 0 = unbounded).
func parseSearchQuery(q url.Values) (searchQuery, error) {
	out := searchQuery{
		filter: profstore.Labels{
			Workload:  q.Get("workload"),
			Vendor:    q.Get("vendor"),
			Framework: q.Get("framework"),
		},
		frame:  q.Get("frame"),
		metric: q.Get("metric"),
		limit:  50,
	}
	if out.frame == "" {
		return out, fmt.Errorf("search needs frame= (a frame label, e.g. a kernel name)")
	}
	var err error
	if out.from, err = parseTime(q.Get("from")); err != nil {
		return out, err
	}
	if out.to, err = parseTime(q.Get("to")); err != nil {
		return out, err
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return out, fmt.Errorf("bad limit %q (want a non-negative integer)", s)
		}
		out.limit = n
	}
	return out, nil
}

// GET /topk?metric=&k=&workload=&vendor=&framework=&from=&to= —
// fleet-wide frame ranking over the close-time aggregates.
func (s *server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q, err := parseTopKQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows, info, err := s.queries.TopK(r.Context(), q.from, q.to, q.filter, q.metric, q.k)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	metric := q.metric
	if metric == "" {
		metric = defaultMetric
	}
	writeJSON(w, struct {
		Metric string                  `json:"metric"`
		Info   profstore.AggregateInfo `json:"info"`
		Rows   []profstore.TopKRow     `json:"rows"`
	}{metric, info, rows})
}

// GET /search?frame=&metric=&limit=&workload=&vendor=&framework=&from=&to=
// — which series contain the frame, ranked by its exclusive metric.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q, err := parseSearchQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows, info, err := s.queries.Search(r.Context(), q.from, q.to, q.filter, q.frame, q.metric, q.limit)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	metric := q.metric
	if metric == "" {
		metric = defaultMetric
	}
	writeJSON(w, struct {
		Frame  string                  `json:"frame"`
		Metric string                  `json:"metric"`
		Info   profstore.AggregateInfo `json:"info"`
		Rows   []profstore.SearchRow   `json:"rows"`
	}{q.frame, metric, info, rows})
}
