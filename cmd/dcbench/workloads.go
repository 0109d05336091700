package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"deepcontext/internal/cct"
	"deepcontext/internal/profiler"
)

// primaryKind says which side of a workload its headline throughput and
// latency come from.
type primaryKind int

const (
	primaryIngest primaryKind = iota
	primaryQuery
	primaryPipeline
)

// workloadSpec names one workload. The names are fixed: later issues cite
// them.
type workloadSpec struct {
	name    string
	why     string
	primary primaryKind
	server  func() serverWorkload // nil for offline_pipeline
}

var workloadSpecs = []workloadSpec{
	{"ingest_full", "full profdb bodies into one durable node: body read, decode, WAL encode and append, normalize, merge", primaryIngest,
		func() serverWorkload { return &ingestFull{} }},
	{"stream_delta", "16 delta sessions into the same kind of node: delta decode/apply and the batched one-lock-per-shard path, not full decode", primaryIngest,
		func() serverWorkload { return &streamDelta{} }},
	{"dashboard_mix", "queries beside a paced writer with a working set that fits the query cache: hit, invalidate, fold, render", primaryQuery,
		func() serverWorkload { return &dashboardMix{} }},
	{"fleet_query", "three times more distinct /topk and /search queries than cache entries: close-time aggregates, index, fold, encode", primaryQuery,
		func() serverWorkload { return &fleetQuery{} }},
	{"cluster_mix", "three processes, all traffic through one router: ring, forward encode/decode, partials, base64 trees, fold", primaryQuery,
		func() serverWorkload { return &clusterMix{} }},
	{"offline_pipeline", "no server: profile, save, load, analyze, flame graph — the paper's single-user path, which a server change must leave flat", primaryPipeline, nil},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// Shared helpers.

// openConns opens n connections to one server.
func openConns(s *server, n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = newConn(s.url)
	}
	return out
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// sleepPast sleeps until eps after t and returns how long it slept.
func sleepPast(t time.Time) time.Duration {
	d := time.Until(t.Add(10 * time.Millisecond))
	if d <= 0 {
		return 0
	}
	time.Sleep(d)
	return d
}

// nextBoundary is the start of the window after the current one. Windows
// are cut on the wall clock (the store truncates its ingest time), so the
// client can find the boundaries without asking.
func nextBoundary() time.Time { return time.Now().Truncate(windowWidth).Add(windowWidth) }

// ingestAck is the body of a 202 from /ingest.
type ingestAck struct {
	Ingested int      `json:"ingested"`
	Windows  []string `json:"windows"`
}

// seedWindow sends reqs once (closed loop) and returns the earliest window
// the server reported landing them in and the profiles acknowledged.
func seedWindow(conns []*conn, reqs []request) (time.Time, int64, error) {
	t := closedLoop(conns, reqs, loopOptions{maxOps: len(reqs), keepAcks: true})
	if t.failed > 0 {
		return time.Time{}, 0, fmt.Errorf("seeding: %d of %d ingests failed; first: %s", t.failed, t.attempted, t.firstFailure)
	}
	var first time.Time
	for _, raw := range t.acks {
		var ack ingestAck
		if err := json.Unmarshal(raw, &ack); err != nil {
			return time.Time{}, 0, fmt.Errorf("seeding: ingest ack: %w", err)
		}
		for _, ws := range ack.Windows {
			w, err := time.Parse(time.RFC3339Nano, ws)
			if err != nil {
				return time.Time{}, 0, fmt.Errorf("seeding: ingest ack window: %w", err)
			}
			if first.IsZero() || w.Before(first) {
				first = w
			}
		}
	}
	if first.IsZero() {
		return time.Time{}, 0, fmt.Errorf("seeding: no window reported")
	}
	return first, t.profiles, nil
}

// seedClosedWindows lands reqs once in each of two consecutive windows and
// waits until both have closed. With grow set, the first half of reqs goes
// a second time into the later window, so that a diff of the two has
// something to show. It returns the two window starts, the time spent
// sleeping and the profiles sent.
func seedClosedWindows(conns []*conn, reqs []request, grow bool) (w0, w1 time.Time, idle time.Duration, sent int64, err error) {
	var first, second int64
	idle += sleepPast(nextBoundary())
	if w0, first, err = seedWindow(conns, reqs); err != nil {
		return
	}
	idle += sleepPast(nextBoundary())
	if grow {
		reqs = append(append([]request(nil), reqs...), reqs[:len(reqs)/2]...)
	}
	if w1, second, err = seedWindow(conns, reqs); err != nil {
		return
	}
	sent = first + second
	idle += sleepPast(nextBoundary())
	if !w1.After(w0) {
		err = fmt.Errorf("seeding: both rounds landed in window %v", w0)
	}
	return
}

// rowsBody is the part of a query response the warm-up check reads.
type rowsBody struct {
	Rows  []json.RawMessage `json:"rows"`
	Count *int              `json:"count"`
}

// warmQueries sends each distinct query shape once, parses the answer and
// requires at least one row — except from /regressions, which steady
// traffic gives nothing to report, and from the text and report
// endpoints, which must merely be non-empty.
func warmQueries(c *conn, reqs []request) error {
	seen := map[string]bool{}
	for i := range reqs {
		r := &reqs[i]
		shape := r.route
		if r.closed {
			shape += " closed"
		}
		if strings.Contains(r.path, "workload=") {
			shape += " filtered"
		}
		if seen[shape] {
			continue
		}
		seen[shape] = true
		body, err := c.get(r.path)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		switch r.route {
		case "/flame":
			if len(body) == 0 {
				return fmt.Errorf("warm-up: %s returned nothing", r.path)
			}
		case "/analyze":
			var rep struct {
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(body, &rep); err != nil || len(rep.Report) == 0 {
				return fmt.Errorf("warm-up: %s returned no report (%v)", r.path, err)
			}
		case "/regressions":
			var rb rowsBody
			if err := json.Unmarshal(body, &rb); err != nil || rb.Count == nil {
				return fmt.Errorf("warm-up: %s: malformed answer (%v)", r.path, err)
			}
		default:
			var rb rowsBody
			if err := json.Unmarshal(body, &rb); err != nil {
				return fmt.Errorf("warm-up: %s: %w", r.path, err)
			}
			if len(rb.Rows) == 0 {
				return fmt.Errorf("warm-up: %s returned no rows", r.path)
			}
		}
	}
	return nil
}

// ingestedOn reads /healthz's ingested count.
func ingestedOn(s *server) (int64, error) {
	c := newConn(s.url)
	defer c.close()
	body, err := c.get("/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		Status   string `json:"status"`
		Ingested int64  `json:"ingested"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, err
	}
	if h.Status != "ok" {
		return 0, fmt.Errorf("%s/healthz: status %q", s.url, h.Status)
	}
	return h.Ingested, nil
}

// pacedWriter runs pacedLoop over one connection.
func pacedWriter(c *conn, reqs []request, rate float64, until time.Time) *pacedResult {
	return pacedLoop(wallClock{}, func(r *request) (int, error) {
		status, _, err := c.do(r)
		return status, err
	}, reqs, rate, until)
}

// writeBesideReaders runs a paced writer on the first connection and
// closed-loop readers on the rest for the same interval.
func writeBesideReaders(writer *conn, readers []*conn, writes, queries []request, rate float64, until time.Time, tr *tracer) *phase {
	start := time.Now()
	var pr *pacedResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr = pacedWriter(writer, writes, rate, until)
	}()
	reads := closedLoop(readers, queries, loopOptions{until: until, tracer: tr})
	wg.Wait()
	return &phase{writes: &pr.tally, reads: reads, lateness: pr.lateness, elapsed: time.Since(start)}
}

// node is the one server, and the connections to it, of a single-node
// workload.
type node struct {
	srv   *server
	conns []*conn
}

func (n *node) servers() []*server  { return []*server{n.srv} }
func (n *node) ingestRoute() string { return "/ingest" }

func (n *node) teardown(b *bench) {
	closeConns(n.conns)
	n.conns = nil
	if n.srv != nil {
		b.procs.release(n.srv)
		n.srv = nil
	}
}

// ingest_full

const (
	ingestFullSeries  = 64
	ingestFullPreKill = 4000 // the issue's count; scaled by bench.count
	warmupOps         = 200
)

type ingestFull struct {
	ss    []series
	reqs  []request
	acked []int64 // acknowledged POSTs per request index, over the server's whole life
	node
	table []map[string]hotRow // per request index
}

func (w *ingestFull) gen(b *bench, rng *rand.Rand) (string, error) {
	ss, err := genSeries(rng, ingestFullSeries)
	if err != nil {
		return "", err
	}
	w.ss = ss
	reqs := make([]request, len(ss))
	for i := range ss {
		reqs[i] = ingestRequest(&ss[i])
	}
	perm := rng.Perm(len(reqs))
	w.reqs = make([]request, len(reqs))
	w.table = make([]map[string]hotRow, len(reqs))
	for i, j := range perm {
		w.reqs[i] = reqs[j]
		w.table[i] = hotspotTable(ss[j].profile)
	}
	return scheduleHash(w.reqs), nil
}

func (w *ingestFull) sample() []series { return w.ss }

func (w *ingestFull) book(t *tally) {
	for _, idx := range t.done {
		w.acked[idx]++
	}
}

func (w *ingestFull) total() int64 {
	var n int64
	for _, c := range w.acked {
		n += c
	}
	return n
}

// setup fills a write-ahead log on a server that never snapshots, kills
// the server, and restarts it on the same directory: the timed phase runs
// on a store that has just recovered.
func (w *ingestFull) setup(b *bench) (time.Duration, map[string]float64, error) {
	w.acked = make([]int64, len(w.reqs))
	dir, err := b.procs.newDataDir()
	if err != nil {
		return 0, nil, err
	}
	first, err := b.procs.spawn(dir, append(baseFlags(dir), "-snapshot-interval", "0")...)
	if err != nil {
		return 0, nil, err
	}
	w.srv = first
	conns := openConns(first, b.conns)
	t := closedLoop(conns, w.reqs, loopOptions{maxOps: b.count(ingestFullPreKill)})
	closeConns(conns)
	if t.failed > 0 {
		return 0, nil, fmt.Errorf("filling the log: %d of %d ingests failed; first: %s", t.failed, t.attempted, t.firstFailure)
	}
	w.book(t)
	if n, err := ingestedOn(first); err != nil || n != w.total() {
		return 0, nil, fmt.Errorf("before the kill /healthz reports %d ingested, %d were acknowledged (%v)", n, w.total(), err)
	}
	b.procs.crash(first)

	srv, err := b.procs.spawn(dir, baseFlags(dir)...)
	if err != nil {
		return 0, nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	w.srv = srv
	recoverS := srv.ready.Sub(srv.spawned).Seconds()
	if n, err := ingestedOn(srv); err != nil || n != w.total() {
		return 0, nil, fmt.Errorf("after recovery /healthz reports %d ingested, %d were acknowledged (%v)", n, w.total(), err)
	}
	if err := w.checkHotspots(); err != nil {
		return 0, nil, fmt.Errorf("after recovery: %w", err)
	}
	w.conns = openConns(srv, b.conns)
	warm := closedLoop(w.conns, w.reqs, loopOptions{maxOps: b.count(warmupOps)})
	if warm.failed > 0 {
		return 0, nil, fmt.Errorf("warm-up: %s", warm.firstFailure)
	}
	w.book(warm)
	return 0, map[string]float64{"recover_s": recoverS}, nil
}

func (w *ingestFull) timed(b *bench, until time.Time, tr *tracer) *phase {
	t := closedLoop(w.conns, w.reqs, loopOptions{until: until, tracer: tr})
	w.book(t)
	return &phase{writes: t, elapsed: t.elapsed}
}

func (w *ingestFull) verify(b *bench, res *result, ph *phase, _ metricSet) {
	if n, err := ingestedOn(w.srv); err != nil || n != w.total() {
		res.problem("/healthz reports %d ingested, %d were acknowledged (%v)", n, w.total(), err)
	}
	if err := w.checkHotspots(); err != nil {
		res.problem("%v", err)
	}
}

// hotRow is one calling context's exclusive GPU time.
type hotRow struct {
	label string
	excl  float64
}

// hotspotTable is one profile's hotspot table by calling-context path, as
// the store would rank it after address normalization.
func hotspotTable(p *profiler.Profile) map[string]hotRow {
	t := cct.NormalizeAddresses(p.Tree)
	out := map[string]hotRow{}
	id, ok := t.Schema.Lookup(cct.MetricGPUTime)
	if !ok {
		return out
	}
	t.Visit(func(n *cct.Node) {
		v := n.ExclValue(id)
		if v == 0 || n.Kind == cct.KindRoot {
			return
		}
		var path []string
		for _, f := range n.Path() {
			path = append(path, f.Label())
		}
		key := strings.Join(path, "\x00")
		row := out[key]
		row.label = n.Label()
		row.excl += v
		out[key] = row
	})
	return out
}

// checkHotspots compares /hotspots?top=20 with the oracle: each body's own
// hotspot table times the number of times that body was acknowledged.
// Exclusive GPU times are integer-valued nanoseconds and their sums stay far
// below 2^53, so float addition is exact in any order and the comparison
// is for equality.
func (w *ingestFull) checkHotspots() error {
	oracle := map[string]hotRow{}
	for i, n := range w.acked {
		if n == 0 {
			continue
		}
		for key, row := range w.table[i] {
			o := oracle[key]
			o.label = row.label
			o.excl += row.excl * float64(n)
			oracle[key] = o
		}
	}
	var want []float64
	for _, row := range oracle {
		if row.excl > 1<<53 {
			return fmt.Errorf("oracle sum %g exceeds 2^53: exact comparison no longer holds", row.excl)
		}
		want = append(want, row.excl)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))

	c := newConn(w.srv.url)
	defer c.close()
	body, err := c.get("/hotspots?top=20")
	if err != nil {
		return err
	}
	var got struct {
		Rows []struct {
			Label string   `json:"label"`
			Excl  float64  `json:"excl"`
			Path  []string `json:"path"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("/hotspots: %w", err)
	}
	if len(got.Rows) != min(20, len(want)) {
		return fmt.Errorf("/hotspots?top=20 returned %d rows, oracle has %d", len(got.Rows), len(want))
	}
	for i, row := range got.Rows {
		o, ok := oracle[strings.Join(row.Path, "\x00")]
		if !ok || o.label != row.Label || o.excl != row.Excl {
			return fmt.Errorf("/hotspots row %d (%s) has excl %.0f, oracle says %.0f", i+1, row.Label, row.Excl, o.excl)
		}
		if math.Abs(row.Excl) != want[i] {
			return fmt.Errorf("/hotspots row %d (%s) ranks excl %.0f where the oracle ranks %.0f", i+1, row.Label, row.Excl, want[i])
		}
	}
	return nil
}

// stream_delta

// streamRoundsPerSecond sizes the pre-encoded delta traffic: each of the
// 16 sessions gets this many rounds per second of timed phase, about one
// and two thirds times what the seed commit gets through on the reference box.
// Delta frames chain (each names the sequence and checksum of the one
// before), so unlike the other workloads' requests they cannot be cycled;
// a server fast enough to drain them ends the phase early, which the
// throughput figure accounts for.
const streamRoundsPerSecond = 30

type streamDelta struct {
	ss       []series
	sessions []streamSession
	next     []int // next batch index per session
	node
	acks  []streamAckCheck
	acked int64
}

// streamAckCheck pairs an acknowledgement with what it has to say.
type streamAckCheck struct {
	raw    []byte
	frames int
	dict   int
}

func (w *streamDelta) gen(b *bench, rng *rand.Rand) (string, error) {
	ss, err := genSeries(rng, streamSessions*seriesPerBatch)
	if err != nil {
		return "", err
	}
	w.ss = ss
	rounds := max(2, int(streamRoundsPerSecond*b.seconds*b.scale))
	if w.sessions, err = genStreams(ss, rounds, fmt.Sprint(b.seed)); err != nil {
		return "", err
	}
	var all []request
	for i := range w.sessions {
		all = append(all, w.sessions[i].batches...)
	}
	return scheduleHash(all), nil
}

func (w *streamDelta) ingestRoute() string { return "/stream" }
func (w *streamDelta) sample() []series    { return w.ss }

// setup boots a node and establishes every session with its full-frame
// batch: the warm-up the issue asks for.
func (w *streamDelta) setup(b *bench) (time.Duration, map[string]float64, error) {
	dir, err := b.procs.newDataDir()
	if err != nil {
		return 0, nil, err
	}
	if w.srv, err = b.procs.spawn(dir, baseFlags(dir)...); err != nil {
		return 0, nil, err
	}
	w.conns = openConns(w.srv, b.conns)
	w.next = make([]int, len(w.sessions))
	w.acks, w.acked = nil, 0
	t := w.drive(time.Time{}, 1, nil)
	if t.failed > 0 {
		return 0, nil, fmt.Errorf("establishing sessions: %s", t.firstFailure)
	}
	if problems := w.checkAcks(); len(problems) > 0 {
		return 0, nil, fmt.Errorf("establishing sessions: %s", problems[0])
	}
	return 0, nil, nil
}

// drive sends batches until the deadline (zero = none) or until every
// session has sent perSession more batches (0 = all it has). Connection c
// owns sessions c, c+n, c+2n, ... and sends one batch of each in turn, so
// a session's batches stay in order.
func (w *streamDelta) drive(until time.Time, perSession int, tr *tracer) *tally {
	parts := make([]*tally, len(w.conns))
	checks := make([][]streamAckCheck, len(w.conns))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range w.conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			t := &tally{}
			parts[ci] = t
			sent := map[int]int{}
			for {
				progressed := false
				for s := ci; s < len(w.sessions); s += len(w.conns) {
					sess := &w.sessions[s]
					if w.next[s] >= len(sess.batches) || (perSession > 0 && sent[s] >= perSession) {
						continue
					}
					t0 := time.Now()
					if !until.IsZero() && !t0.Before(until) {
						return
					}
					r := &sess.batches[w.next[s]]
					status, body, err := c.do(r)
					t1 := time.Now()
					if tr != nil {
						t.spans = append(t.spans, span{Name: "client /stream", Start: t0, End: t1, Request: int64(s)<<32 | int64(w.next[s])})
					}
					if t.record(s, r, status, err, t1.Sub(t0), t1) {
						checks[ci] = append(checks[ci], streamAckCheck{
							raw: append([]byte(nil), body...), frames: r.profiles, dict: sess.dict[w.next[s]],
						})
					}
					w.next[s]++
					sent[s]++
					progressed = true
				}
				if !progressed {
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	total := &tally{}
	for ci, p := range parts {
		total.merge(p)
		w.acks = append(w.acks, checks[ci]...)
	}
	total.elapsed = time.Since(start)
	w.acked += total.profiles
	tr.addAll(total.spans)
	return total
}

func (w *streamDelta) timed(b *bench, until time.Time, tr *tracer) *phase {
	t := w.drive(until, 0, tr)
	return &phase{writes: t, elapsed: t.elapsed}
}

// checkAcks parses the acknowledgements kept during a phase: each must
// have applied every frame sent, rejected none, and report the dictionary
// length the encoder had reached.
func (w *streamDelta) checkAcks() []string {
	var problems []string
	for _, a := range w.acks {
		var ack struct {
			Frames  int               `json:"frames"`
			Applied int               `json:"applied"`
			Dict    int               `json:"dict"`
			Nacks   []json.RawMessage `json:"nacks"`
		}
		if err := json.Unmarshal(a.raw, &ack); err != nil {
			problems = append(problems, fmt.Sprintf("/stream acknowledgement: %v", err))
			continue
		}
		if ack.Applied != a.frames || ack.Frames != a.frames || len(ack.Nacks) > 0 || ack.Dict != a.dict {
			problems = append(problems, fmt.Sprintf("/stream acknowledged frames=%d applied=%d nacks=%d dict=%d; sent %d frames, dictionary %d",
				ack.Frames, ack.Applied, len(ack.Nacks), ack.Dict, a.frames, a.dict))
		}
	}
	w.acks = nil
	if len(problems) > 3 {
		problems = append(problems[:3], fmt.Sprintf("... and %d more", len(problems)-3))
	}
	return problems
}

func (w *streamDelta) verify(b *bench, res *result, ph *phase, scraped metricSet) {
	res.Problems = append(res.Problems, w.checkAcks()...)
	for _, name := range []string{"dcserver.stream_nacks", "dcserver.stream_session_drops", "dcserver.stream_full_fallbacks"} {
		if m, ok := scraped.get(name); !ok || m.Value != 0 {
			res.problem("%s is %v over the phase, want 0", name, m.Value)
		}
	}
	if n, err := ingestedOn(w.srv); err != nil || n != w.acked {
		res.problem("/healthz reports %d ingested, %d were acknowledged (%v)", n, w.acked, err)
	}
	exhausted := true
	for s := range w.sessions {
		exhausted = exhausted && w.next[s] >= len(w.sessions[s].batches)
	}
	if exhausted {
		res.warn("the server drained all %d pre-encoded rounds in %.1fs of the %.0fs phase", len(w.sessions[0].batches)-1, ph.elapsed.Seconds(), b.seconds)
	}
}

// dashboard_mix

const (
	dashboardSeries    = 24
	dashboardWriteRate = 50 // profiles per second, open loop
)

type dashboardMix struct {
	ss      []series
	writes  []request
	order   []int // seeded order of the twelve queries
	hot     string
	queries []request
	node
}

// dashboardSlots is the length of the reader's cycle.
const dashboardSlots = 19

// dashboardQueries builds the reader's cycle around two closed windows.
// Six panels follow the live data and every ingest invalidates them: three
// tree folds (/hotspots of everything and of either vendor's half) and
// /topk, /search, /regressions. The other thirteen look at the closed
// range, as a dashboard's history panels do, and are what the query cache
// keeps: eleven that a hit answers outright (bounded /hotspots, /diff,
// nine /hotspots?workload=) and /flame and /analyze, which render a
// cached tree. The counts are chosen so that the median request is one of
// the eleven and the ninetieth-percentile one of the three folds, with
// room on both sides; a percentile that sits where two kinds of request
// meet jumps between them from run to run.
func (w *dashboardMix) dashboardQueries(w0, w1 time.Time) []request {
	from, to := windowTime(w0), windowTime(w1.Add(windowWidth))
	qs := []request{
		query("/hotspots", false, "top", "10"),
		query("/hotspots", false, "vendor", "nvidia", "top", "10"),
		query("/hotspots", false, "vendor", "amd", "top", "10"),
		query("/topk", false, "k", "10"),
		query("/search", false, "frame", w.hot),
		query("/regressions", false),
		query("/hotspots", true, "from", from, "to", windowTime(w0.Add(windowWidth)), "top", "10"),
		query("/diff", true, "before", from, "after", windowTime(w1), "top", "5"),
		query("/flame", true, "format", "folded", "from", from, "to", to),
		query("/analyze", true, "from", from, "to", to),
	}
	for i := 0; len(qs) < dashboardSlots; i++ {
		qs = append(qs, query("/hotspots", true, "workload", w.ss[i].labels.Workload, "from", from, "to", to, "top", "10"))
	}
	out := make([]request, len(qs))
	for i, j := range w.order {
		out[i] = qs[j]
	}
	return out
}

func (w *dashboardMix) gen(b *bench, rng *rand.Rand) (string, error) {
	ss, err := genSeries(rng, dashboardSeries)
	if err != nil {
		return "", err
	}
	w.ss = ss
	reqs := make([]request, len(ss))
	for i := range ss {
		reqs[i] = ingestRequest(&ss[i])
	}
	w.writes = shuffled(rng, reqs)
	w.order = rng.Perm(dashboardSlots)
	w.hot = hotFrames(ss, 1)[0]
	// The window times are only known once a server runs; the fingerprint
	// takes the queries around two fixed instants.
	epoch := time.Unix(0, 0)
	return scheduleHash(append(append([]request(nil), w.writes...), w.dashboardQueries(epoch, epoch.Add(windowWidth))...)), nil
}

func (w *dashboardMix) sample() []series { return w.ss }

func (w *dashboardMix) setup(b *bench) (time.Duration, map[string]float64, error) {
	dir, err := b.procs.newDataDir()
	if err != nil {
		return 0, nil, err
	}
	// Retention 60 keeps compaction out of the run, so the bounded queries'
	// windows stay where they are.
	if w.srv, err = b.procs.spawn(dir, append(baseFlags(dir), "-retention", "60")...); err != nil {
		return 0, nil, err
	}
	w.conns = openConns(w.srv, max(2, b.conns))
	w0, w1, idle, _, err := seedClosedWindows(w.conns, w.writes, true)
	if err != nil {
		return idle, nil, err
	}
	w.queries = w.dashboardQueries(w0, w1)
	return idle, nil, warmQueries(w.conns[0], w.queries)
}

func (w *dashboardMix) timed(b *bench, until time.Time, tr *tracer) *phase {
	return writeBesideReaders(w.conns[0], w.conns[1:], w.writes, w.queries, dashboardWriteRate, until, tr)
}

func (w *dashboardMix) verify(b *bench, res *result, ph *phase, scraped metricSet) {
	if m, ok := scraped.get("profstore.cache_hit_ratio"); !ok || m.Value <= 0.5 {
		res.warn("profstore.cache_hit_ratio is %.3f: this workload is meant to be served mostly from the query cache", m.Value)
	}
}

// fleet_query

const (
	fleetSeries       = 2000 // the issue's count; scaled by bench.count
	fleetBundle       = 100
	fleetDistinct     = 1536 // three times the 512-entry query cache
	fleetRegressEvery = 50
)

type fleetQuery struct {
	ss      []series
	seeds   []request
	queries []request
	node
}

func (w *fleetQuery) gen(b *bench, rng *rand.Rand) (string, error) {
	ss, err := genSeries(rng, b.count(fleetSeries))
	if err != nil {
		return "", err
	}
	w.ss = ss
	if w.seeds, err = bundleBodies(ss, fleetBundle); err != nil {
		return "", err
	}
	// 768 distinct /topk and 768 distinct /search parameterisations.
	var topk, search []request
	vendors := []string{"", "nvidia", "amd"}
	frameworks := []string{"", "pytorch", "jax"}
	filter := func(kv []string, v, fw string) []string {
		if v != "" {
			kv = append(kv, "vendor", v)
		}
		if fw != "" {
			kv = append(kv, "framework", fw)
		}
		return kv
	}
	for k := 1; len(topk) < fleetDistinct/2; k++ {
		for _, v := range vendors {
			for _, fw := range frameworks {
				topk = append(topk, query("/topk", false, filter([]string{"k", fmt.Sprint(k)}, v, fw)...))
			}
		}
	}
	frames := hotFrames(ss, 16)
	for limit := 1; len(search) < fleetDistinct/2; limit++ {
		for _, fr := range frames {
			for _, v := range vendors {
				search = append(search, query("/search", false, filter([]string{"frame", fr, "limit", fmt.Sprint(limit)}, v, "")...))
			}
		}
	}
	distinct := shuffled(rng, append(topk[:fleetDistinct/2], search[:fleetDistinct/2]...))
	for i, q := range distinct {
		w.queries = append(w.queries, q)
		if (i+1)%fleetRegressEvery == 0 {
			w.queries = append(w.queries, query("/regressions", false))
		}
	}
	return scheduleHash(append(append([]request(nil), w.seeds...), w.queries...)), nil
}

func (w *fleetQuery) sample() []series { return w.ss }

// setup seeds every series into two windows and waits for both to close;
// the first query of the warm-up pays for the close — aggregates, index,
// trend — so setup_s carries it.
func (w *fleetQuery) setup(b *bench) (time.Duration, map[string]float64, error) {
	dir, err := b.procs.newDataDir()
	if err != nil {
		return 0, nil, err
	}
	if w.srv, err = b.procs.spawn(dir, append(baseFlags(dir), "-retention", "60")...); err != nil {
		return 0, nil, err
	}
	w.conns = openConns(w.srv, b.conns)
	_, _, idle, _, err := seedClosedWindows(w.conns, w.seeds, false)
	if err != nil {
		return idle, nil, err
	}
	return idle, nil, warmQueries(w.conns[0], w.queries)
}

func (w *fleetQuery) timed(b *bench, until time.Time, tr *tracer) *phase {
	t := closedLoop(w.conns, w.queries, loopOptions{until: until, tracer: tr})
	return &phase{reads: t, elapsed: t.elapsed}
}

func (w *fleetQuery) verify(b *bench, res *result, ph *phase, scraped metricSet) {
	if m, ok := scraped.get("profstore.cache_hit_ratio"); !ok || m.Value >= 0.05 {
		res.problem("profstore.cache_hit_ratio is %.3f: the working set no longer exceeds the query cache, so this workload measures the cache", m.Value)
	}
}

// cluster_mix

const (
	clusterNodes     = 3
	clusterSeries    = 96
	clusterWriteRate = 30 // profiles per second into the router, open loop
)

type clusterMix struct {
	ss      []series
	writes  []request
	order   []int
	hot     string
	queries []request
	nodes   []*server
	conns   []*conn // both to the router, nodes[0]
	acked   int64
}

// clusterLight are the series the reader's one-series queries ask for:
// nine whose bodies are all 12-24 KB (Conformer, Llama3-8B and the first
// Gemma-7B cell), so that the nine cost about the same.
var clusterLight = []int{0, 1, 2, 3, 28, 29, 30, 31, 32}

// clusterQueries builds the sixteen-slot cycle the reader walks. All but
// one look at the two closed seed windows, so the data a query moves
// between nodes does not grow while the run lasts. Three are the heavy
// shapes — every matching series' whole tree travels to the router: all
// series, all series twice over for the diff, one vendor's half. Nine ask
// for one series' hotspots; the rest ship close-time aggregates only.
// Three heavy slots in sixteen put the ninetieth percentile firmly among
// the heavy queries, and nine like ones the median firmly among the light.
func (w *clusterMix) clusterQueries(w0, w1 time.Time) []request {
	from, to := windowTime(w0), windowTime(w1.Add(windowWidth))
	qs := []request{
		query("/hotspots", true, "from", from, "to", to, "top", "10"),
		query("/diff", true, "before", from, "after", windowTime(w1), "top", "5"),
		query("/hotspots", true, "vendor", "amd", "from", from, "to", to, "top", "10"),
		query("/regressions", false),
		query("/topk", false, "k", "10"),
		query("/topk", true, "from", from, "to", to, "k", "10"),
		query("/search", true, "from", from, "to", to, "frame", w.hot),
	}
	for _, i := range clusterLight {
		qs = append(qs, query("/hotspots", true, "workload", w.ss[i].labels.Workload, "from", from, "to", to, "top", "10"))
	}
	out := make([]request, len(qs))
	for i, j := range w.order {
		out[i] = qs[j]
	}
	return out
}

func (w *clusterMix) gen(b *bench, rng *rand.Rand) (string, error) {
	ss, err := genSeries(rng, clusterSeries)
	if err != nil {
		return "", err
	}
	w.ss = ss
	reqs := make([]request, len(ss))
	for i := range ss {
		reqs[i] = ingestRequest(&ss[i])
	}
	w.writes = shuffled(rng, reqs)
	w.order = rng.Perm(16)
	w.hot = hotFrames(ss, 1)[0]
	epoch := time.Unix(0, 0)
	return scheduleHash(append(append([]request(nil), w.writes...), w.clusterQueries(epoch, epoch.Add(windowWidth))...)), nil
}

func (w *clusterMix) servers() []*server  { return w.nodes }
func (w *clusterMix) ingestRoute() string { return "/ingest" }
func (w *clusterMix) sample() []series    { return w.ss }

// setup boots three nodes on ephemeral ports. A node needs its peers'
// addresses at boot and the ports are not known until all three listen, so
// each starts with a placeholder table and the real one (generation 2) is
// committed through POST /cluster/table — the same call a membership
// change uses.
func (w *clusterMix) setup(b *bench) (time.Duration, map[string]float64, error) {
	w.acked = 0
	var peers []string
	for i := 1; i <= clusterNodes; i++ {
		peers = append(peers, fmt.Sprintf("n%d=127.0.0.1:1", i))
	}
	type node struct {
		ID   string `json:"id"`
		Addr string `json:"addr"`
	}
	var table struct {
		Generation int    `json:"generation"`
		Nodes      []node `json:"nodes"`
	}
	table.Generation = 2
	for i := 1; i <= clusterNodes; i++ {
		dir, err := b.procs.newDataDir()
		if err != nil {
			return 0, nil, err
		}
		id := fmt.Sprintf("n%d", i)
		s, err := b.procs.spawn(dir, append(baseFlags(dir), "-retention", "60",
			"-node-id", id, "-peers", strings.Join(peers, ","))...)
		if err != nil {
			return 0, nil, err
		}
		w.nodes = append(w.nodes, s)
		table.Nodes = append(table.Nodes, node{id, s.url})
	}
	body, _ := json.Marshal(table)
	for _, s := range w.nodes {
		c := newConn(s.url)
		status, resp, err := c.do(&request{method: "POST", path: "/cluster/table", body: body})
		c.close()
		if err != nil || status != 200 {
			return 0, nil, fmt.Errorf("commit routing table on %s: HTTP %d %s (%v)", s.url, status, resp, err)
		}
	}
	if err := w.checkStatus(); err != nil {
		return 0, nil, err
	}
	w.conns = openConns(w.nodes[0], 2)
	w0, w1, idle, sent, err := seedClosedWindows(w.conns, w.writes, true)
	if err != nil {
		return idle, nil, err
	}
	w.acked += sent
	w.queries = w.clusterQueries(w0, w1)
	return idle, nil, warmQueries(w.conns[0], w.queries)
}

// checkStatus requires /cluster/status healthy as seen from both ends of
// the table.
func (w *clusterMix) checkStatus() error {
	for _, s := range []*server{w.nodes[0], w.nodes[len(w.nodes)-1]} {
		c := newConn(s.url)
		body, err := c.get("/cluster/status")
		c.close()
		if err != nil {
			return err
		}
		var st struct {
			Degraded bool `json:"degraded"`
			Nodes    []struct {
				ID string `json:"id"`
				Up bool   `json:"up"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("/cluster/status: %w", err)
		}
		if st.Degraded || len(st.Nodes) != clusterNodes {
			return fmt.Errorf("/cluster/status on %s: degraded=%v nodes=%d", s.url, st.Degraded, len(st.Nodes))
		}
	}
	return nil
}

func (w *clusterMix) timed(b *bench, until time.Time, tr *tracer) *phase {
	ph := writeBesideReaders(w.conns[0], w.conns[1:], w.writes, w.queries, clusterWriteRate, until, tr)
	w.acked += ph.writes.profiles
	return ph
}

func (w *clusterMix) verify(b *bench, res *result, ph *phase, scraped metricSet) {
	if err := w.checkStatus(); err != nil {
		res.problem("%v", err)
	}
	if m, ok := scraped.get("cluster.degraded_queries"); !ok || m.Value != 0 {
		res.problem("cluster.degraded_queries is %v over the phase, want 0", m.Value)
	}
	var total int64
	for _, s := range w.nodes {
		n, err := ingestedOn(s)
		if err != nil {
			res.problem("%v", err)
		}
		total += n
	}
	if total != w.acked {
		res.problem("the nodes report %d ingested in total, %d were acknowledged", total, w.acked)
	}
}

func (w *clusterMix) teardown(b *bench) {
	closeConns(w.conns)
	w.conns = nil
	for _, s := range w.nodes {
		b.procs.release(s)
	}
	w.nodes = nil
}
