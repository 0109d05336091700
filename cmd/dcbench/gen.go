package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deepcontext"
	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
	"deepcontext/internal/profstore"
)

// Everything the timed loops send is built here, from the seed, before
// any clock starts: the simulator's profiles, their series labels, the
// encoded request bodies, and the order requests go out in. The server
// receives only these bytes.

// pipelineIters is the iteration count every profiled cell runs.
const pipelineIters = 5

// cell is one profiled (workload, vendor, framework) combination.
type cell struct {
	workload, vendor, framework string
}

// allCells lists the 40 cells: the ten evaluation workloads on both
// vendors and both frameworks.
func allCells() []cell {
	var out []cell
	for _, w := range deepcontext.WorkloadNames() {
		for _, v := range []string{"nvidia", "amd"} {
			for _, fw := range []string{"pytorch", "jax"} {
				out = append(out, cell{w, v, fw})
			}
		}
	}
	return out
}

// collect profiles one cell on the simulated machine. The simulator runs
// on a virtual clock, so the same cell always yields the same profile.
func collect(c cell) (*profiler.Profile, error) {
	s, err := deepcontext.NewSession(deepcontext.Config{Vendor: c.vendor, Framework: c.framework, Shards: 1})
	if err != nil {
		return nil, err
	}
	if err := s.RunWorkload(c.workload, deepcontext.Knobs{}, pipelineIters); err != nil {
		return nil, err
	}
	p := s.Stop()
	p.Meta.Workload = c.workload
	p.Meta.Iterations = pipelineIters
	return p, nil
}

// series is one label set the store will hold, with the profile an agent
// of that series uploads and its profdb.Save encoding.
type series struct {
	labels  profstore.Labels
	profile *profiler.Profile // shares its tree with every series of the same cell: read-only
	body    []byte
}

// genSeries derives n series from the cells: series i is a copy of cell
// i mod 40 relabelled "<workload>-<tag>", with tags drawn from the seed
// without repetition, so which shard (and, in a cluster, which node) a
// series lands on changes with the seed. Which cells the series copy does
// not: body sizes range from 8 to 185 KB, and a seed-drawn mix of them
// would move every metric by more than any code change.
func genSeries(rng *rand.Rand, n int) ([]series, error) {
	cells := allCells()
	profiles := make(map[int]*profiler.Profile)
	width := len(strconv.Itoa(4*n - 1))
	if width < 2 {
		width = 2
	}
	tags := rng.Perm(4 * n)[:n]
	out := make([]series, n)
	for i := range out {
		ci := i % len(cells)
		p := profiles[ci]
		if p == nil {
			var err error
			if p, err = collect(cells[ci]); err != nil {
				return nil, fmt.Errorf("profile %v: %w", cells[ci], err)
			}
			profiles[ci] = p
		}
		cp := *p
		cp.Meta.Workload = fmt.Sprintf("%s-%0*d", p.Meta.Workload, width, tags[i])
		var buf bytes.Buffer
		if err := profdb.Save(&buf, &cp); err != nil {
			return nil, err
		}
		out[i] = series{labels: profstore.LabelsOf(cp.Meta), profile: &cp, body: buf.Bytes()}
	}
	return out, nil
}

// request is one pre-built HTTP request of a timed loop.
type request struct {
	method   string
	path     string // path and query, appended to the server's base URL
	body     []byte
	profiles int    // profiles the request carries (0 for a query)
	route    string // endpoint name, as the server's telemetry labels it
	closed   bool   // a query over closed windows only: its answer must not change
	// sig fingerprints what the body says — series keys and profile
	// checksums — for the schedule hash. The bytes themselves cannot serve:
	// gob writes a profile's map fields in map iteration order, so two
	// encodings of one profile differ while decoding to the same thing.
	sig string
}

func (s *series) sig() string {
	return fmt.Sprintf("%s:%x", s.labels.Key(), profdb.Checksum(s.profile))
}

func ingestRequest(s *series) request {
	return request{method: "POST", path: "/ingest", body: s.body, profiles: 1, route: "/ingest", sig: s.sig()}
}

func query(route string, closed bool, kv ...string) request {
	q := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	path := route
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return request{method: "GET", path: path, route: route, closed: closed}
}

// scheduleHash fingerprints a request sequence — method, path, body length
// and body fingerprint of every request in order — so two runs can be
// shown to have sent the same thing.
func scheduleHash(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s %s %d %s\n", r.method, r.path, len(r.body), r.sig)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// shuffled returns reqs in a seeded order.
func shuffled(rng *rand.Rand, reqs []request) []request {
	out := append([]request(nil), reqs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotFrames returns up to n kernel labels ranked by exclusive GPU time
// summed over the series' profiles, ties broken by label.
func hotFrames(ss []series, n int) []string {
	sums := map[string]float64{}
	for i := range ss {
		t := ss[i].profile.Tree
		id, ok := t.Schema.Lookup(cct.MetricGPUTime)
		if !ok {
			continue
		}
		t.Visit(func(nd *cct.Node) {
			if nd.Kind == cct.KindKernel {
				sums[nd.Label()] += nd.ExclValue(id)
			}
		})
	}
	labels := make([]string, 0, len(sums))
	for l := range sums {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		a, b := labels[i], labels[j]
		if sums[a] != sums[b] {
			return sums[a] > sums[b]
		}
		return a < b
	})
	if len(labels) > n {
		labels = labels[:n]
	}
	return labels
}

// bundleBodies packs the series' profiles into v2 bundles of at most per
// profiles each.
func bundleBodies(ss []series, per int) ([]request, error) {
	var out []request
	for lo := 0; lo < len(ss); lo += per {
		hi := min(lo+per, len(ss))
		entries := make([]profdb.Entry, 0, hi-lo)
		var sig strings.Builder
		for i := lo; i < hi; i++ {
			entries = append(entries, profdb.Entry{Name: ss[i].labels.Key(), Profile: ss[i].profile})
			sig.WriteString(ss[i].sig() + ",")
		}
		var buf bytes.Buffer
		if err := profdb.SaveBundle(&buf, entries); err != nil {
			return nil, err
		}
		out = append(out, request{method: "POST", path: "/ingest", body: buf.Bytes(), profiles: hi - lo, route: "/ingest", sig: sig.String()})
	}
	return out, nil
}

// Delta streaming.

const (
	streamSessions  = 16
	seriesPerBatch  = 4
	mutateOneInEach = 4 // a rotating quarter of the kernel contexts changes per round
)

// streamSession is one agent's pre-encoded /stream traffic: batch 0 holds
// the full frames that establish its series, every later batch the deltas
// of one round.
type streamSession struct {
	id      string
	batches []request
	// dict is the encoder's dictionary length after each batch: what the
	// server's acknowledgement must report.
	dict []int
}

// genStreams encodes rounds delta rounds (after the establishing one) for
// each of the 16 sessions over ss (64 series, four per session). Each
// session's encoder runs against a shadow decoder exactly as a live
// client's does, so the frames are the ones a real agent would send; only
// the moment of encoding moves off the clock.
func genStreams(ss []series, rounds int, tag string) ([]streamSession, error) {
	if len(ss) != streamSessions*seriesPerBatch {
		return nil, fmt.Errorf("stream needs %d series, got %d", streamSessions*seriesPerBatch, len(ss))
	}
	out := make([]streamSession, streamSessions)
	errs := make([]error, streamSessions)
	// Sessions are independent; encode them on every CPU.
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for s := range out {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			id := fmt.Sprintf("dcbench-%s-%02d", tag, s)
			out[s], errs[s] = genSession(id, ss[s*seriesPerBatch:(s+1)*seriesPerBatch], rounds, nil)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// genSession encodes one session: the establishing batch, then rounds
// delta batches. A non-nil tracer gets a span around every delta encode
// (the agent-side cost the traced run reports).
func genSession(id string, ss []series, rounds int, tr *tracer) (streamSession, error) {
	sess := streamSession{id: id}
	enc := profdb.NewDeltaEncoder()
	shadow := profdb.NewDeltaDecoder()
	// The shadow replays only frames this encoder made.
	shadow.TrustChecksums = true
	type agent struct {
		p       *profiler.Profile
		kernels []*cct.Node
		cur     profdb.SeriesCursor
	}
	agents := make([]*agent, len(ss))
	for k := range agents {
		// Each agent mutates its own copy of the tree.
		p, err := profdb.Load(bytes.NewReader(ss[k].body))
		if err != nil {
			return sess, err
		}
		a := &agent{p: p}
		p.Tree.Visit(func(n *cct.Node) {
			if n.Kind == cct.KindKernel {
				a.kernels = append(a.kernels, n)
			}
		})
		agents[k] = a
	}
	for r := 0; r <= rounds; r++ {
		b := profdb.StreamBatch{Seq: uint64(r + 1)}
		var sig strings.Builder
		for _, a := range agents {
			var fr profdb.StreamFrame
			var err error
			if r == 0 {
				fr, err = enc.EncodeFull(a.p, 1, 1)
			} else {
				mutateKernels(a.p.Tree, a.kernels, r)
				var ok bool
				end := tr.begin("profdb.delta_encode", 0, 0)
				fr, ok, err = enc.EncodeDeltaFrom(a.cur.Base, a.cur.Sum, a.p, 1, a.cur.Seq+1)
				end()
				if err == nil && !ok {
					err = fmt.Errorf("round %d of %s is not delta-encodable", r, a.p.Meta.Workload)
				}
			}
			if err != nil {
				return sess, err
			}
			if err := shadow.AddFrames(&fr); err != nil {
				return sess, err
			}
			if _, err := shadow.Apply(&a.cur, &fr); err != nil {
				return sess, fmt.Errorf("shadow apply: %w", err)
			}
			b.Frames = append(b.Frames, fr)
			// The cursor's checksum is that of the profile the frame
			// materializes, full or delta.
			fmt.Fprintf(&sig, "%s:%d:%x,", profstore.LabelsOf(fr.Meta).Key(), fr.Seq, a.cur.Sum)
		}
		var buf bytes.Buffer
		if err := profdb.WriteBatch(gob.NewEncoder(&buf), &b); err != nil {
			return sess, err
		}
		sess.batches = append(sess.batches, request{
			method: "POST", path: "/stream?session=" + id, body: buf.Bytes(),
			profiles: len(b.Frames), route: "/stream", sig: sig.String(),
		})
		sess.dict = append(sess.dict, enc.DictLen())
	}
	return sess, nil
}

// mutateKernels advances a cumulative profile by one round: every fourth
// kernel context, rotating with the round, receives new samples — the
// steady state of a long-lived agent, where most of the tree is unchanged
// between uploads.
func mutateKernels(t *cct.Tree, kernels []*cct.Node, round int) {
	id, ok := t.Schema.Lookup(cct.MetricGPUTime)
	if !ok {
		return
	}
	for i, n := range kernels {
		if i%mutateOneInEach == round%mutateOneInEach {
			t.AddMetric(n, id, float64(1000*(round+1)+i))
		}
	}
}

// windowTime renders a window start the way the query parameters take it.
func windowTime(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
