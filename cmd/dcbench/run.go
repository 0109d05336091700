package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Count scale. ISSUE 11 sized its phases for a three-minute run; the
// driver gives every run about twenty seconds, set-up included, and asks
// for several set-ups per run. Set-up counts are therefore the issue's
// times countScale, and timed phases run for -seconds instead of a fixed
// number of operations (see README.md, "What was scaled").
const countScale = 0.25

// setupsPerRun is how many times a run sets up; setup_s is the median, and
// the last set-up is the one the timed phase uses.
const setupsPerRun = 3

// windowWidth is the -window every server runs with.
const windowWidth = 500 * time.Millisecond

// bench is one invocation's settings.
type bench struct {
	procs   *procs
	seed    int64
	seconds float64
	conns   int
	// scale multiplies every set-up count; 1 for a normal run, smaller
	// under -smoke.
	scale  float64
	setups int
	out    io.Writer
}

func (b *bench) count(issue int) int {
	return max(1, int(float64(issue)*countScale*b.scale+0.5))
}

// result is one run of one workload: the unit of the results file.
type result struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	Warnings  []string  `json:"warnings,omitempty"`
	Schedule  string    `json:"schedule_hash"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// phase is the client side of one timed phase.
type phase struct {
	writes   *tally          // profiles sent (nil on a read-only workload)
	reads    *tally          // queries sent (nil on a write-only workload)
	lateness []time.Duration // paced writer only
	elapsed  time.Duration
	// start and cpu are filled in by measure: when the phase began, and the
	// measured processes' total CPU seconds at each slice boundary.
	start time.Time
	cpu   []float64
}

// slices is how many whole slices the phase lasted.
func (ph *phase) slices() int { return max(1, int(ph.elapsed/sliceWidth)) }

// width is the slice length: sliceWidth, or the whole phase when it was
// shorter than one slice.
func (ph *phase) width() time.Duration {
	if ph.elapsed < sliceWidth {
		return ph.elapsed
	}
	return sliceWidth
}

// measure runs one timed phase of the given length with a sampler beside it
// that reads cpu() at every slice boundary.
func measure(seconds float64, cpu func() float64, run func(until time.Time) *phase) *phase {
	start := time.Now()
	stop := make(chan struct{})
	samples := make(chan []float64, 1)
	go func() {
		out := []float64{cpu()}
		for k := 1; ; k++ {
			select {
			case <-stop:
				samples <- out
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * sliceWidth))):
				out = append(out, cpu())
			}
		}
	}()
	ph := run(start.Add(time.Duration(seconds * float64(time.Second))))
	close(stop)
	ph.start, ph.cpu = start, <-samples
	if len(ph.cpu) < 2 { // shorter than one slice: one sample at each end
		ph.cpu = append(ph.cpu, cpu())
	}
	return ph
}

// serverCPU totals the servers' user and system CPU seconds.
func serverCPU(servers []*server) func() float64 {
	return func() float64 {
		var total float64
		for _, s := range servers {
			if u, err := readUsage(s.pid); err == nil {
				total += u.userS + u.sysS
			}
		}
		return total
	}
}

func (ph *phase) profiles() int64 {
	if ph.writes == nil {
		return 0
	}
	return ph.writes.profiles
}

func (ph *phase) queries() int64 {
	if ph.reads == nil {
		return 0
	}
	return ph.reads.queries
}

// serverWorkload is what the five workloads that drive dcserver differ in;
// runServerWorkload holds the part they share.
type serverWorkload interface {
	// gen builds every input from the seed and returns the fingerprint of
	// the request sequence.
	gen(b *bench, rng *rand.Rand) (string, error)
	// setup boots and seeds fresh servers until they are ready for the
	// timed phase. idle is the part of the call spent only sleeping until a
	// wall-clock window boundary; extra holds set-up measurements of the
	// workload's own (recover_s).
	setup(b *bench) (idle time.Duration, extra map[string]float64, err error)
	// servers are the processes the timed phase measures.
	servers() []*server
	// timed drives the measured traffic until the deadline.
	timed(b *bench, until time.Time, tr *tracer) *phase
	// verify checks the answers once the phase is over.
	verify(b *bench, res *result, ph *phase, scraped metricSet)
	// teardown releases the servers of the last setup.
	teardown(b *bench)
	// ingestRoute is the endpoint profiles go to.
	ingestRoute() string
	// sample is the profiles the traced run replays through the layers.
	sample() []series
}

// runServerWorkload runs one untraced measurement of w: inputs, several
// set-ups, one timed phase between two scrapes, the checks, the metrics.
func runServerWorkload(b *bench, spec workloadSpec, w serverWorkload) (*result, error) {
	res := &result{Workload: spec.name, Why: spec.why, Seed: b.seed, Seconds: b.seconds}
	genStart := time.Now()
	hash, err := w.gen(b, rand.New(rand.NewSource(b.seed)))
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", spec.name, err)
	}
	genS := time.Since(genStart).Seconds()
	res.Schedule = hash

	setupS, extra, err := setUp(b, w, b.setups)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	defer w.teardown(b)

	cpu0 := selfCPU()
	before, err := observeAll(w.servers())
	if err != nil {
		return nil, err
	}
	ph := measure(b.seconds, serverCPU(w.servers()), func(until time.Time) *phase { return w.timed(b, until, nil) })
	after, err := observeAll(w.servers())
	if err != nil {
		return nil, err
	}
	clientCPU := selfCPU() - cpu0

	endToEnd(res, spec, ph)
	res.EndToEnd.add("setup_s", median(setupS), "s")
	for _, name := range sortedNames(extra) {
		res.EndToEnd.add(name, median(extra[name]), "s")
	}
	pv := phaseView{elapsed: ph.elapsed, profiles: ph.profiles(), queries: ph.queries(), ingestRoute: w.ingestRoute()}
	if ph.writes != nil {
		pv.ingestMean = meanDuration(ph.writes.latencies)
	}
	if ph.reads != nil {
		pv.queryMean = meanDuration(ph.reads.latencies)
	}
	res.PerLayer = scrapeMetrics(before, after, pv)
	res.PerLayer.add("dcbench.gen_s", genS, "s")
	res.PerLayer.add("dcbench.client_cpu_s", clientCPU, "s")
	if ph.lateness != nil {
		late := summarize(ph.lateness)
		res.PerLayer = append(res.PerLayer, Metric{Name: "dcbench.late_ms_p99", Value: ms(late.Tail), Unit: "ms", N: late.N, Note: late.TailNote})
		if late.Tail > 5*time.Millisecond {
			res.warn("unreliable: the paced writer ran %.2f ms late at its tail (limit 5 ms) — the scheduler, not the generator, set the write rate", ms(late.Tail))
		}
	} else {
		res.PerLayer.na("dcbench.late_ms_p99", "ms")
	}

	checkPhase(res, ph)
	w.verify(b, res, ph, res.PerLayer)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// setUp sets w up n times, tearing down all but the last, and returns the
// busy time of each set-up (wall time minus the sleeps to window
// boundaries) and each extra measurement.
func setUp(b *bench, w serverWorkload, n int) ([]float64, map[string][]float64, error) {
	var busy []float64
	extras := map[string][]float64{}
	for i := 0; i < n; i++ {
		if i > 0 {
			w.teardown(b)
		}
		t0 := time.Now()
		idle, extra, err := w.setup(b)
		if err != nil {
			w.teardown(b)
			return nil, nil, err
		}
		busy = append(busy, (time.Since(t0) - idle).Seconds())
		for k, v := range extra {
			extras[k] = append(extras[k], v)
		}
	}
	return busy, extras, nil
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// endToEnd fills the metrics a user of the service (or, for the pipelines,
// of the library) would see, each the median over the phase's slices. A metric the workload does not exercise
// is left out, never reported as 0.
func endToEnd(res *result, spec workloadSpec, ph *phase) {
	m := &res.EndToEnd
	n, width := ph.slices(), ph.width()
	ops := make([]int, n)
	var attempted, failed int64
	if ph.writes != nil {
		attempted += ph.writes.attempted
		failed += ph.writes.failed
		slices := cutSlices(ph.writes, ph.start, width, n)
		for i, s := range slices {
			ops[i] += s.profiles
		}
		if spec.primary != primaryQuery {
			m.addN("profiles_per_s", ratePerSecond(slices, width, func(s slice) int { return s.profiles }, ph.writes.profiles, ph.elapsed), "1/s", int(ph.writes.profiles))
		}
		prefix := "ingest"
		if spec.primary == primaryPipeline {
			prefix = "pipeline"
		}
		m.addLatency(prefix, summarizeSlices(slices))
		if ph.writes.reqBytes > 0 {
			m.addN("wire_bytes_per_profile", float64(ph.writes.reqBytes)/float64(ph.writes.profiles), "B", int(ph.writes.profiles))
		}
	}
	if ph.reads != nil {
		attempted += ph.reads.attempted
		failed += ph.reads.failed
		slices := cutSlices(ph.reads, ph.start, width, n)
		for i, s := range slices {
			ops[i] += s.queries
		}
		m.addN("queries_per_s", ratePerSecond(slices, width, func(s slice) int { return s.queries }, ph.reads.queries, ph.elapsed), "1/s", int(ph.reads.queries))
		m.addLatency("query", summarizeSlices(slices))
	}
	if len(ph.cpu) > n {
		// The pipelines run in the generator, so there the CPU is its own.
		name := "server_cpu_ms_per_op"
		if spec.primary == primaryPipeline {
			name = "cpu_ms_per_op"
		}
		var perOp []float64
		for i := 0; i < n; i++ {
			if ops[i] > 0 {
				perOp = append(perOp, (ph.cpu[i+1]-ph.cpu[i])*1e3/float64(ops[i]))
			}
		}
		if len(perOp) > 0 {
			m.addN(name, median(perOp), "ms", int(ph.profiles()+ph.queries()))
		}
	}
	res.Attempted, res.Failed = attempted, failed
	m.addN("failed_ops_frac", float64(failed)/float64(max(1, attempted)), "ratio", int(attempted))
}

// checkPhase applies the checks every server workload shares: no failed
// operation, and unchanged answers from closed windows.
func checkPhase(res *result, ph *phase) {
	for _, t := range []*tally{ph.writes, ph.reads} {
		if t == nil {
			continue
		}
		if t.failed > 0 {
			res.problem("%d of %d operations failed; first: %s", t.failed, t.attempted, t.firstFailure)
		}
		for _, path := range t.changed {
			res.problem("closed-window query %s changed its answer during the phase", path)
		}
	}
	if res.Attempted == 0 {
		res.problem("the timed phase attempted no operation")
	}
}
