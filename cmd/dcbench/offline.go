package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"deepcontext"
	"deepcontext/internal/cct"
	"deepcontext/internal/profdb"
	"deepcontext/internal/profiler"
)

// offline_pipeline: the paper's single-user path, no server anywhere.
// One pipeline profiles a cell on the simulated machine, saves the
// profile, loads it back, analyzes it and renders the flame graph; every
// tenth pipeline also merges and diffs its profile with the previous one.

const (
	offlineWarmup    = 200 // the issue's count; scaled by bench.count
	offlineExtraEach = 10
)

// pipeline runs one cell end to end. With check set it also verifies that
// the loaded profile equals the saved one, which walks both trees and is
// therefore kept off the timed phase's clock. Spans go to tr when it is
// non-nil.
func pipeline(c cell, prev *profiler.Profile, extra, check bool, tr *tracer, req int64) (*profiler.Profile, int, error) {
	root := tr.reserve()
	defer tr.beginAs(root, "pipeline", 0, req)()
	end := tr.begin("profiler.collect", root, req)
	p, err := collect(c)
	end()
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	end = tr.begin("profdb.save", root, req)
	err = profdb.Save(&buf, p)
	end()
	if err != nil {
		return nil, 0, err
	}
	end = tr.begin("profdb.load", root, req)
	loaded, err := profdb.Load(&buf)
	end()
	if err != nil {
		return nil, 0, err
	}
	if loaded.Tree.NodeCount() != p.Tree.NodeCount() {
		return nil, 0, fmt.Errorf("%v: loaded %d nodes, saved %d", c, loaded.Tree.NodeCount(), p.Tree.NodeCount())
	}
	if check {
		if err := cct.Equivalent(p.Tree, loaded.Tree); err != nil {
			return nil, 0, fmt.Errorf("%v: loaded profile differs from the saved one: %w", c, err)
		}
	}
	end = tr.begin("analyzer.run", root, req)
	rep := deepcontext.Analyze(loaded)
	end()
	if rep == nil {
		return nil, 0, fmt.Errorf("%v: the analyzer returned no report", c)
	}
	end = tr.begin("flamegraph.html", root, req)
	err = deepcontext.WriteFlameGraph(io.Discard, loaded, deepcontext.FlameOptions{})
	end()
	if err != nil {
		return nil, 0, err
	}
	if extra && prev != nil {
		end = tr.begin("cct.merge_profiles", root, req)
		_, err = deepcontext.MergeProfiles(prev, loaded)
		end()
		if err != nil {
			return nil, 0, err
		}
		end = tr.begin("cct.diff_profiles", root, req)
		d := deepcontext.DiffProfiles(loaded, prev)
		end()
		if d == nil || d.Tree == nil {
			return nil, 0, fmt.Errorf("%v: empty diff", c)
		}
	}
	return loaded, len(rep.Issues), nil
}

// runPipelines runs pipelines from workers goroutines over cells in the
// given order until the deadline or the count is reached.
func runPipelines(cells []cell, order []int, workers int, until time.Time, maxOps int, check bool, tr *tracer) *tally {
	var next atomic.Int64
	parts := make([]*tally, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tally{}
			parts[w] = t
			var prev *profiler.Profile
			for {
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					return
				}
				t0 := time.Now()
				if !until.IsZero() && !t0.Before(until) {
					return
				}
				c := cells[order[i%len(order)]]
				p, issues, err := pipeline(c, prev, i%offlineExtraEach == offlineExtraEach-1, check, tr, int64(i)+1)
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstFailure == "" {
						t.firstFailure = err.Error()
					}
					continue
				}
				end := time.Now()
				t.latencies = append(t.latencies, end.Sub(t0))
				t.ends = append(t.ends, end)
				t.counts = append(t.counts, 1)
				t.profiles++
				t.issues += int64(issues)
				prev = p
			}
		}(w)
	}
	wg.Wait()
	total := &tally{}
	for _, p := range parts {
		total.merge(p)
	}
	total.elapsed = time.Since(start)
	return total
}

// offlineInputs is the seeded cell order.
func offlineInputs(seed int64) ([]cell, []int, string) {
	cells := allCells()
	order := rand.New(rand.NewSource(seed)).Perm(len(cells))
	var reqs []request
	for _, i := range order {
		reqs = append(reqs, request{method: "PIPELINE", path: fmt.Sprint(cells[i])})
	}
	return cells, order, scheduleHash(reqs)
}

func runOfflineWorkload(b *bench, spec workloadSpec) (*result, error) {
	res := &result{Workload: spec.name, Why: spec.why, Seed: b.seed, Seconds: b.seconds}
	cells, order, hash := offlineInputs(b.seed)
	res.Schedule = hash

	// Set-up here is the untimed warm-up, with the full equality check on
	// every pipeline.
	var setupS []float64
	for i := 0; i < b.setups; i++ {
		warm := runPipelines(cells, order, b.conns, time.Time{}, b.count(offlineWarmup), true, nil)
		if warm.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up: %s", spec.name, warm.firstFailure)
		}
		if warm.issues == 0 {
			return nil, fmt.Errorf("%s: warm-up: the analyzer found nothing in %d profiles", spec.name, warm.profiles)
		}
		setupS = append(setupS, warm.elapsed.Seconds())
	}

	ph := measure(b.seconds, selfCPU, func(until time.Time) *phase {
		t := runPipelines(cells, order, b.conns, until, 0, false, nil)
		return &phase{writes: t, elapsed: t.elapsed}
	})
	endToEnd(res, spec, ph)
	res.EndToEnd.add("setup_s", median(setupS), "s")
	res.PerLayer.add("dcbench.gen_s", 0, "s")
	res.PerLayer.add("dcbench.client_cpu_s", ph.cpu[len(ph.cpu)-1]-ph.cpu[0], "s")
	checkPhase(res, ph)
	res.Correct = len(res.Problems) == 0
	return res, nil
}
