// Command dcbench is the repository's benchmark: one generator process
// that builds cmd/dcserver, runs it as separate processes, drives six
// named workloads through its public HTTP surface, checks the answers,
// and prints every end-to-end and per-layer metric by name with its unit.
// See README.md in this directory for the workloads, the metric glossary
// and how to read the output; BENCHMARK.json at the repository root is the
// contract the driver runs it under.
//
//	go run ./cmd/dcbench                                   all six workloads, untraced then traced
//	go run ./cmd/dcbench --workload ingest_full --seed 3 --seconds 10 --trace 0
//	go run ./cmd/dcbench -out results/run.json             keep the results file
//	go run ./cmd/dcbench -compare a.json b.json            deltas against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run: one of the six names, or all")
		seed     = flag.Int64("seed", 1, "input seed: series labels, body order, query permutations")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 runs the traced variant: layer replay and client spans, per-layer metrics")
		out      = flag.String("out", "", "write the results file here (default: none for one workload, .bench_build/dcbench/results.json for all)")
		traceOut = flag.String("trace-out", "", "write the spans of a traced run here (default .bench_build/dcbench/trace.json)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments instead of running")
		smoke    = flag.Bool("smoke", false, "all six workloads at a twentieth of the counts, a second each")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dcbench: -compare takes two results files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dcbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "dcbench: -seconds must be positive")
		return 2
	}

	procs, err := newProcs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 1
	}
	// Children die with this process on every path: the deferred cleanup
	// covers return and a panic on this goroutine, the signal handler
	// covers SIGINT and SIGTERM, and PDEATHSIG (set at spawn) the rest.
	defer procs.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		procs.cleanup()
		os.Exit(130)
	}()

	b := &bench{procs: procs, seed: *seed, seconds: *seconds, conns: connections(), scale: 1, setups: setupsPerRun, out: os.Stdout}
	if *smoke {
		b.scale, b.seconds, b.setups = 0.05, 1, 1
	}
	if err := procs.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 1
	}

	specs := workloadSpecs
	if *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "dcbench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	tracePath := *traceOut
	if tracePath == "" {
		tracePath = filepath.Join(procs.workDir, "trace.json")
	}

	file := resultsFile{Schema: resultsSchema, Machine: describeMachine(procs.repoRoot), Seed: *seed, CountScale: countScale * b.scale}
	all := *workload == "all"
	var failed bool
	file.Runs, failed = runSpecs(b, specs, all || *trace == 0, (all && !*smoke) || *trace != 0, tracePath)

	outPath := *out
	if outPath == "" && *workload == "all" {
		outPath = filepath.Join(procs.workDir, "results.json")
	}
	if outPath != "" {
		if err := file.write(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			return 1
		}
		fmt.Fprintf(b.out, "results written to %s\n", outPath)
	}
	// The driver reads the last line of standard output; it is printed
	// even when a check failed, with "correct" false.
	if n := len(file.Runs); n > 0 {
		line, err := json.Marshal(driverLine(&file.Runs[n-1]))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			return 1
		}
		fmt.Fprintln(b.out, string(line))
	}
	if failed {
		return 1
	}
	return 0
}

// runSpecs runs each workload untraced, traced, or both, printing every
// result as it completes. failed reports a run that could not finish or
// whose checks did not pass.
func runSpecs(b *bench, specs []workloadSpec, untraced, traced bool, tracePath string) (runs []result, failed bool) {
	run := func(spec workloadSpec, traced bool) {
		var res *result
		var err error
		switch {
		case traced:
			res, err = runTraced(b, spec, tracePath)
		case spec.server == nil:
			res, err = runOfflineWorkload(b, spec)
		default:
			res, err = runServerWorkload(b, spec, spec.server())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			failed = true
			return
		}
		printResult(b.out, res)
		runs = append(runs, *res)
		failed = failed || !res.Correct
	}
	for _, spec := range specs {
		if untraced {
			run(spec, false)
		}
		if traced {
			run(spec, true)
		}
	}
	return runs, failed
}
