// Command april-bench regenerates Table 3 of the paper: normalized
// execution times of fib, factor, queens and speech on the Encore
// Multimax baseline and on APRIL with normal and lazy task creation,
// at 1-16 processors.
//
// The grid's independent runs are fanned across host cores (-workers).
// -perf runs the whole grid three times — reference per-cycle loop on
// one worker, then fast-forward with and without the compiled tier on
// all workers — plus a 64-node ALEWIFE comparison and a checkpoint
// overhead sweep, and writes the throughput report to
// BENCH_simperf.json.
//
// -model-check cross-validates the Section 8 analytical model: it runs
// fib/queens on the full ALEWIFE memory system across the Figure 5
// processor range, measures the model's inputs (resident threads, miss
// rate, remote latency) from each run, and reports measured vs.
// predicted utilization with per-config errors.
//
// -fault-matrix runs the robustness grid instead: fib/queens on
// perfect and ALEWIFE memory at several machine sizes, each ALEWIFE
// cell repeated under seeded fault plans with the invariant checkers
// armed; any answer drift, invariant violation, or wedge fails the
// run.
//
// -cpuprofile and -memprofile write pprof profiles of whatever mode
// ran (see README.md, "Profiling the simulator").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"april"
)

// main delegates to run so deferred profile writers execute before the
// process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	var (
		sizes            = flag.String("sizes", "paper", "workload scale: paper | test")
		verbose          = flag.Bool("v", false, "log each measurement as it completes")
		frames           = flag.Bool("frames", false, "run the task-frame ablation (E9) instead of Table 3")
		workers          = flag.Int("workers", 0, "parallel host workers (0 = one per core)")
		naive            = flag.Bool("naive", false, "use the reference per-cycle loop and switch interpreter (no fast-forward, no predecode)")
		compile          = flag.Bool("compile", true, "enable the compiled execution tier (profile-guided basic-block superinstructions); results are bit-identical on or off")
		compileThreshold = flag.Int("compile-threshold", 0, "block executions before the compiled tier translates (0 = default 8)")
		epoch            = flag.Bool("epoch", true, "enable epoch execution (multi-node lockstep windows through the compiled tier); results are bit-identical on or off")
		perf             = flag.Bool("perf", false, "measure simulator throughput and host allocator pressure (naive/serial vs fast/parallel, plus a 64-node ALEWIFE run) and write BENCH_simperf.json")
		perfOut          = flag.String("perf-out", "BENCH_simperf.json", "output path for -perf")

		statsJSON = flag.String("stats-json", "", "write every grid run's full statistics (totals, per-node, throughput) as JSON to this path")

		modelCheck = flag.Bool("model-check", false, "run the measured-vs-model utilization grid (fib/queens on the full ALEWIFE memory system across the Figure 5 processor range) and compare measured U(p) against the Section 8 analytical model; writes the report to -stats-json (default BENCH_modelcheck.json)")

		faultMatrix = flag.Bool("fault-matrix", false, "run the robustness fault matrix (fib/queens × perfect/alewife × machine sizes × seeded fault plans, invariant checkers armed) instead of Table 3; exit 1 on any failing cell")
		faultSeeds  = flag.Int("fault-seeds", 8, "seeded fault plans per ALEWIFE cell for -fault-matrix")

		traceOut    = flag.String("trace", "", "trace one representative run (see -trace-bench) instead of the grid; writes Chrome trace-event JSON to this path")
		timelineOut = flag.String("timeline", "", "like -trace but for the per-node utilization timeline (CSV, or JSON rows with a .json extension)")
		traceBench  = flag.String("trace-bench", "fib", "benchmark for the traced run: fib | factor | queens | speech")
		traceProcs  = flag.Int("trace-procs", 8, "processor count for the traced run")
		sample      = flag.Uint64("sample", 0, "timeline sampling interval in cycles (0 = default 4096)")
		serve       = flag.String("serve", "", "run one representative benchmark (see -trace-bench/-trace-procs) with the live introspection server on this host:port: /progress, /counters, /metrics, /timeline, /trace")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this path")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "april-bench:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "april-bench: heap profile:", err)
			}
			f.Close()
		}()
	}

	if *frames {
		cfg := april.DefaultFramesSweep()
		cfg.Workers = *workers
		pts, err := april.FramesSweep(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Println("E9: utilization vs hardware task frames (fib on the full ALEWIFE memory system)")
		fmt.Println()
		fmt.Print(april.FormatFramesSweep(pts))
		return 0
	}

	var benchSizes april.Table3Sizes
	switch *sizes {
	case "paper":
		benchSizes = april.PaperSizes
	case "test":
		benchSizes = april.TestSizes
	default:
		fmt.Fprintf(os.Stderr, "april-bench: unknown -sizes %q\n", *sizes)
		return 2
	}

	if *modelCheck {
		mcfg := april.DefaultModelCheckConfig()
		mcfg.Sizes = benchSizes
		mcfg.Workers = *workers
		if *verbose {
			mcfg.Verbose = os.Stderr
		}
		rep, err := april.ModelCheck(mcfg)
		if err != nil {
			return fail(err)
		}
		rep.Sizes = *sizes
		out := *statsJSON
		if out == "" {
			out = "BENCH_modelcheck.json"
		}
		if err := os.WriteFile(out, rep.JSON(), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("Measured vs. model utilization (-sizes %s; m, T, p measured per run; C = %d cycles):\n\n",
			*sizes, int(rep.Rows[0].SwitchCost))
		fmt.Print(april.FormatModelCheck(rep))
		fmt.Println("\nwritten to", out)
		return 0
	}

	if *faultMatrix {
		mcfg := april.DefaultFaultMatrixConfig()
		mcfg.Seeds = *faultSeeds
		mcfg.Sizes = benchSizes
		mcfg.Workers = *workers
		if *verbose {
			mcfg.Verbose = true
			mcfg.Out = os.Stderr
		}
		res, err := april.FaultMatrix(mcfg)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("Fault matrix (-sizes %s, %d seeds per ALEWIFE cell, invariant checkers on):\n\n", *sizes, mcfg.Seeds)
		fmt.Print(april.FormatFaultMatrix(res))
		if res.Failures > 0 {
			return fail(fmt.Errorf("%d failing cells", res.Failures))
		}
		return 0
	}

	cfg := april.DefaultTable3Config()
	cfg.Sizes = benchSizes
	var log io.Writer
	if *verbose {
		log = os.Stderr
	}
	cfg.Verbose = log
	cfg.Workers = *workers
	cfg.Naive = *naive
	cfg.NoCompile = !*compile
	cfg.CompileThreshold = *compileThreshold
	cfg.NoEpoch = !*epoch

	if *traceOut != "" || *timelineOut != "" || *serve != "" {
		// Tracing (or serving) the whole grid would interleave hundreds
		// of machines; observe one representative run on the full ALEWIFE
		// memory system instead.
		if err := runTraced(cfg.Sizes, *traceBench, *traceProcs, *traceOut, *timelineOut, *serve, *sample); err != nil {
			return fail(err)
		}
		return 0
	}

	if *perf {
		rep, err := april.Table3Perf(cfg, *sizes)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*perfOut, rep.JSON(), 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("Simulator throughput on the full Table 3 grid (-sizes %s):\n  %s\n", *sizes, rep.Summary())
		fmt.Printf("  baseline : %s\n  predecode: %s\n  compiled : %s\n", rep.Baseline, rep.Predecode, rep.Optimized)
		fmt.Println("written to", *perfOut)
		if !rep.RowsIdentical || (rep.Alewife != nil && !rep.Alewife.Identical) {
			return fail(fmt.Errorf("simulated results differ between loops"))
		}
		return 0
	}

	var gridPerf april.RunPerf
	cfg.Perf = &gridPerf
	var gridStats []april.RunStats
	if *statsJSON != "" {
		cfg.Stats = &gridStats
	}
	rows, err := april.Table3(cfg)
	if err != nil {
		return fail(err)
	}
	if *statsJSON != "" {
		b, err := json.MarshalIndent(gridStats, "", "  ")
		if err == nil {
			err = os.WriteFile(*statsJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "run statistics written to %s (%d runs)\n", *statsJSON, len(gridStats))
	}
	fmt.Println("Table 3: Execution time for Mul-T benchmarks, normalized to sequential T")
	fmt.Println("(paper reference: fib 28.9/14.2/1.5 at 1p for Encore/APRIL/Apr-lazy;")
	fmt.Println(" Mul-T seq overhead ~1.4-2.0x on Encore, ~1.0 on APRIL)")
	fmt.Println()
	fmt.Print(april.FormatTable3(rows, cfg.AprilProcs))
	if *verbose {
		fmt.Fprintf(os.Stderr, "grid throughput: %s\n", gridPerf)
	}
	return 0
}

// runTraced executes one benchmark with the observability subsystem
// enabled: file outputs for -trace/-timeline and, when serve is
// non-empty, the live introspection server for the duration of the
// run.
func runTraced(sizes april.Table3Sizes, benchName string, procs int, traceOut, timelineOut, serve string, sample uint64) error {
	switch benchName {
	case "fib", "factor", "queens", "speech":
	default:
		return fmt.Errorf("unknown -trace-bench %q", benchName)
	}
	src := april.BenchmarkSource(benchName, sizes)
	topts := &april.TraceOptions{SampleInterval: sample}
	var files []*os.File
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	var err error
	if traceOut != "" {
		if topts.ChromeOut, err = open(traceOut); err != nil {
			return err
		}
	}
	if timelineOut != "" {
		if topts.TimelineOut, err = open(timelineOut); err != nil {
			return err
		}
		topts.TimelineJSON = strings.HasSuffix(timelineOut, ".json")
	}
	opts := april.Options{
		Processors: procs,
		Machine:    april.APRIL,
		Alewife:    &april.AlewifeOptions{},
		Output:     io.Discard,
		Trace:      topts,
	}
	if serve != "" {
		opts.Serve = serve
		opts.ServeNotify = func(url string) {
			fmt.Fprintf(os.Stderr, "april-bench: observatory listening on %s\n", url)
		}
	}
	res, err := april.Run(src, opts)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("traced %s on %d ALEWIFE processors: %s in %d cycles (utilization %.3f)\n",
		benchName, procs, res.Value, res.Cycles, res.Utilization)
	if traceOut != "" {
		fmt.Printf("event trace written to %s (open in Perfetto: https://ui.perfetto.dev)\n", traceOut)
	}
	if timelineOut != "" {
		fmt.Printf("utilization timeline written to %s\n", timelineOut)
	}
	return nil
}
