// Command perfbench is the simulator's repeatable benchmark. One run
// measures one workload for a fixed time and prints every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1); the last
// line of its output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads and
// metrics, and run.sh for how it is built and started.
//
// Each pass of a workload runs in a fresh child process of this
// binary, so every pass starts from the same process state and its
// peak resident memory is its own.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"april/internal/bench"
	"april/internal/mult"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: grid, alewife, alewife-lazy or checkpoint")
		seed    = flag.Int64("seed", 1, "seed for checkpoint cycles and grid run order")
		seconds = flag.Int("seconds", 15, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from profiled passes instead of end-to-end metrics")
		out     = flag.String("out", ".bench_build", "directory for the run record and spans")
		child   = flag.String("child", "", "internal: run one job (pass, traced, probe, setup, table3) and print its JSON")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, w, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := runBenchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// passResult is what one child job reports.
type passResult struct {
	Ops   []opResult `json:"ops"`
	WallS float64    `json:"wall_s"`
	// Occupancy is the harness pool's busy time over workers x wall.
	Occupancy float64 `json:"occupancy"`
	AllocMB   float64 `json:"alloc_mb,omitempty"`
	GCCount   uint32  `json:"gc_count,omitempty"`
	Profile   []byte  `json:"profile,omitempty"`
	PeakRSSK  int64   `json:"-"` // filled in by the parent from rusage
}

// runChild runs one job in this process and prints its passResult.
//
//	pass    one timed pass of the workload
//	traced  one pass with the CPU profile, spans and MemStats deltas on
//	probe   repeated image writes and restores of the workload's probe machine,
//	        all of one machine stopped at the checkpoint cycle
//	setup   repeated compile, build and load of every machine of a pass
//	table3  one untimed pass of the grid, for table3_err
func runChild(job string, w workload, seed int64) error {
	var res passResult
	switch job {
	case "pass", "traced":
		traced := job == "traced"
		ops := w.ops(seed)
		var prof bytes.Buffer
		var before, after runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		start := time.Now()
		results, occ := runOps(ops, w.workers, traced, start)
		res.WallS = time.Since(start).Seconds()
		if traced {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&after)
			res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			res.GCCount = after.NumGC - before.NumGC
			res.Profile = prof.Bytes()
		}
		res.Ops, res.Occupancy = results, occ.BusyFraction()
	case "probe":
		if w.probe == nil {
			return fmt.Errorf("workload %s has no image probe", w.name)
		}
		res.Ops = probeImages(w.probe(seed))
	case "setup":
		for start, reps := time.Now(), 0; reps < minReps || time.Since(start) < setupTime; reps++ {
			for _, op := range w.ops(seed) {
				res.Ops = append(res.Ops, setupOnly(op))
			}
		}
	case "table3":
		g, _ := findWorkload("grid")
		res.Ops, _ = runOps(g.ops(seed), g.workers, false, time.Now())
	default:
		return fmt.Errorf("unknown job")
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// The setup job builds and loads every machine of a pass, and the
// probe job writes and restores an image, at least minReps times and
// for at least setupTime and probeTime; the metrics take the median.
const (
	minReps   = 3
	setupTime = 2 * time.Second
	probeTime = 4 * time.Second
)

// spawn runs one child job and decodes its result. A child that fails
// or prints no result is an error; its operations count as failed.
func spawn(job string, w workload, seed int64) (passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.Command(self, "-child", job, "-workload", w.name, "-seed", fmt.Sprint(seed))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("%s job: %w", job, err)
	}
	var res passResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return passResult{}, fmt.Errorf("%s job: %w", job, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSK = ru.Maxrss
	}
	return res, nil
}

// gate checks every operation: it must not have failed, its value must
// equal the interpreter's, and its stats digest must equal the first
// digest seen for the same label (same code, same machine, same
// program: a deterministic simulator repeats exactly). A checkpointed
// run is keyed by its uninterrupted run, so it must reproduce that
// run's digest.
type gate struct {
	oracle    map[string]string // program -> interpreter value
	digests   map[string]string // label -> first digest
	attempted int
	failed    int
	reasons   []string
}

func newGate() *gate {
	return &gate{oracle: map[string]string{}, digests: map[string]string{}}
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.reasons) < 10 {
		g.reasons = append(g.reasons, fmt.Sprintf(format, args...))
	}
}

// lost counts n operations of a job that produced no result.
func (g *gate) lost(n int, err error) {
	g.attempted += n
	for i := 0; i < n; i++ {
		g.fail("%v", err)
	}
}

func (g *gate) check(ops []simOp, results []opResult) {
	for i, r := range results {
		g.attempted++
		op := ops[i]
		if r.Err != "" {
			g.fail("%s", r.Err)
			continue
		}
		want, ok := g.oracle[op.program]
		if !ok {
			v, err := mult.NewInterp(nil, 0).RunSource(bench.PaperSizes.Source(op.program))
			if err != nil {
				g.fail("%s: interpreter: %v", op.label, err)
				continue
			}
			want = mult.FormatValue(v)
			g.oracle[op.program] = want
		}
		if r.Value != want {
			g.fail("%s: value %s, interpreter %s", op.label, r.Value, want)
			continue
		}
		key := r.Label
		if op.ckptAt > 0 {
			key = uninterrupted(op).label
		}
		if first, ok := g.digests[key]; !ok {
			g.digests[key] = r.Digest
		} else if first != r.Digest {
			g.fail("%s: stats digest %s, earlier %s", op.label, r.Digest, first)
		}
	}
}

// checkStopped checks operations that stop before the run ends (setup
// repetitions, image round trips): they must not have failed.
func (g *gate) checkStopped(results []opResult) {
	for _, r := range results {
		g.attempted++
		if r.Err != "" {
			g.fail("%s", r.Err)
		}
	}
}

// uninterrupted is the checkpointed op run straight through.
func uninterrupted(op simOp) simOp {
	op.ckptAt = 0
	op.label += "/uninterrupted"
	return op
}

// metric is one reported number with its unit and the samples it is
// the median of (one for a value that repeats exactly).
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// record is everything a run learned; it is written to the output
// directory, and its summary is printed.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      hostInfo          `json:"host"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reasons   []string          `json:"failures,omitempty"`
	// Spans holds each profiled pass's spans; times count from the
	// start of their pass.
	Spans [][]span `json:"spans_per_pass,omitempty"`
}

func runBenchmark(w workload, seed int64, budget time.Duration, traced bool, outDir string) error {
	g := newGate()
	rec := record{Workload: w.name, Seed: seed, Trace: traced, Host: readHost(), Metrics: map[string]metric{}}
	ops := w.ops(seed)

	// The uninterrupted run a checkpointed op must reproduce.
	for _, op := range ops {
		if op.ckptAt > 0 {
			ref := uninterrupted(op)
			res := runOp(ref, 1, false, time.Now())
			g.check([]simOp{ref}, []opResult{res})
			if res.Err != "" {
				return errors.New(res.Err)
			}
		}
	}

	start := time.Now()
	var passes []passResult
	measure := budget
	if traced {
		measure = budget / 2 // the rest goes to the profiled passes
	}
	for len(passes) < minPasses || time.Since(start) < measure {
		p, err := spawn("pass", w, seed)
		if err != nil {
			g.lost(len(ops), err)
			break
		}
		g.check(ops, p.Ops)
		passes = append(passes, p)
	}
	var tracedPasses []passResult
	if traced {
		for len(tracedPasses) < 1 || time.Since(start) < budget {
			p, err := spawn("traced", w, seed)
			if err != nil {
				g.lost(len(ops), err)
				break
			}
			g.check(ops, p.Ops)
			tracedPasses = append(tracedPasses, p)
		}
	}
	if len(passes) == 0 || (traced && len(tracedPasses) == 0) {
		return errors.New("no pass completed")
	}

	if traced {
		if err := layerMetrics(&rec, passes, tracedPasses); err != nil {
			return err
		}
		for _, p := range tracedPasses {
			var spans []span
			for _, r := range p.Ops {
				spans = append(spans, r.Spans...)
			}
			rec.Spans = append(rec.Spans, spans)
		}
	} else {
		// A side job that fails leaves its metric out; its operations
		// count as failed.
		endToEnd(&rec, passes)
		setupMetric(&rec, g, w, seed, ops)
		imageMetrics(&rec, g, w, seed, passes)
		table3Metric(&rec, g, w, seed, passes)
	}
	rec.Attempted, rec.Failed, rec.Reasons = g.attempted, g.failed, g.reasons
	return report(rec, outDir)
}

// minPasses is the fewest passes a run measures, however short
// --seconds is, so every median has several samples.
const minPasses = 3

// perPass is f of each pass.
func perPass(passes []passResult, f func(passResult) float64) []float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return xs
}

func sumOps(p passResult, f func(opResult) float64) float64 {
	var s float64
	for _, r := range p.Ops {
		s += f(r)
	}
	return s
}

// set records the median of samples as the metric name.
func (rec *record) set(name, unit string, samples ...float64) {
	rec.Metrics[name] = metric{Value: median(samples), Unit: unit, Samples: samples}
}

// endToEnd fills the metrics every workload's passes give directly.
func endToEnd(rec *record, passes []passResult) {
	rec.set("wall_s", "s", perPass(passes, func(p passResult) float64 { return p.WallS })...)
	rec.set("sim_mips", "Minstr/s", perPass(passes, func(p passResult) float64 {
		return ratio(sumOps(p, func(r opResult) float64 { return float64(r.Count.Instructions) }), p.WallS) / 1e6
	})...)
	rec.set("peak_rss_mb", "MB", perPass(passes, func(p passResult) float64 { return float64(p.PeakRSSK) / 1024 })...)
	rec.set("sim_cycles", "cycles", sumOps(passes[0], func(r opResult) float64 { return float64(r.Cycles) }))
}

// setupMetric fills setup_s from the setup job: per repetition, the
// compile, build and load time of every machine of a pass.
func setupMetric(rec *record, g *gate, w workload, seed int64, ops []simOp) {
	p, err := spawn("setup", w, seed)
	if err != nil {
		g.lost(len(ops), err)
		return
	}
	var reps []float64
	for i, r := range p.Ops {
		if i%len(ops) == 0 {
			reps = append(reps, 0)
		}
		reps[len(reps)-1] += r.CompileS + r.BuildS + r.LoadS
	}
	g.checkStopped(p.Ops)
	rec.set("setup_s", "s", reps...)
}

// imageMetrics fills snapshot_s, restore_s and image_mb, one sample
// per image: from the passes when they checkpoint, else from the
// workload's image probe.
func imageMetrics(rec *record, g *gate, w workload, seed int64, passes []passResult) {
	var imgs []opResult
	if w.probe != nil {
		p, err := spawn("probe", w, seed)
		if err != nil {
			g.lost(1, err)
			return
		}
		g.checkStopped(p.Ops)
		imgs = p.Ops
	} else {
		for _, p := range passes {
			imgs = append(imgs, p.Ops...)
		}
	}
	var snap, restore, size []float64
	for _, r := range imgs {
		if r.ImageB > 0 {
			snap = append(snap, r.SnapshotS)
			restore = append(restore, r.RestoreS)
			size = append(size, float64(r.ImageB)/(1<<20))
		}
	}
	if len(size) > 0 {
		rec.set("snapshot_s", "s", snap...)
		rec.set("restore_s", "s", restore...)
		rec.set("image_mb", "MB", size...)
	}
}

// table3Metric fills table3_err: from the passes on the grid, else from
// one untimed grid pass.
func table3Metric(rec *record, g *gate, w workload, seed int64, passes []passResult) {
	results := passes[0].Ops
	if w.name != "grid" {
		grid, _ := findWorkload("grid")
		p, err := spawn("table3", w, seed)
		if err != nil {
			g.lost(len(grid.ops(seed)), err)
			return
		}
		g.check(grid.ops(seed), p.Ops)
		results = p.Ops
	}
	cycles := map[string]uint64{}
	for _, r := range results {
		cycles[r.Label] = r.Cycles
	}
	e, _, err := table3Err(cycles)
	if err != nil {
		return // a grid run failed, and the gate counted it
	}
	rec.set("table3_err", "ln", e)
}

// layerNames are the layers whose share of profile samples is reported.
var layerNames = []string{"mult", "isa", "proc", "core", "rts", "mem", "cache", "directory",
	"network", "sim", "snapshot", "harness", "go", "bench"}

// layerMetrics fills the per-layer metrics. Counts come from the first
// untimed pass (they repeat exactly); times, shares and allocation
// from the profiled passes.
func layerMetrics(rec *record, passes, traced []passResult) error {
	counts := map[string]int64{}
	for _, p := range traced {
		c, err := profileLayers(p.Profile)
		if err != nil {
			return err
		}
		for l, v := range c {
			counts[l] += v
		}
	}
	var total int64
	for _, v := range counts {
		total += v
	}
	sh := shares(counts)
	var covered float64
	for _, l := range layerNames {
		rec.set(l+".share", "frac", sh[l])
		covered += sh[l]
	}
	rec.set("bench.layer_coverage", "frac", covered)
	rec.set("bench.profile_samples", "count", float64(total))

	opTime := func(f func(opResult) float64) []float64 {
		return perPass(traced, func(p passResult) float64 { return sumOps(p, f) })
	}
	rec.set("mult.compile_s", "s", opTime(func(r opResult) float64 { return r.CompileS })...)
	rec.set("sim.build_s", "s", opTime(func(r opResult) float64 { return r.BuildS + r.LoadS })...)
	rec.set("sim.run_s", "s", opTime(func(r opResult) float64 { return r.RunS })...)
	rec.set("sim.report_s", "s", opTime(func(r opResult) float64 { return r.ReportS })...)
	rec.set("go.alloc_mb", "MB", perPass(traced, func(p passResult) float64 { return p.AllocMB })...)
	rec.set("go.gc_count", "count", perPass(traced, func(p passResult) float64 { return float64(p.GCCount) })...)
	untracedWall := median(perPass(passes, func(p passResult) float64 { return p.WallS }))
	tracedWall := median(perPass(traced, func(p passResult) float64 { return p.WallS }))
	rec.set("bench.trace_overhead", "frac", ratio(tracedWall, untracedWall)-1)
	rec.set("harness.occupancy", "frac", perPass(passes, func(p passResult) float64 { return p.Occupancy })...)

	var c counters
	var cycles float64
	for _, r := range passes[0].Ops {
		c.add(r.Count)
		cycles += float64(r.Cycles)
	}
	f := func(x uint64) float64 { return float64(x) }
	total4 := f(c.Useful + c.Wait + c.Trap + c.Idle)
	rec.set("proc.instructions", "count", f(c.Instructions))
	rec.set("proc.switches", "count", f(c.Switches))
	rec.set("proc.fused_frac", "frac", ratio(f(c.FusedOps), f(c.Dispatches)))
	rec.set("rts.steals", "count", f(c.Steals))
	rec.set("rts.tasks_created", "count", f(c.TasksCreated))
	rec.set("rts.blocks", "count", f(c.Blocks))
	rec.set("cache.hit_ratio", "frac", ratio(f(c.CacheHits), f(c.CacheHits+c.CacheMisses)))
	rec.set("directory.invals_sent", "count", f(c.InvalsSent))
	rec.set("network.messages", "count", f(c.Messages))
	rec.set("network.avg_latency_cycles", "cycles", ratio(f(c.TotalLatency), f(c.Delivered)))
	rec.set("sim.epoch_coverage", "frac", ratio(f(c.EpochCycles), cycles))
	rec.set("sim.utilization", "frac", ratio(f(c.Useful), total4))
	rec.set("sim.wait_frac", "frac", ratio(f(c.Wait), total4))
	rec.set("sim.idle_frac", "frac", ratio(f(c.Idle), total4))
	return nil
}

// report writes the full record to the output directory and prints a
// readable summary followed by the result line.
func report(rec record, outDir string) error {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)

	if err := os.MkdirAll(filepath.Join(outDir, "runs"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "runs", fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace))
	js, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, js, 0o644); err != nil {
		return err
	}

	h := rec.Host
	fmt.Printf("workload %s  seed %d  trace %v\n", rec.Workload, rec.Seed, rec.Trace)
	fmt.Printf("host: num_cpu %d  GOMAXPROCS %d  %s  commit %s  source %s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source)
	for _, k := range names {
		m := rec.Metrics[k]
		fmt.Printf("  %-28s %14.6g %-9s (median of %d)\n", k, m.Value, m.Unit, len(m.Samples))
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, r := range rec.Reasons {
		fmt.Printf("  FAILED: %s\n", r)
	}
	fmt.Printf("record: %s\n", path)

	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]out{}
	for k, m := range rec.Metrics {
		metrics[k] = out{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rec.Failed == 0,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
