package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"april/internal/bench"
	"april/internal/harness"
	"april/internal/isa"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
)

// simOp is one operation of the benchmark: one Mul-T program at the
// paper sizes, compiled and run on a fresh machine in the default
// configuration (compiled and epoch tiers on, one shard, no oracle
// flags).
type simOp struct {
	label   string
	program string // a bench.Names program, at bench.PaperSizes
	nodes   int
	prof    rts.Profile
	mode    mult.Mode // LazyFutures also selects the lazy scheduler
	alewife bool      // full memory system instead of perfect memory
	memMB   uint32    // simulated memory; 0 is the simulator's default

	// ckptAt > 0 runs the machine to that cycle, writes an image,
	// restores it, and finishes the run on the restored machine.
	ckptAt uint64
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// ops lists the simulations of one pass; the seed may reorder them
	// and picks checkpoint cycles.
	ops func(seed int64) []simOp
	// workers is the harness pool size for a pass; 0 is one worker per
	// GOMAXPROCS (harness.Workers).
	workers int
	// probe is the machine whose image gives snapshot_s, restore_s and
	// image_mb on workloads whose passes take no checkpoint.
	probe func(seed int64) simOp
}

// checkpointCycle is the seed's checkpoint cycle: base plus an offset
// in [-500, 500].
func checkpointCycle(seed int64, base uint64) uint64 {
	r := rand.New(rand.NewSource(seed))
	return base - 500 + uint64(r.Intn(1001))
}

func queens64(label string, lazy bool) simOp {
	mode := mult.Mode{HardwareFutures: true, LazyFutures: lazy}
	return simOp{label: label, program: "queens", nodes: 64, prof: rts.APRIL, mode: mode, alewife: true}
}

// The image probes and the checkpoint workload cut a run at a cycle
// near these, well before the run ends: the grid's 16-node APRIL queens
// run takes about 197 000 cycles, the 64-node ALEWIFE queens runs over
// 75 000.
const (
	gridProbeCycle    = 30_000
	alewifeProbeCycle = 20_000
)

var workloads = []workload{
	{
		name: "grid",
		ops:  rotatedRows,
		probe: func(seed int64) simOp {
			return simOp{label: "queens/APRIL/16p@ckpt", program: "queens", nodes: 16, prof: rts.APRIL,
				mode: mult.Mode{HardwareFutures: true}, ckptAt: checkpointCycle(seed, gridProbeCycle)}
		},
	},
	{
		name: "alewife",
		ops: func(int64) []simOp {
			big := queens64("queens/alewife/256n", false)
			big.nodes, big.memMB = 256, 2048
			return []simOp{queens64("queens/alewife/64n", false), big}
		},
		workers: 1,
		probe: func(seed int64) simOp {
			op := queens64("queens/alewife/64n@ckpt", false)
			op.ckptAt = checkpointCycle(seed, alewifeProbeCycle)
			return op
		},
	},
	{
		name:    "alewife-lazy",
		ops:     func(int64) []simOp { return []simOp{queens64("queens/alewife-lazy/64n", true)} },
		workers: 1,
		probe: func(seed int64) simOp {
			op := queens64("queens/alewife-lazy/64n@ckpt", true)
			op.ckptAt = checkpointCycle(seed, alewifeProbeCycle)
			return op
		},
	},
	{
		name: "checkpoint",
		ops: func(seed int64) []simOp {
			op := queens64("queens/alewife/64n@ckpt", false)
			op.ckptAt = checkpointCycle(seed, alewifeProbeCycle)
			return []simOp{op}
		},
		workers: 1,
	},
}

// rotatedRows is the grid with its Table 3 rows (one program on one
// system) issued in paper order from a seed-chosen first row. Rows stay
// next to the same neighbours for every seed, so which runs share the
// pool's workers, and with it the pass's peak memory, barely depends on
// the seed.
func rotatedRows(seed int64) []simOp {
	ops := gridOps()
	var starts []int
	for i, op := range ops {
		if strings.HasSuffix(op.label, "/tseq") {
			starts = append(starts, i)
		}
	}
	first := starts[rand.New(rand.NewSource(seed)).Intn(len(starts))]
	return append(append([]simOp(nil), ops[first:]...), ops[:first]...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// counters are the simulated and tier counts of one operation, read
// from the machine's counter registry after the run.
type counters struct {
	Instructions uint64 `json:"instructions"`
	Switches     uint64 `json:"switches"`
	Useful       uint64 `json:"useful"`
	Wait         uint64 `json:"wait"`
	Trap         uint64 `json:"trap"`
	Idle         uint64 `json:"idle"`
	Steals       uint64 `json:"steals"`
	TasksCreated uint64 `json:"tasks_created"`
	Blocks       uint64 `json:"blocks"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	InvalsSent   uint64 `json:"invals_sent"`
	Messages     uint64 `json:"messages"`
	Delivered    uint64 `json:"delivered"`
	TotalLatency uint64 `json:"total_latency"`
	FusedOps     uint64 `json:"fused_ops"`
	Dispatches   uint64 `json:"dispatches"`
	EpochCycles  uint64 `json:"epoch_cycles"`
}

func (c *counters) add(o counters) {
	c.Instructions += o.Instructions
	c.Switches += o.Switches
	c.Useful += o.Useful
	c.Wait += o.Wait
	c.Trap += o.Trap
	c.Idle += o.Idle
	c.Steals += o.Steals
	c.TasksCreated += o.TasksCreated
	c.Blocks += o.Blocks
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.InvalsSent += o.InvalsSent
	c.Messages += o.Messages
	c.Delivered += o.Delivered
	c.TotalLatency += o.TotalLatency
	c.FusedOps += o.FusedOps
	c.Dispatches += o.Dispatches
	c.EpochCycles += o.EpochCycles
}

// tierGroups are registry groups that describe how the host executed
// the run (which tier, which windows), not what was simulated; a
// restored machine starts them afresh, so they stay out of the digest.
var tierGroups = map[string]bool{"compile": true, "epoch": true, "pdes": true}

// readCounters sums the registry snapshot into counters and returns
// the digest of its simulated groups.
func readCounters(snap map[string]map[string]uint64) (counters, []byte, error) {
	var c counters
	sim := map[string]map[string]uint64{}
	for group, vals := range snap {
		switch {
		case group == "scheduler":
			c.Steals += vals["steals"]
			c.TasksCreated += vals["tasks_created"]
			c.Blocks += vals["blocks"]
		case group == "compile":
			c.FusedOps += vals["fused_ops"]
			c.Dispatches += vals["dispatches"]
		case group == "epoch":
			c.EpochCycles += vals["cycles"]
		case group == "network":
			c.Messages += vals["messages"]
			c.Delivered += vals["delivered"]
			c.TotalLatency += vals["total_latency"]
		case strings.HasSuffix(group, ".proc"):
			c.Instructions += vals["instructions"]
			c.Switches += vals["switches"]
			c.Useful += vals["useful_cycles"]
			c.Wait += vals["wait_cycles"]
			c.Trap += vals["trap_cycles"]
			c.Idle += vals["idle_cycles"]
		case strings.HasSuffix(group, ".memory"):
			c.CacheHits += vals["cache_hits"]
			c.CacheMisses += vals["cache_misses"]
			c.InvalsSent += vals["dir_invals_sent"]
		}
		if !tierGroups[group] && !strings.HasPrefix(group, "shard") {
			sim[group] = vals
		}
	}
	js, err := json.Marshal(sim) // map keys marshal sorted
	return c, js, err
}

// span is one timed call into a layer, in nanoseconds from the start of
// its pass. Every span of one simulation carries that simulation's id
// (Sim); within it, the root "sim" span has ID 0 and parent -1, and the
// calls it made are numbered from 1 and name it as parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Sim    int    `json:"sim"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opResult is one simulation's outcome and timings.
type opResult struct {
	Label  string   `json:"label"`
	Value  string   `json:"value"`
	Cycles uint64   `json:"cycles"`
	Digest string   `json:"digest"`
	Err    string   `json:"err,omitempty"`
	Count  counters `json:"counters"`

	CompileS  float64 `json:"compile_s"`
	BuildS    float64 `json:"build_s"`
	LoadS     float64 `json:"load_s"`
	RunS      float64 `json:"run_s"`
	ReportS   float64 `json:"report_s"`
	SnapshotS float64 `json:"snapshot_s,omitempty"`
	RestoreS  float64 `json:"restore_s,omitempty"`
	ImageB    int     `json:"image_bytes,omitempty"`

	Spans []span `json:"spans,omitempty"`
}

// traceSliceCycles is the RunWindow slice a traced run is cut into, so
// its spans show where in the run host time went.
const traceSliceCycles = 1 << 14

// opRunner times one simulation's calls into each layer and, when
// traced, records them as spans.
type opRunner struct {
	res    *opResult
	traced bool
	base   time.Time // pass start
	sim    int       // simulation id
	nextID int
}

func (r *opRunner) timed(name string, acc *float64, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	*acc += end.Sub(start).Seconds()
	if r.traced {
		r.nextID++
		r.res.Spans = append(r.res.Spans, span{ID: r.nextID, Parent: 0, Sim: r.sim, Name: name,
			Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()})
	}
	return err
}

// run drives m to completion: one Run call, or, traced, RunWindow
// slices whose spans show the run's progress.
func (r *opRunner) run(m *sim.Machine) (sim.Result, error) {
	var res sim.Result
	if r.traced {
		for done := false; !done; {
			err := r.timed("run_window", &r.res.RunS, func() (err error) {
				done, err = m.RunWindow(traceSliceCycles)
				return err
			})
			if err != nil {
				return res, err
			}
		}
	}
	err := r.timed("run", &r.res.RunS, func() (err error) {
		res, err = m.Run()
		return err
	})
	return res, err
}

// runOp performs one simulation. It never fails: an error is recorded
// in the result so that the remaining simulations of the pass still
// run and the failure is counted against this operation alone.
func runOp(op simOp, id int, traced bool, base time.Time) opResult {
	res := opResult{Label: op.label}
	r := &opRunner{res: &res, traced: traced, base: base, sim: id}
	start := time.Now()
	if err := r.exec(op); err != nil {
		res.Err = err.Error()
	}
	if traced {
		res.Spans = append(res.Spans, span{ID: 0, Parent: -1, Sim: id, Name: "sim",
			Start: start.Sub(base).Nanoseconds(), End: time.Since(base).Nanoseconds()})
	}
	return res
}

func (r *opRunner) exec(op simOp) error {
	m, err := r.setup(op)
	if err != nil {
		return err
	}
	var tier counters // tier telemetry of the machine that wrote the image
	if op.ckptAt > 0 {
		if err := r.runTo(op, m); err != nil {
			return err
		}
		for _, n := range m.Nodes {
			tier.FusedOps += n.Proc.FusedOps
		}
		tier.EpochCycles = m.EpochTelemetry().Cycles
		if m, err = r.roundTrip(op, m); err != nil {
			return err
		}
	}
	out, err := r.run(m)
	if err != nil {
		return fmt.Errorf("%s: run: %w", op.label, err)
	}
	return r.timed("report", &r.res.ReportS, func() error {
		c, simJSON, err := readCounters(m.CounterRegistry().Snapshot())
		if err != nil {
			return fmt.Errorf("%s: report: %w", op.label, err)
		}
		c.add(tier)
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%+v|", out.Formatted, out.Cycles, m.TotalStats())
		h.Write(simJSON)
		r.res.Value, r.res.Cycles, r.res.Count = out.Formatted, out.Cycles, c
		r.res.Digest = fmt.Sprintf("%016x", h.Sum64())
		return nil
	})
}

// setup builds op's machine and loads its compiled program.
func (r *opRunner) setup(op simOp) (*sim.Machine, error) {
	cfg := sim.Config{Nodes: op.nodes, Profile: op.prof, Lazy: op.mode.LazyFutures, MemoryBytes: op.memMB << 20}
	if op.alewife {
		cfg.Alewife = &sim.AlewifeConfig{}
	}
	var m *sim.Machine
	if err := r.timed("build", &r.res.BuildS, func() (err error) {
		m, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: build: %w", op.label, err)
	}
	var prog *isa.Program
	if err := r.timed("compile", &r.res.CompileS, func() (err error) {
		prog, err = mult.Compile(bench.PaperSizes.Source(op.program), op.mode, m.StaticHeap())
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: compile: %w", op.label, err)
	}
	if err := r.timed("load", &r.res.LoadS, func() error { return m.Load(prog) }); err != nil {
		return nil, fmt.Errorf("%s: load: %w", op.label, err)
	}
	return m, nil
}

// runTo runs m to op's checkpoint cycle, which must come before the
// program ends.
func (r *opRunner) runTo(op simOp, m *sim.Machine) error {
	var done bool
	if err := r.timed("run_window", &r.res.RunS, func() (err error) {
		done, err = m.RunWindow(op.ckptAt)
		return err
	}); err != nil {
		return fmt.Errorf("%s: run to checkpoint: %w", op.label, err)
	}
	if done || m.Now() != op.ckptAt {
		return fmt.Errorf("%s: run ended at cycle %d before checkpoint cycle %d", op.label, m.Now(), op.ckptAt)
	}
	return nil
}

// roundTrip writes m's image and restores it into a new machine, which
// must stand at the same cycle with the same run identity.
func (r *opRunner) roundTrip(op simOp, m *sim.Machine) (*sim.Machine, error) {
	hash, err := m.ConfigHash()
	if err != nil {
		return nil, fmt.Errorf("%s: config hash: %w", op.label, err)
	}
	cycle := m.Now()
	var img []byte
	if err := r.timed("snapshot", &r.res.SnapshotS, func() (err error) {
		img, err = m.Snapshot()
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: snapshot: %w", op.label, err)
	}
	r.res.ImageB = len(img)
	var restored *sim.Machine
	if err := r.timed("restore", &r.res.RestoreS, func() (err error) {
		restored, err = sim.Restore(img, sim.RestoreOverrides{})
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: restore: %w", op.label, err)
	}
	if got, err := restored.ConfigHash(); err != nil || got != hash || restored.Now() != cycle {
		return nil, fmt.Errorf("%s: restored machine at cycle %d (want %d), config hash %x (want %x), err %v",
			op.label, restored.Now(), cycle, got, hash, err)
	}
	return restored, nil
}

// setupOnly compiles, builds and loads op's machine and stops there.
func setupOnly(op simOp) opResult {
	res := opResult{Label: op.label}
	if _, err := (&opRunner{res: &res}).setup(op); err != nil {
		res.Err = err.Error()
	}
	return res
}

// probeImages builds op's machine, runs it to the checkpoint cycle, and
// then writes and restores its image at least minReps times and for at
// least probeTime, one result per round trip.
func probeImages(op simOp) []opResult {
	first := opResult{Label: op.label}
	r := &opRunner{res: &first}
	m, err := r.setup(op)
	if err == nil {
		err = r.runTo(op, m)
	}
	if err != nil {
		first.Err = err.Error()
		return []opResult{first}
	}
	var out []opResult
	for start := time.Now(); len(out) < minReps || time.Since(start) < probeTime; {
		res := opResult{Label: op.label}
		if _, err := (&opRunner{res: &res}).roundTrip(op, m); err != nil {
			res.Err = err.Error()
		}
		out = append(out, res)
	}
	return out
}

// runOps runs ops on the harness pool and returns their results in op
// order with the pool's occupancy.
func runOps(ops []simOp, workers int, traced bool, base time.Time) ([]opResult, harness.Occupancy) {
	// runOp records failures in its result, so MapOccupancy never sees
	// an error and every op runs.
	results, occ, _ := harness.MapOccupancy(workers, len(ops), func(i int) (opResult, error) {
		return runOp(ops[i], i+1, traced, base), nil
	})
	return results, occ
}
