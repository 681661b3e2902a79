// Package sim wires the full machine together — processors (package
// proc) over the multithreading engine (core), the run-time system
// (rts), and optionally the ALEWIFE memory system (cache + directory +
// network) — and drives all nodes in lockstep, one cycle at a time, as
// the paper's simulator does (Figure 4).
//
// Two memory configurations mirror the paper's methodology:
//
//   - Perfect memory (Alewife == nil): no cache or network, every
//     access completes immediately. "Measurements for multiple
//     processor executions on APRIL used the processor simulator
//     without the cache and network simulators, in effect simulating a
//     shared-memory machine with no memory latency" (Section 7). Table
//     3 is reproduced in this mode.
//
//   - ALEWIFE mode: per-node caches kept coherent by a full-map
//     directory over a k-ary n-cube network; remote misses force
//     context switches. Used for the Section 8 model validation.
package sim

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"april/internal/abi"
	"april/internal/core"
	"april/internal/fault"
	"april/internal/heap"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/trace"
)

// Config describes a machine.
type Config struct {
	Nodes       int
	Profile     rts.Profile
	Lazy        bool   // lazy task creation
	MemoryBytes uint32 // simulated physical memory (default 256 MB)
	MaxCycles   uint64 // simulation budget (default 4e9)
	Out         io.Writer

	// Alewife enables the full memory system; nil = perfect memory.
	Alewife *AlewifeConfig

	// Shards splits the machine's nodes into that many contiguous blocks
	// and runs them on parallel worker goroutines (conservative PDES with
	// per-cycle horizon barriers; see shard.go and DESIGN.md "Parallel
	// simulation"). Simulated results — cycle counts, Stats, answers —
	// are bit-identical for every shard count; the differential tests in
	// shard_test.go hold the sharded loop to that. <= 1 keeps the
	// sequential loop; values above Nodes are clamped. Forced to 1 when
	// Reference (the oracle loop is the point of that flag) or
	// Check (the invariant checkers read cross-node state on every
	// transition, which would race across shards) is set. No CLI or
	// facade option sets it: the tier never beat one shard on the torus
	// (one-cycle lookahead, one barrier per simulated cycle) and is
	// kept only until its differential tests can be retired.
	Shards int

	// ShardBatch is the minimum number of same-cycle work items (node
	// steps, fabric deliveries + dirty controllers) before a sharded
	// cycle's phase is dispatched to the workers; smaller cycles run
	// inline on the coordinating goroutine, where the handoff would cost
	// more than it buys. 0 means 8 per shard. Tests set 1 to force every
	// eligible cycle through the parallel phases.
	ShardBatch int

	// Reference selects the differential oracle: the per-cycle stepping
	// loop (one iteration per simulated cycle, visiting every node to
	// decrement its relative busy counter), the opcode-switch
	// interpreter, and the dense-scan cost profile (idle steal probe,
	// full network and controller scans). The default instead keeps
	// absolute wake cycles in a timing wheel, visits only the nodes due
	// at the current cycle, fast-forwards across provably uneventful
	// stretches, and dispatches through the predecoded flat tables.
	// Simulated results are bit-identical either way; the differential
	// tests assert this.
	Reference bool

	// DisableCompile turns off the third execution tier: profile-guided
	// fusion of hot basic blocks into superinstructions, executed in
	// bulk across isolated windows (see compile.go and proc.StepFused).
	// As with Reference, simulated results are bit-identical either
	// way; disabling leaves the predecoded per-op path as the
	// differential oracle for the compiled tier. The tier is implied
	// off by Reference (it runs over the predecoded image in the
	// work-proportional loops) and Check (the invariant checkers audit
	// at per-cycle watermarks the fused windows would cross).
	DisableCompile bool

	// CompileThreshold is how many times a block entry PC must execute
	// before it is translated (0 = isa.DefaultCompileThreshold).
	CompileThreshold int

	// DisableEpoch turns off the epoch engine (see epoch.go): multi-node
	// lockstep execution through the compiled tier across provably safe
	// horizons. As with the other tier knobs, simulated results are
	// bit-identical either way; disabling leaves the per-cycle stepping
	// of the same ops as the differential oracle for epoch windows. The
	// engine is implied off by anything that disarms the compiled tier
	// (Reference, DisableCompile, Check).
	DisableEpoch bool

	// Horizon caps the epoch engine's window length in cycles: 0 means
	// auto (windows bounded only by the provable safe horizon — the
	// next wake, network event, sampler boundary, or watchdog
	// watermark), and k >= 1 additionally caps every window at k
	// cycles. 1 therefore degenerates to per-cycle stepping (a 1-cycle
	// window cannot beat the per-cycle path and is never opened). A
	// test seam: the epoch differential tests sweep it to put window
	// ends at every alignment.
	Horizon uint64

	// Faults, when non-nil, arms the seeded perturbation plan: bounded
	// per-hop delay jitter, transient link stalls, and delayed directory
	// replies (see internal/fault). Timing shifts, results must not:
	// under any seed the simulated program computes the same answer,
	// only cycle counts may differ.
	Faults *fault.Config

	// Check enables the runtime invariant checkers (see check.go):
	// coherence state agreement on every protocol transition, full/empty
	// consistency at trap boundaries, scheduler thread conservation, and
	// message-pool ownership. Violations abort the run with a structured
	// crash report rather than panicking.
	Check bool

	// DeadlockWindow overrides how many cycles the machine may go
	// without retiring a single instruction before the watchdog declares
	// a deadlock (0 = the 3M-cycle default). Tests inducing wedges use a
	// short window to fail fast.
	DeadlockWindow uint64

	// SabotageCycle, when non-zero, deliberately corrupts scheduler
	// state at the given cycle (the lowest-ID live thread is marked dead
	// without being recycled, breaking thread conservation). It exists
	// so divergence-bisection tests have a run that is provably clean
	// before the cycle and provably violating after it; see
	// rts.(*Scheduler).CorruptThreadState and snapshot.go. Part of the
	// machine-defining configuration: it changes simulated state, so it
	// is embedded in snapshot images and included in the config hash.
	SabotageCycle uint64
}

// ErrDeadlock is returned when the machine stops making progress.
var ErrDeadlock = errors.New("sim: deadlock (no instruction retired for a long time)")

// Node is one ALEWIFE node: processor + runtime (+ cache controller in
// ALEWIFE mode).
type Node struct {
	Proc *proc.Processor
	RT   *rts.NodeRT
	busy int

	cache *cacheCtl // nil in perfect-memory mode

	// lastRetired is the cycle of this node's most recent instruction
	// retirement — per-node progress for the deadlock report (the
	// machine-wide watchdog only knows the newest retirement anywhere).
	lastRetired uint64
}

// Machine is a configured multiprocessor.
type Machine struct {
	Cfg    Config
	Mem    *mem.Memory
	Layout mem.Layout
	Sched  *rts.Scheduler
	Nodes  []*Node

	staticHeap *heap.Heap
	net        *netFabric // nil in perfect-memory mode
	now        uint64
	loaded     bool

	// compileOn reports that Load armed the fused-block tier on every
	// node; the run loops then try fusedStep (compile.go) whenever a
	// cycle has exactly one stepper. epochOn additionally arms the
	// multi-node epoch engine (epoch.go) for cycles with two or more
	// steppers; epochTel is its telemetry (see EpochStats).
	compileOn bool
	epochOn   bool
	epochTel  EpochStats

	// The work-proportional run loop's node scheduler (see wake.go):
	// nodes executing 1-cycle instructions live on the sorted running
	// list and step every cycle; nodes inside a multi-cycle operation
	// sleep in the wake queue keyed by absolute wake cycle. Unused by
	// the reference loop, which keeps the per-node relative busy
	// counters instead.
	running  []int // ascending node ids
	wakeq    wakeQueue
	dueBuf   []int // popDue scratch, reused across cycles
	mergeBuf []int // running+due merge scratch, reused across cycles

	// Observability (nil unless enabled; see observe.go).
	tracer     *trace.Tracer
	sampler    *trace.Sampler
	lastSample []proc.Stats // per-node stats at the previous sample

	// Robustness (see check.go, autopsy.go, internal/fault).
	plan           *fault.Plan    // nil unless Cfg.Faults armed a plan
	checker        *fault.Checker // nil unless Cfg.Check
	deadlockWin    uint64         // cycles without retirement before ErrDeadlock
	nextSchedCheck uint64         // next scheduler-conservation watermark
	nextWedgeCheck uint64         // next stuck-remote-op (livelock) scan

	// Sharded execution (see shard.go): the node partition (one block
	// per worker; a single block when unsharded), each node's shard, and
	// the lazily started worker pool.
	part    network.Partition
	shardOf []int32
	shr     *shardRunner

	// lastProgress is the cycle of the most recent instruction
	// retirement anywhere in the machine — the deadlock watchdog's
	// baseline. A Machine field (not a run-loop local) so detection
	// spans RunWindow boundaries: a windowed driver advancing 64K
	// cycles at a time still trips the watchdog after deadlockWin
	// cycles of no retirement, exactly as one long Run would.
	lastProgress uint64

	// Scheduled state events (see runEventful): whether the fault
	// plan's node wedge and the sabotage corruption have fired. Restore
	// rederives both from the image's cycle — an event has fired iff
	// now >= its cycle, which runEventful guarantees at every window
	// boundary.
	wedgeArmed bool
	sabotaged  bool

	// Checkpoint provenance for crash reports (see autopsy.go and
	// SetCheckpointInfo): the cycle of the most recent image written by
	// the checkpointing driver and the command line that resumes from
	// it.
	ckptValid bool
	ckptCycle uint64
	ckptCmd   string
}

// New builds a machine. Compile programs against StaticHeap(), then
// Load and Run.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 256 << 20
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 4_000_000_000
	}
	if cfg.Profile.Frames <= 0 {
		return nil, fmt.Errorf("sim: profile %q has no task frames", cfg.Profile.Name)
	}
	m := &Machine{Cfg: cfg}
	m.Mem = mem.New(cfg.MemoryBytes)
	m.Layout = mem.DefaultLayout(cfg.MemoryBytes)
	if err := m.Layout.Validate(); err != nil {
		return nil, err
	}
	m.staticHeap = heap.New(m.Mem, mem.NewArena(m.Layout.StaticBase, m.Layout.StaticEnd))

	stackArena := mem.NewArena(m.Layout.StackBase, m.Layout.StackEnd)
	heapArena := mem.NewArena(m.Layout.HeapStart, m.Layout.End)
	prof := cfg.Profile
	m.Sched = rts.NewScheduler(m.Mem, &prof, cfg.Lazy, cfg.Nodes, stackArena, heapArena, cfg.Out)
	// The reference cost profile keeps every O(machine size) scan the
	// pre-overhaul loop paid, including the idle steal probe.
	m.Sched.ScanSteal = cfg.Reference

	// The fault plan and checker must exist before initAlewife wires the
	// fabric: the network backends and cache controllers capture them at
	// construction.
	if cfg.Faults != nil {
		m.plan = fault.NewPlan(*cfg.Faults)
	}
	if cfg.Check {
		m.checker = fault.NewChecker(&m.now)
	}
	m.deadlockWin = cfg.DeadlockWindow
	if m.deadlockWin == 0 {
		m.deadlockWin = deadlockWindow
	}
	m.nextSchedCheck = schedCheckInterval
	m.nextWedgeCheck = wedgeInterval

	// The shard layout exists for every machine (a single block when
	// unsharded) so the fabric's dirty buckets need no special cases.
	// It is fixed before initAlewife, which wires it into the fabric.
	// The oracle loop and the invariant checkers force one shard: the
	// former is the sequential reference by definition, the latter read
	// cross-node state on every protocol transition.
	shards := cfg.Shards
	if cfg.Reference || cfg.Check {
		shards = 1
	}
	m.part = network.ComputePartition(cfg.Nodes, shards)
	m.shardOf = make([]int32, cfg.Nodes)
	for s := 0; s < m.part.Shards(); s++ {
		lo, hi := m.part.Block(s)
		for i := lo; i < hi; i++ {
			m.shardOf[i] = int32(s)
		}
	}

	if cfg.Alewife != nil {
		if err := m.initAlewife(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		engine := core.NewEngine(prof.Frames, prof.SwitchCycles)
		nrt, err := rts.NewNodeRT(m.Sched, i)
		if err != nil {
			return nil, err
		}
		nrt.Check = m.checker
		var port proc.MemPort = &proc.PerfectPort{Mem: m.Mem}
		if cfg.Alewife != nil {
			port = m.newCachePort(i)
		}
		p := proc.New(i, engine, nil, port)
		p.Handler = nrt
		node := &Node{Proc: p, RT: nrt}
		if cp, ok := port.(*cacheCtl); ok {
			node.cache = cp
		}
		p.IO = &ioCtl{m: m, node: i, ctl: node.cache}
		m.Nodes = append(m.Nodes, node)

		// Initialize the per-processor global registers: allocation
		// chunk and node id.
		base, limit, err := m.Sched.HeapChunk(0)
		if err != nil {
			return nil, err
		}
		engine.Globals[isa.GAllocPtr-isa.NumFrameRegs] = isa.Word(base)
		engine.Globals[isa.GAllocLimit-isa.NumFrameRegs] = isa.Word(limit)
		engine.Globals[isa.GSelf-isa.NumFrameRegs] = isa.MakeFixnum(int32(i))
	}
	m.wakeq.init(cfg.Nodes)
	m.running = make([]int, cfg.Nodes)
	for i := range m.running {
		m.running[i] = i
	}
	m.dueBuf = make([]int, 0, cfg.Nodes)
	m.mergeBuf = make([]int, 0, cfg.Nodes)
	return m, nil
}

// StaticHeap is where the compiler places quoted data and globals.
func (m *Machine) StaticHeap() *heap.Heap { return m.staticHeap }

// Load installs the program and creates the main thread on node 0.
func (m *Machine) Load(prog *isa.Program) error {
	taskExit, ok1 := prog.Symbols[abi.SymTaskExit]
	mainExit, ok2 := prog.Symbols[abi.SymMainExit]
	if !ok1 || !ok2 {
		return fmt.Errorf("sim: program lacks runtime stubs (%s/%s)", abi.SymTaskExit, abi.SymMainExit)
	}
	m.Sched.TaskExitPC = taskExit
	m.Sched.MainExitPC = mainExit
	for _, n := range m.Nodes {
		n.Proc.Prog = prog
	}
	if !m.Cfg.Reference {
		// One predecoded image, shared read-only by every node.
		micro := prog.Predecode()
		for _, n := range m.Nodes {
			n.Proc.SetMicro(micro)
		}
		if !m.Cfg.DisableCompile && !m.Cfg.Check {
			// Arm the compiled tier: one block-translation set over the
			// shared image (profiled and translated only on the
			// coordinating goroutine), sized here so steady state
			// allocates nothing. Memory ops fuse only on perfect memory
			// — in ALEWIFE mode a miss inside a fused window would
			// stamp network messages mid-window.
			bs := isa.NewBlockSet(micro, m.Cfg.CompileThreshold, m.Cfg.Alewife == nil)
			for _, n := range m.Nodes {
				n.Proc.SetCompile(bs, &m.Sched.MainDone)
			}
			m.compileOn = true
			if m.Cfg.Alewife != nil {
				// ALEWIFE blocks exclude memory ops, but the clock-free
				// cache-hit port lets both the per-op superinstruction
				// path and epoch windows cross plain cached accesses.
				for _, n := range m.Nodes {
					n.Proc.SetHitPort(n.cache)
				}
			}
			// The epoch engine rides on the compiled tier: multi-node
			// lockstep windows execute exclusively epoch-safe fused ops.
			m.epochOn = !m.Cfg.DisableEpoch
		}
	}
	main := m.Sched.NewThread(0)
	main.PC = prog.Entry
	main.NPC = prog.Entry + 1
	main.Regs[isa.RLink] = isa.MakeFixnum(int32(mainExit))
	if m.Cfg.Profile.HardwareFutures {
		main.PSR = core.PSRFutureTrap
	}
	m.Sched.PushReady(main)
	m.loaded = true
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Cycles    uint64
	Value     isa.Word
	Formatted string
}

// deadlockWindow is how many cycles the machine may go without retiring
// a single instruction before Run declares a deadlock
// (Config.DeadlockWindow overrides it).
const deadlockWindow = 3_000_000

// The livelock watchdog distinguishes "nothing retires" (deadlock) from
// "instructions retire but a remote operation never completes". Every
// wedgeInterval cycles it scans outstanding misses; one older than
// wedgeWindow — far beyond any protocol bound, which is tens of cycles
// per hop — means the memory system wedged while processors spin.
const (
	wedgeInterval = 65_536
	wedgeWindow   = 1_000_000
)

// Run drives the machine until the main thread exits. Calling Run
// after the program already completed (e.g. under RunWindow) returns
// the final Result immediately.
func (m *Machine) Run() (Result, error) {
	if !m.loaded {
		return Result{}, errors.New("sim: no program loaded")
	}
	hit, err := m.runEventful(m.Cfg.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	if hit {
		return Result{}, m.crash(fault.ReasonBudget,
			fmt.Errorf("sim: exceeded cycle budget %d", m.Cfg.MaxCycles))
	}
	if m.checker != nil {
		// End-of-run sweep: audit every block the machine still holds
		// plus final thread conservation.
		m.auditFinal()
		if m.checker.Total() > 0 {
			return Result{}, m.crash(fault.ReasonInvariant, m.checker.Err())
		}
	}
	return m.finish(), nil
}

// RunWindow advances the machine by at most n cycles, stopping early
// when the main thread exits, and reports whether the program
// completed. It is the measurement entry point: allocation-regression
// tests drive a steady-state window at a time inside
// testing.AllocsPerRun, and the introspection server (internal/obs)
// interleaves windows with snapshot requests. Deadlock detection spans
// windows — the last-retirement baseline lives on the Machine — so a
// windowed driver trips the watchdog exactly as one long Run would.
// After RunWindow reports done, call Run to obtain the final Result
// (it returns immediately).
func (m *Machine) RunWindow(n uint64) (bool, error) {
	if !m.loaded {
		return false, errors.New("sim: no program loaded")
	}
	if m.Sched.MainDone {
		return true, nil
	}
	limit := m.now + n
	if limit > m.Cfg.MaxCycles {
		limit = m.Cfg.MaxCycles
	}
	hit, err := m.runEventful(limit)
	if err != nil {
		return false, err
	}
	if hit && m.now >= m.Cfg.MaxCycles {
		return false, m.crash(fault.ReasonBudget,
			fmt.Errorf("sim: exceeded cycle budget %d", m.Cfg.MaxCycles))
	}
	return m.Sched.MainDone, nil
}

// runGuarded invokes the selected run loop behind a recover barrier
// that converts runtime memory faults — *mem.Fault panics from the
// Must* accessors — into a structured crash report. Any other panic
// propagates unchanged: those are simulator bugs and should keep their
// stack traces.
func (m *Machine) runGuarded(limit uint64) (hit bool, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		f, ok := r.(*mem.Fault)
		if !ok {
			panic(r)
		}
		hit = false
		err = m.crash(fault.ReasonMemFault, f)
	}()
	if m.Cfg.Reference {
		return m.runReferenceUntil(limit)
	}
	if m.part.Shards() > 1 {
		return m.runShardedUntil(limit)
	}
	return m.runFastUntil(limit)
}

// nextStateEvent returns the cycle of the earliest pending scheduled
// state event — fault-plan wedge arming, sabotage corruption — or
// ^uint64(0) when none is pending.
func (m *Machine) nextStateEvent() uint64 {
	next := ^uint64(0)
	if m.plan != nil && !m.wedgeArmed && m.plan.WedgePending() {
		if c := m.plan.Config().WedgeAtCycle; c < next {
			next = c
		}
	}
	if m.Cfg.SabotageCycle > 0 && !m.sabotaged && m.Cfg.SabotageCycle < next {
		next = m.Cfg.SabotageCycle
	}
	return next
}

// fireStateEvents applies every scheduled state event due at or before
// m.now. Only ever called between runGuarded slices — never mid-cycle —
// so the mutations land at an exact cycle boundary in every execution
// tier (all run loops stop exactly at their limit), and a snapshot
// taken at any window boundary satisfies: event fired iff
// now >= event cycle.
func (m *Machine) fireStateEvents() {
	if m.plan != nil && !m.wedgeArmed && m.plan.WedgePending() && m.now >= m.plan.Config().WedgeAtCycle {
		m.armWedge()
	}
	if m.Cfg.SabotageCycle > 0 && !m.sabotaged && m.now >= m.Cfg.SabotageCycle {
		m.sabotaged = true
		m.Sched.CorruptThreadState()
	}
}

// armWedge fires the fault plan's scheduled node wedge: every torus
// output channel owned by the wedge node becomes permanently stalled.
// The ideal network has no channels to stall, so there the wedge arms
// as a no-op (matching StallLinks, which it generalizes).
func (m *Machine) armWedge() {
	m.wedgeArmed = true
	var chans []int
	if m.net != nil {
		if t, ok := m.net.net.(*network.Torus); ok {
			chans = t.NodeChannels(m.plan.Config().WedgeNode)
		}
	}
	m.plan.ArmWedge(chans)
}

// runEventful drives runGuarded in slices bounded by the next scheduled
// state event, firing each event exactly at its cycle. With no events
// pending (the overwhelmingly common case) the first slice covers the
// whole limit and this is a single runGuarded call.
func (m *Machine) runEventful(limit uint64) (hit bool, err error) {
	for {
		sub := limit
		if ev := m.nextStateEvent(); ev < sub {
			sub = ev
		}
		hit, err = m.runGuarded(sub)
		if err != nil || !hit {
			return hit, err
		}
		// The slice ran its full span: m.now >= sub. Fire anything due
		// here, then either hand back at the caller's limit or continue.
		m.fireStateEvents()
		if sub >= limit {
			return true, nil
		}
	}
}

// deadlockErr builds the deadlock error: the machine-wide counts the
// one-line error always carried, extended with per-node ready/blocked
// occupancy and each node's last retirement cycle so the wedge can be
// localized from the message alone.
func (m *Machine) deadlockErr() error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d threads live, %d ready, %d blocked",
		m.Sched.LiveThreads(), m.Sched.ReadyCount(), m.Sched.BlockedCount())
	blocked := make([]int, len(m.Nodes))
	m.Sched.BlockedByNode(blocked)
	for i, n := range m.Nodes {
		fmt.Fprintf(&b, "; node %d: %d ready, %d blocked, last retired @%d",
			i, m.Sched.ReadyOn(i), blocked[i], n.lastRetired)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}

// checkWedge is the livelock watchdog: it scans each node's outstanding
// remote operations for one stuck beyond wedgeWindow. Selection is
// deterministic (first node ascending; within a node, the oldest miss,
// ties broken by smallest block) so both run loops report identically.
func (m *Machine) checkWedge() error {
	for _, n := range m.Nodes {
		if n.cache == nil {
			continue
		}
		var worstBlock uint32
		var worstAge uint64
		found := false
		n.cache.pending.ForEach(func(block uint32, ms missState) {
			age := m.net.now - ms.start
			if age < wedgeWindow {
				return
			}
			if !found || age > worstAge || (age == worstAge && block < worstBlock) {
				found, worstBlock, worstAge = true, block, age
			}
		})
		if found {
			return m.crash(fault.ReasonLivelock, fmt.Errorf(
				"sim: livelock: node %d remote operation on block %#x outstanding for %d cycles",
				n.Proc.ID, worstBlock, worstAge))
		}
	}
	return nil
}

// watchdogs runs the per-cycle end-of-cycle checks shared by both run
// loops: invariant-violation poll, scheduler-conservation watermark,
// livelock scan, and the no-retirement deadlock window. A nil return
// means keep running.
func (m *Machine) watchdogs() error {
	if m.checker != nil {
		if m.checker.Total() > 0 {
			return m.crash(fault.ReasonInvariant, m.checker.Err())
		}
		if m.now >= m.nextSchedCheck {
			m.checkSched()
			m.nextSchedCheck = m.now + schedCheckInterval
			if m.checker.Total() > 0 {
				return m.crash(fault.ReasonInvariant, m.checker.Err())
			}
		}
	}
	if m.net != nil && m.now >= m.nextWedgeCheck {
		if err := m.checkWedge(); err != nil {
			return err
		}
		m.nextWedgeCheck = m.now + wedgeInterval
	}
	// A fused window can leave lastProgress ahead of m.now (the window's
	// last retirement lies in cycles the loop has not yet swept past);
	// progress in the future is progress, so only fire once m.now has
	// moved deadlockWin cycles beyond it.
	if m.now > m.lastProgress && m.now-m.lastProgress > m.deadlockWin {
		return m.crash(fault.ReasonDeadlock, m.deadlockErr())
	}
	return nil
}

// runReferenceUntil is the oracle loop: one iteration per simulated
// cycle, visiting every node to decrement its relative busy counter or
// Step it. The work-proportional loop (runFastUntil) must stay
// bit-identical to this one — the differential tests in
// fastforward_test.go hold the two to that. It returns hitLimit=true
// when m.now reaches limit before the main thread exits.
func (m *Machine) runReferenceUntil(limit uint64) (hitLimit bool, err error) {
	// Deadlock detection is incremental: m.lastProgress tracks the last
	// cycle any node retired an instruction (updated per Step from the
	// per-node retirement counters, so no periodic all-node stats scan
	// — and no scan points the fast-forward jumps could miss).
	for !m.Sched.MainDone {
		// Close the sampling window before executing its boundary cycle,
		// so rows land at identical cycles with or without fast-forward.
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
		if m.now >= limit {
			return true, nil
		}
		for _, n := range m.Nodes {
			if n.busy > 0 {
				n.busy--
				continue
			}
			retired := n.Proc.Stats.Instructions
			c, err := n.Proc.Step()
			if err != nil {
				return false, fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
			}
			if c > 1 {
				n.busy = c - 1
			}
			if n.Proc.Stats.Instructions != retired {
				m.lastProgress = m.now
				n.lastRetired = m.now
			}
			if m.Sched.MainDone {
				break
			}
		}
		if m.net != nil {
			m.net.tick()
		}
		m.now++

		if err := m.watchdogs(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// runFastUntil is the work-proportional loop: nodes executing 1-cycle
// instructions step every cycle off the sorted running list, nodes
// inside a multi-cycle operation sleep in a min-queue keyed by
// absolute wake cycle, and whole stretches where nothing can happen
// are crossed in one fastForwardUntil jump. Each iteration visits only
// the nodes that actually step. Step order within a cycle is ascending
// node id, exactly as in runReferenceUntil (the running list and the
// due set are disjoint ascending sequences; their merge preserves
// order). It returns hitLimit=true when m.now reaches limit before the
// main thread exits.
func (m *Machine) runFastUntil(limit uint64) (hitLimit bool, err error) {
	for !m.Sched.MainDone {
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
		if m.now >= limit {
			return true, nil
		}
		jumpLimit := limit
		// Never jump past a sampling boundary: capping a skip shorter
		// cannot change simulated state (skips compose), it only makes
		// the sampler observe it.
		if m.sampler != nil && m.sampler.NextBoundary() < jumpLimit {
			jumpLimit = m.sampler.NextBoundary()
		}
		m.fastForwardUntil(jumpLimit)
		// A capped jump can land exactly on the boundary; the reference
		// loop samples before executing that cycle, so match it here
		// rather than waiting for the next iteration's top-of-loop check.
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
		// Likewise a jump can land exactly on the limit; the reference
		// loop stops before executing that cycle, so match it.
		if m.now >= limit {
			return true, nil
		}
		due := m.dueBuf[:0]
		if m.wakeq.next() <= m.now {
			due = m.wakeq.popDue(m.now, due)
		}
		m.dueBuf = due
		steps := m.running
		switch {
		case len(due) == 0:
		case len(m.running) == 0:
			steps = due
		default:
			m.mergeBuf = mergeSorted(m.mergeBuf[:0], m.running, due)
			steps = m.mergeBuf
		}
		// Rebuild the running list as we go: 1-cycle nodes stay on it,
		// multi-cycle ones move to the wake queue. In-place compaction is
		// safe when steps aliases m.running (writes never pass reads).
		keep := m.running[:0]
		if m.compileOn && len(steps) == 1 {
			// Exactly one stepper: try to run its compiled tier across
			// the whole isolated window (see compile.go).
			used, err := m.fusedStep(steps[0], limit, &keep)
			if err != nil {
				return false, err
			}
			if used {
				steps = nil
			}
		} else if m.epochOn && len(steps) > 1 {
			// Two or more steppers: try a lockstep epoch window across
			// the group's safe horizon (see epoch.go).
			si, epochFull := m.epochWindow(steps, limit)
			if epochFull {
				// Whole window committed: every stepper ran 1-cycle ops,
				// so the running list's content is unchanged and the
				// fabric already replayed its no-op ticks.
				m.running = append(keep, steps...)
				if err := m.watchdogs(); err != nil {
					return false, err
				}
				continue
			}
			// Mid-epoch fallback (or no window): steps[:si] already
			// stepped in the current cycle; finish it per-op below.
			keep = append(keep, steps[:si]...)
			steps = steps[si:]
		}
		for _, id := range steps {
			n := m.Nodes[id]
			retired := n.Proc.Stats.Instructions
			c, err := n.Proc.Step()
			if err != nil {
				return false, fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
			}
			if c > 1 {
				// busy = c-1 in the reference loop means the node next
				// Steps c cycles from now.
				m.wakeq.push(id, m.now+uint64(c))
			} else {
				keep = append(keep, id)
			}
			if n.Proc.Stats.Instructions != retired {
				m.lastProgress = m.now
				n.lastRetired = m.now
			}
			if m.Sched.MainDone {
				break
			}
		}
		m.running = keep
		if m.net != nil {
			m.net.tick()
		}
		m.now++

		if err := m.watchdogs(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// finish closes the final sampling window and packages the result.
func (m *Machine) finish() Result {
	if m.sampler != nil {
		// Final partial window: the series now sums to the end-of-run
		// Stats exactly.
		m.sample()
	}
	v := m.Sched.MainResult
	return Result{
		Cycles:    m.now,
		Value:     v,
		Formatted: m.Nodes[0].RT.Heap.Format(v),
	}
}

// fastForwardUntil advances simulated time across cycles that are
// provably uneventful, never past limit. Until the earliest scheduled
// wake, no node Steps; and when the memory fabric's next event lies
// beyond that, the per-cycle ticks in between are no-ops too. The
// reference loop spends one iteration per such cycle (decrement each
// busy counter, tick the idle network); this jumps m.now to the next
// cycle where anything can happen in one step. Simulated state after
// the jump is bit-identical to stepping cycle by cycle — the
// differential tests in fastforward_test.go hold the two loops to
// that.
func (m *Machine) fastForwardUntil(limit uint64) {
	if len(m.running) > 0 {
		return // a running node Steps on the current cycle
	}
	next := m.wakeq.next()
	if next <= m.now {
		return // a sleeping node wakes on the current cycle
	}
	skip := next - m.now
	if m.net != nil {
		// Ticks run with the fabric clock at m.now+1 .. m.now+skip; all
		// of them must end strictly before the fabric's next event.
		ne := m.net.nextEvent()
		if ne <= m.now+1 {
			return
		}
		if d := ne - m.now - 1; d < skip {
			skip = d
		}
	}
	// Land exactly on limit at most: the callers stop (cycle window) or
	// error out (cycle budget) there without executing that cycle.
	if rem := limit - m.now; skip > rem {
		skip = rem
	}
	if skip == 0 {
		return
	}
	if m.net != nil {
		m.net.advance(skip)
	}
	m.now += skip
}

// Now returns the current simulated cycle.
func (m *Machine) Now() uint64 { return m.now }

// KindTotals sums the per-MicroKind dispatch counters across nodes:
// the machine's opcode mix, keyed by handler-kind name. All three
// execution tiers maintain the counters identically, so the mix is
// comparable across interpreter/predecode/compiled runs; the compiled
// tier's profile-guided translation is driven by exactly this
// distribution (per block-entry PC).
func (m *Machine) KindTotals() map[string]uint64 {
	out := make(map[string]uint64, isa.NumMicroKinds)
	for k := 0; k < isa.NumMicroKinds; k++ {
		var s uint64
		for _, n := range m.Nodes {
			s += n.Proc.Kinds[k]
		}
		out[isa.MicroKind(k).String()] = s
	}
	return out
}

// TotalStats sums the processor statistics across nodes.
func (m *Machine) TotalStats() proc.Stats {
	var s proc.Stats
	for _, n := range m.Nodes {
		ns := n.Proc.Stats
		s.Instructions += ns.Instructions
		s.UsefulCycles += ns.UsefulCycles
		s.WaitCycles += ns.WaitCycles
		s.TrapCycles += ns.TrapCycles
		s.IdleCycles += ns.IdleCycles
		s.LoadCount += ns.LoadCount
		s.StoreCount += ns.StoreCount
		for i := range ns.Traps {
			s.Traps[i] += ns.Traps[i]
		}
	}
	return s
}
