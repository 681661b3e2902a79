package sim

// Deterministic checkpoint/restore: Snapshot serializes the complete
// simulated state of a machine at a cycle boundary into a versioned,
// checksummed image (container format: internal/snapshot); Restore
// rebuilds a machine from one that provably continues bit-identically.
//
// The dividing line the encoders follow everywhere: *simulated* state
// — anything a program, a checker, or a later cycle can observe —
// round-trips exactly; *host-side* state — scratch buffers, freelists,
// dirty sets, derived indices, telemetry of the host's own performance
// — is reconstructed from the simulated state instead. That is what
// lets one image restore under any execution tier (reference,
// predecoded, compiled, epoch, sharded): the tiers share simulated
// semantics and differ only in host bookkeeping.
//
// An image is self-contained. It embeds the program (instructions via
// isa.Encode, symbols, entry) and the machine-defining configuration —
// node count, cost profile, memory size, ALEWIFE parameters, fault
// plan, sabotage cycle — and the FNV-64a hash of that identity section
// is the header's config hash: two images restore into the same run
// iff their hashes match, which is how the divergence bisector pairs
// checkpoints without decoding them. Host knobs (tier selection,
// shards, Check, output writer) are deliberately NOT part of identity:
// restoring under a different tier than the one that wrote the image
// is the point.
//
// Not captured, by design:
//   - trace ring contents and sampler rows (host-side flight-recorder
//     windows; the rings' event counters and the sampler's window
//     boundary round-trip as cursors, see internal/trace/snapshot.go)
//   - host telemetry: fused/epoch counters restart at zero
//   - the static heap cursor (compile-time state; programs are loaded
//     from the image, never recompiled into the restored machine)

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"april/internal/cache"
	"april/internal/core"
	"april/internal/directory"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/snapshot"
)

// Snapshot serializes the machine into a self-contained image. It must
// be called at a cycle boundary — after New+Load, or between Run /
// RunWindow slices — never from inside a running machine.
func (m *Machine) Snapshot() ([]byte, error) {
	if !m.loaded {
		return nil, errors.New("sim: cannot snapshot before Load")
	}
	w := snapshot.NewWriter(1 << 16)
	m.encodeIdentity(w)
	idLen := w.Len()
	m.encodeState(w)
	payload := w.Bytes()
	return snapshot.Seal(payload, snapshot.Hash(payload[:idLen]), m.now), nil
}

// ConfigHash returns the machine's run identity: the hash a Snapshot
// would carry in its header. Two machines share it iff they run the
// same program under the same machine-defining configuration.
func (m *Machine) ConfigHash() (uint64, error) {
	if !m.loaded {
		return 0, errors.New("sim: cannot hash config before Load")
	}
	w := snapshot.NewWriter(1 << 12)
	m.encodeIdentity(w)
	return snapshot.Hash(w.Bytes()), nil
}

// RestoreOverrides are the host-side knobs a restored machine takes
// from the caller rather than the image: how to execute, not what to
// execute. The zero value restores at full speed — all tiers armed,
// unsharded, no checkers, no tracing.
type RestoreOverrides struct {
	Out io.Writer

	Reference        bool // reference loops (DisableFastForward + DisablePredecode)
	DisableCompile   bool
	DisableEpoch     bool
	CompileThreshold int
	Shards           int
	ShardBatch       int
	Check            bool

	Trace            bool   // attach an event tracer (cursors continue from the image)
	Timeline         bool   // attach the activity sampler
	TimelineInterval uint64 // sampler window (0 = default)
}

// Restore rebuilds a machine from a Snapshot image. The returned
// machine continues from the image's cycle bit-identically to the
// machine that wrote it, under any overrides (tier choice never
// affects simulated results; the snapshot differential tests hold
// restore to that). Corrupted, truncated, or version-mismatched images
// fail with structured errors wrapping the internal/snapshot
// sentinels.
func Restore(img []byte, ov RestoreOverrides) (*Machine, error) {
	hdr, r, err := snapshot.Open(img)
	if err != nil {
		return nil, err
	}
	cfg, prog := decodeIdentity(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	cfg.Out = ov.Out
	cfg.DisableFastForward = ov.Reference
	cfg.DisablePredecode = ov.Reference
	cfg.DisableCompile = ov.DisableCompile
	cfg.DisableEpoch = ov.DisableEpoch
	cfg.CompileThreshold = ov.CompileThreshold
	cfg.Shards = ov.Shards
	cfg.ShardBatch = ov.ShardBatch
	cfg.Check = ov.Check
	// The identity decoded cleanly, so a machine New or Load rejects
	// means the image itself is corrupt.
	m, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	if err := m.Load(prog); err != nil {
		return nil, fmt.Errorf("%w: %w", snapshot.ErrCorrupt, err)
	}
	if ov.Trace {
		m.EnableTracing(0)
	}
	if ov.Timeline {
		m.EnableTimeline(ov.TimelineInterval)
	}
	if err := m.decodeState(r); err != nil {
		return nil, err
	}
	if m.now != hdr.Cycle {
		return nil, fmt.Errorf("%w: header cycle %d, payload cycle %d", snapshot.ErrCorrupt, hdr.Cycle, m.now)
	}
	return m, nil
}

// AuditNow runs the full invariant sweep — every directory entry,
// every cached line, thread conservation — at the machine's current
// cycle and reports the first new violation as a CrashError (with
// autopsy report), or nil when the machine is clean. It is the
// divergence bisector's predicate; it requires a machine built with
// Config.Check.
func (m *Machine) AuditNow() error {
	if m.checker == nil {
		return errors.New("sim: AuditNow requires a machine built with Config.Check")
	}
	before := m.checker.Total()
	m.auditFinal()
	if m.checker.Total() > before {
		return m.crash(fault.ReasonInvariant, m.checker.Err())
	}
	return nil
}

// SetCheckpointInfo records the most recent checkpoint's cycle and the
// command line that resumes from it, for crash reports (autopsy.go):
// a run that dies after this call tells the user exactly how far back
// recovery starts and how to invoke it.
func (m *Machine) SetCheckpointInfo(cycle uint64, restoreCmd string) {
	m.ckptValid = true
	m.ckptCycle = cycle
	m.ckptCmd = restoreCmd
}

// ===========================================================================
// Identity: program + machine-defining configuration. Everything here
// is covered by the header's config hash. Host knobs (tiers, shards,
// Check, Out) are intentionally absent.
// ===========================================================================

func (m *Machine) encodeIdentity(w *snapshot.Writer) {
	cfg := &m.Cfg
	w.Int(cfg.Nodes)
	encodeProfile(w, &cfg.Profile)
	w.Bool(cfg.Lazy)
	w.U32(cfg.MemoryBytes)
	w.U64(cfg.MaxCycles)
	w.U64(cfg.DeadlockWindow)
	w.U64(cfg.SabotageCycle)
	w.Bool(cfg.Alewife != nil)
	if a := cfg.Alewife; a != nil {
		w.U32(a.Cache.SizeBytes)
		w.U32(a.Cache.BlockBytes)
		w.Int(a.Cache.Assoc)
		w.Int(a.MemLatency)
		w.Int(a.Geometry.Dim)
		w.Int(a.Geometry.Radix)
		w.Bool(a.IdealNet)
		w.Int(a.IdealLat)
		w.Int(a.PollCycles)
	}
	w.Bool(cfg.Faults != nil)
	if f := cfg.Faults; f != nil {
		w.U64(f.Seed)
		w.Int(f.MaxHopJitter)
		w.Int(f.StallEvery)
		w.Int(f.StallCycles)
		w.Int(f.MaxReplyDelay)
		w.Ints(f.StallLinks)
		w.U64(f.WedgeAtCycle)
		w.Int(f.WedgeNode)
	}

	prog := m.Nodes[0].Proc.Prog
	w.U32(prog.Entry)
	w.Count(len(prog.Code))
	for _, inst := range prog.Code {
		w.U64(isa.Encode(inst))
	}
	syms := make([]string, 0, len(prog.Symbols))
	for name := range prog.Symbols {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	w.Count(len(syms))
	for _, name := range syms {
		w.String(name)
		w.U32(prog.Symbols[name])
	}
}

func decodeIdentity(r *snapshot.Reader) (Config, *isa.Program) {
	var cfg Config
	cfg.Nodes = r.Int()
	decodeProfile(r, &cfg.Profile)
	cfg.Lazy = r.Bool()
	cfg.MemoryBytes = r.U32()
	cfg.MaxCycles = r.U64()
	cfg.DeadlockWindow = r.U64()
	cfg.SabotageCycle = r.U64()
	if r.Bool() {
		a := &AlewifeConfig{}
		a.Cache.SizeBytes = r.U32()
		a.Cache.BlockBytes = r.U32()
		a.Cache.Assoc = r.Int()
		a.MemLatency = r.Int()
		a.Geometry.Dim = r.Int()
		a.Geometry.Radix = r.Int()
		a.IdealNet = r.Bool()
		a.IdealLat = r.Int()
		a.PollCycles = r.Int()
		cfg.Alewife = a
	}
	if r.Bool() {
		f := &fault.Config{}
		f.Seed = r.U64()
		f.MaxHopJitter = r.Int()
		f.StallEvery = r.Int()
		f.StallCycles = r.Int()
		f.MaxReplyDelay = r.Int()
		f.StallLinks = r.Ints("stall links")
		f.WedgeAtCycle = r.U64()
		f.WedgeNode = r.Int()
		cfg.Faults = f
	}
	if cfg.Nodes <= 0 || cfg.Nodes > 1<<20 {
		r.Corrupt("node count %d out of range", cfg.Nodes)
		return cfg, nil
	}
	if checkImageRoom(r, &cfg); r.Err() != nil {
		return cfg, nil
	}

	prog := &isa.Program{Entry: r.U32()}
	ninst := r.Count("instructions")
	prog.Code = make([]isa.Inst, 0, ninst)
	for i := 0; i < ninst; i++ {
		inst, err := isa.Decode(r.U64())
		if err != nil {
			r.Corrupt("instruction %d: %v", i, err)
			return cfg, nil
		}
		prog.Code = append(prog.Code, inst)
	}
	nsym := r.Count("symbols")
	prog.Symbols = make(map[string]uint32, nsym)
	for i := 0; i < nsym; i++ {
		name := r.String()
		prog.Symbols[name] = r.U32()
	}
	if int(prog.Entry) >= len(prog.Code) && r.Err() == nil {
		r.Corrupt("entry %d outside program of %d instructions", prog.Entry, len(prog.Code))
	}
	return cfg, prog
}

// Floors on what the state encoders write per unit of machine: each
// task frame (registers, PC, NPC, PSR, thread id), each cache slot
// (tag, state, dirty bit, LRU stamp), each torus channel (transmit
// countdown, queue length), and each network node (inbox length).
const (
	frameImageBytes   = 4*isa.NumFrameRegs + 4 + 4 + 4 + 8
	slotImageBytes    = 4 + 1 + 1 + 8
	channelImageBytes = 8 + 4
	inboxImageBytes   = 4
)

// checkImageRoom rejects an identity describing a machine whose state
// could not fit in the rest of the image. Restore builds the machine
// before decoding its state, so without this check an image declaring
// a huge frame count, cache, or torus would allocate all of it before
// failing. Geometry validity itself is left to New.
func checkImageRoom(r *snapshot.Reader, cfg *Config) {
	room := uint64(r.Remaining())
	perNode := room / uint64(cfg.Nodes)
	if f := cfg.Profile.Frames; f < 1 || uint64(f) > perNode/frameImageBytes {
		r.Corrupt("%d nodes of %d task frames do not fit in %d bytes", cfg.Nodes, f, room)
		return
	}
	a := cfg.Alewife
	if a == nil {
		return
	}
	cc := a.Cache
	if cc == (cache.Config{}) {
		cc = cache.DefaultConfig()
	}
	if cc.BlockBytes > 0 && uint64(cc.SizeBytes/cc.BlockBytes) > perNode/slotImageBytes {
		r.Corrupt("%d nodes of %d-byte caches do not fit in %d bytes", cfg.Nodes, cc.SizeBytes, room)
		return
	}
	g := a.Geometry
	if g.Dim < 1 || g.Radix < 1 {
		return // zero means fitted to the node count; anything else New rejects
	}
	if g.Dim > 64 {
		// Beyond 64 dimensions a radix of 2 already overflows the node
		// count, and radix 1 is a single node.
		r.Corrupt("%d-dimensional network", g.Dim)
		return
	}
	perGeoNode := uint64(inboxImageBytes)
	if !a.IdealNet {
		perGeoNode += 2 * uint64(g.Dim) * channelImageBytes
	}
	geoNodes := uint64(1)
	for i := 0; i < g.Dim; i++ {
		if geoNodes *= uint64(g.Radix); geoNodes > room/perGeoNode {
			r.Corrupt("network of radix %d and dimension %d does not fit in %d bytes", g.Radix, g.Dim, room)
			return
		}
	}
}

func encodeProfile(w *snapshot.Writer, p *rts.Profile) {
	w.String(p.Name)
	w.Int(p.Frames)
	w.Bool(p.HardwareFutures)
	for _, v := range profileCosts(p) {
		w.Int(*v)
	}
}

func decodeProfile(r *snapshot.Reader, p *rts.Profile) {
	p.Name = r.String()
	p.Frames = r.Int()
	p.HardwareFutures = r.Bool()
	for _, v := range profileCosts(p) {
		*v = r.Int()
	}
}

// profileCosts enumerates the profile's integer cost fields in a fixed
// order shared by encode and decode.
func profileCosts(p *rts.Profile) []*int {
	return []*int{
		&p.TrapEntry, &p.SwitchCycles, &p.TouchResolvedHandler, &p.TouchDecide,
		&p.FutureNew, &p.TaskExit, &p.ThreadLoad, &p.ThreadUnload,
		&p.Steal, &p.StealPerWord, &p.StolenResolve,
		&p.Enqueue, &p.Dequeue, &p.Idle,
		&p.MakeVectorBase, &p.MakeVectorPerWord, &p.Print,
		&p.AllocRefill, &p.BlockRounds,
	}
}

// ===========================================================================
// State: everything after the identity section.
// ===========================================================================

func (m *Machine) encodeState(w *snapshot.Writer) {
	w.U64(m.now)
	w.U64(m.lastProgress)
	w.U64(m.nextSchedCheck)
	w.U64(m.nextWedgeCheck)

	encodeSched(w, m.Sched.DumpState())

	rem := m.busyRemaining()
	for i, n := range m.Nodes {
		m.encodeNode(w, n, rem[i])
	}

	m.encodeMemory(w)

	w.Bool(m.net != nil)
	if m.net != nil {
		m.encodeFabric(w)
	}

	m.encodeCursors(w)
}

func (m *Machine) decodeState(r *snapshot.Reader) error {
	m.now = r.U64()
	m.lastProgress = r.U64()
	m.nextSchedCheck = r.U64()
	m.nextWedgeCheck = r.U64()

	img := decodeSched(r)
	if r.Err() == nil {
		if err := m.Sched.RestoreState(img); err != nil {
			r.Corrupt("%v", err)
		}
	}

	rem := make([]uint64, len(m.Nodes))
	for i, n := range m.Nodes {
		rem[i] = m.decodeNode(r, n)
	}

	m.decodeMemory(r)

	hasFabric := r.Bool()
	if r.Err() == nil && hasFabric != (m.net != nil) {
		r.Corrupt("image fabric=%v, machine fabric=%v", hasFabric, m.net != nil)
	}
	if hasFabric && r.Err() == nil {
		m.decodeFabric(r)
	}

	m.decodeCursors(r)

	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", snapshot.ErrCorrupt, n)
	}

	m.rebuildRunLists(rem)

	// Scheduled state events fired iff the image's cycle has passed them
	// (runEventful fires due events before every window boundary, so a
	// snapshot can never be taken in between). The wedge mutates the
	// host-side fault plan, which New rebuilt pristine — re-arm it; the
	// sabotage mutated scheduler state already restored above — only
	// mark it fired.
	if m.plan != nil && m.plan.WedgePending() && m.now >= m.plan.Config().WedgeAtCycle {
		m.armWedge()
	}
	m.sabotaged = m.Cfg.SabotageCycle > 0 && m.now >= m.Cfg.SabotageCycle
	return nil
}

// busyRemaining canonicalizes per-node occupancy: how many cycles
// until each node next Steps. The reference loop keeps it as relative
// busy counters; the work-proportional loops keep absolute wake cycles
// in the queue (0 remaining = on the running list). The canonical form
// restores into either representation.
func (m *Machine) busyRemaining() []uint64 {
	rem := make([]uint64, len(m.Nodes))
	if m.Cfg.DisableFastForward {
		for i, n := range m.Nodes {
			rem[i] = uint64(n.busy)
		}
		return rem
	}
	m.wakeq.forEach(func(node int, wake uint64) {
		if wake > m.now {
			rem[node] = wake - m.now
		}
	})
	return rem
}

// rebuildRunLists installs canonical per-node remaining-busy values
// into the target loop's representation.
func (m *Machine) rebuildRunLists(rem []uint64) {
	if m.Cfg.DisableFastForward {
		for i, n := range m.Nodes {
			n.busy = int(rem[i])
		}
		return
	}
	m.wakeq.init(len(m.Nodes))
	m.running = m.running[:0]
	for i := range m.Nodes {
		if rem[i] == 0 {
			m.running = append(m.running, i)
		} else {
			m.wakeq.push(i, m.now+rem[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

func encodeSched(w *snapshot.Writer, img rts.SchedImage) {
	w.Bool(img.MainDone)
	w.U32(uint32(img.MainResult))
	encodeRTSStats(w, &img.Stats)
	w.Count(len(img.Threads))
	for i := range img.Threads {
		encodeThread(w, &img.Threads[i])
	}
	w.Count(len(img.Ready))
	for _, q := range img.Ready {
		w.Ints(q)
	}
	w.Count(len(img.Waiters))
	for _, wt := range img.Waiters {
		w.U32(wt.Addr)
		w.Ints(wt.Threads)
	}
	w.U32s(img.FreeStacks)
	w.U32s(img.FreeTCBs)
	w.Int(img.StealRR)
	w.U32(img.StackNext)
	w.U32(img.StackLimit)
	w.U32(img.HeapNext)
	w.U32(img.HeapLimit)
}

func decodeSched(r *snapshot.Reader) rts.SchedImage {
	var img rts.SchedImage
	img.MainDone = r.Bool()
	img.MainResult = isa.Word(r.U32())
	decodeRTSStats(r, &img.Stats)
	img.Threads = make([]rts.Thread, r.Count("threads"))
	for i := range img.Threads {
		decodeThread(r, &img.Threads[i])
	}
	img.Ready = make([][]int, r.Count("ready queues"))
	for i := range img.Ready {
		img.Ready[i] = r.Ints("ready queue")
	}
	img.Waiters = make([]rts.WaiterImage, r.Count("waiters"))
	for i := range img.Waiters {
		img.Waiters[i].Addr = r.U32()
		img.Waiters[i].Threads = r.Ints("waiter threads")
	}
	img.FreeStacks = r.U32s("free stacks")
	img.FreeTCBs = r.U32s("free TCBs")
	img.StealRR = r.Int()
	img.StackNext = r.U32()
	img.StackLimit = r.U32()
	img.HeapNext = r.U32()
	img.HeapLimit = r.U32()
	return img
}

func encodeThread(w *snapshot.Writer, t *rts.Thread) {
	w.Int(t.ID)
	w.U8(uint8(t.State))
	for _, reg := range t.Regs {
		w.U32(uint32(reg))
	}
	w.U32(t.PC)
	w.U32(t.NPC)
	w.U32(uint32(t.PSR))
	w.U32(t.TCB)
	w.U32(t.StackLow)
	w.U32(t.StackTop)
	w.U32(uint32(t.Future))
	w.Int(t.Home)
}

func decodeThread(r *snapshot.Reader, t *rts.Thread) {
	t.ID = r.Int()
	t.State = rts.ThreadState(r.U8())
	for i := range t.Regs {
		t.Regs[i] = isa.Word(r.U32())
	}
	t.PC = r.U32()
	t.NPC = r.U32()
	t.PSR = core.PSR(r.U32())
	t.TCB = r.U32()
	t.StackLow = r.U32()
	t.StackTop = r.U32()
	t.Future = isa.Word(r.U32())
	t.Home = r.Int()
}

func encodeRTSStats(w *snapshot.Writer, s *rts.Stats) {
	w.U64(s.TasksCreated)
	w.U64(s.Steals)
	w.U64(s.StealWords)
	w.U64(s.Blocks)
	w.U64(s.Requeues)
	w.U64(s.Wakes)
	w.U64(s.ThreadSteals)
	w.U64(s.TouchesResolved)
	w.U64(s.TouchesUnresolved)
}

func decodeRTSStats(r *snapshot.Reader, s *rts.Stats) {
	s.TasksCreated = r.U64()
	s.Steals = r.U64()
	s.StealWords = r.U64()
	s.Blocks = r.U64()
	s.Requeues = r.U64()
	s.Wakes = r.U64()
	s.ThreadSteals = r.U64()
	s.TouchesResolved = r.U64()
	s.TouchesUnresolved = r.U64()
}

// ---------------------------------------------------------------------------
// Nodes: engine, processor, IO controller, runtime trackers
// ---------------------------------------------------------------------------

func (m *Machine) encodeNode(w *snapshot.Writer, n *Node, rem uint64) {
	w.U64(rem)
	w.U64(n.lastRetired)

	e := n.Proc.Engine
	w.Int(e.FP())
	w.U64(e.Switches)
	w.Count(len(e.Frames))
	for i := range e.Frames {
		f := &e.Frames[i]
		for _, reg := range f.R {
			w.U32(uint32(reg))
		}
		w.U32(f.PC)
		w.U32(f.NPC)
		w.U32(uint32(f.PSR))
		w.Int(f.ThreadID)
	}
	for _, g := range e.Globals {
		w.U32(uint32(g))
	}

	p := n.Proc
	w.Bool(p.Halted)
	encodeProcStats(w, &p.Stats)
	for _, k := range p.Kinds {
		w.U64(k)
	}
	ipis := p.DumpIPIs(nil)
	w.Count(len(ipis))
	for _, v := range ipis {
		w.U32(uint32(v))
	}

	ioc := p.IO.(*ioCtl)
	w.Int(ioc.ipiTarget)
	w.U32(ioc.btSrc)
	w.U32(ioc.btDst)
	w.U32(ioc.btLen)
	w.U64(ioc.btReadyAt)

	// The node's private allocation chunk (futures, cons cells): the
	// cursor decides every future address this node hands out next.
	w.U32(n.RT.Heap.Arena.Next)
	w.U32(n.RT.Heap.Arena.Limit)

	stuck := n.RT.DumpStuck()
	w.Bool(stuck != nil)
	if stuck != nil {
		w.Count(len(stuck))
		for _, st := range stuck {
			w.U32(st.PC)
			w.Int(st.Count)
		}
	}
}

// decodeNode installs one node's state and returns its canonical
// remaining-busy count.
func (m *Machine) decodeNode(r *snapshot.Reader, n *Node) uint64 {
	rem := r.U64()
	n.lastRetired = r.U64()

	e := n.Proc.Engine
	fp := r.Int()
	e.Switches = r.U64()
	nframes := r.Count("frames")
	if r.Err() != nil {
		return rem
	}
	if nframes != len(e.Frames) {
		r.Corrupt("image has %d frames, engine has %d", nframes, len(e.Frames))
		return rem
	}
	if fp < 0 || fp >= nframes {
		r.Corrupt("frame pointer %d out of %d frames", fp, nframes)
		return rem
	}
	e.SetFP(fp)
	for i := range e.Frames {
		f := &e.Frames[i]
		for j := range f.R {
			f.R[j] = isa.Word(r.U32())
		}
		f.PC = r.U32()
		f.NPC = r.U32()
		f.PSR = core.PSR(r.U32())
		f.ThreadID = r.Int()
	}
	for i := range e.Globals {
		e.Globals[i] = isa.Word(r.U32())
	}

	p := n.Proc
	p.Halted = r.Bool()
	decodeProcStats(r, &p.Stats)
	for i := range p.Kinds {
		p.Kinds[i] = r.U64()
	}
	nipi := r.Count("pending IPIs")
	if r.Err() != nil {
		return rem
	}
	ipis := make([]isa.Word, nipi)
	for i := range ipis {
		ipis[i] = isa.Word(r.U32())
	}
	p.RestoreIPIs(ipis)

	ioc := p.IO.(*ioCtl)
	ioc.ipiTarget = r.Int()
	ioc.btSrc = r.U32()
	ioc.btDst = r.U32()
	ioc.btLen = r.U32()
	ioc.btReadyAt = r.U64()

	n.RT.Heap.Arena.Next = r.U32()
	n.RT.Heap.Arena.Limit = r.U32()

	if r.Bool() {
		stuck := make([]rts.StuckImage, r.Count("stuck trackers"))
		for i := range stuck {
			stuck[i].PC = r.U32()
			stuck[i].Count = r.Int()
		}
		n.RT.RestoreStuck(stuck)
	} else {
		n.RT.RestoreStuck(nil)
	}
	return rem
}

func encodeProcStats(w *snapshot.Writer, s *proc.Stats) {
	w.U64(s.Instructions)
	w.U64(s.UsefulCycles)
	w.U64(s.WaitCycles)
	w.U64(s.TrapCycles)
	w.U64(s.IdleCycles)
	for _, t := range s.Traps {
		w.U64(t)
	}
	w.U64(s.LoadCount)
	w.U64(s.StoreCount)
}

func decodeProcStats(r *snapshot.Reader, s *proc.Stats) {
	s.Instructions = r.U64()
	s.UsefulCycles = r.U64()
	s.WaitCycles = r.U64()
	s.TrapCycles = r.U64()
	s.IdleCycles = r.U64()
	for i := range s.Traps {
		s.Traps[i] = r.U64()
	}
	s.LoadCount = r.U64()
	s.StoreCount = r.U64()
}

// ---------------------------------------------------------------------------
// Memory: resident pages only, exact residency
// ---------------------------------------------------------------------------

func (m *Machine) encodeMemory(w *snapshot.Writer) {
	w.Int(m.Mem.NumPages())
	nd, nf := 0, 0
	m.Mem.DumpResident(
		func(uint32, []isa.Word) { nd++ },
		func(uint32, []uint64) { nf++ })
	w.Count(nd)
	m.Mem.DumpResident(
		func(page uint32, words []isa.Word) {
			w.U32(page)
			for _, x := range words {
				w.U32(uint32(x))
			}
		},
		func(uint32, []uint64) {})
	w.Count(nf)
	m.Mem.DumpResident(
		func(uint32, []isa.Word) {},
		func(page uint32, bits []uint64) {
			w.U32(page)
			for _, b := range bits {
				w.U64(b)
			}
		})
}

func (m *Machine) decodeMemory(r *snapshot.Reader) {
	np := r.Int()
	if r.Err() != nil {
		return
	}
	if np != m.Mem.NumPages() {
		r.Corrupt("image has %d memory pages, machine has %d", np, m.Mem.NumPages())
		return
	}
	// Exact residency: evict everything construction and loading made
	// resident, then install only the image's pages.
	m.Mem.Reset()
	nd := r.Count("data pages")
	for i := 0; i < nd; i++ {
		if r.Err() != nil {
			return
		}
		page := r.U32()
		words := make([]isa.Word, mem.PageWords)
		for j := range words {
			words[j] = isa.Word(r.U32())
		}
		if r.Err() != nil {
			return
		}
		if err := m.Mem.InstallDataPage(page, words); err != nil {
			r.Corrupt("%v", err)
			return
		}
	}
	nf := r.Count("full/empty pages")
	for i := 0; i < nf; i++ {
		if r.Err() != nil {
			return
		}
		page := r.U32()
		bits := make([]uint64, mem.PageWords/64)
		for j := range bits {
			bits[j] = r.U64()
		}
		if r.Err() != nil {
			return
		}
		if err := m.Mem.InstallFEPage(page, bits); err != nil {
			r.Corrupt("%v", err)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Fabric: network backend + per-node cache/directory controllers
// ---------------------------------------------------------------------------

const (
	netKindIdeal uint8 = 0
	netKindTorus uint8 = 1
)

func (m *Machine) encodeFabric(w *snapshot.Writer) {
	f := m.net
	w.U64(f.now)
	switch n := f.net.(type) {
	case *network.Ideal:
		w.U8(netKindIdeal)
		encodeNetImage(w, n.DumpImage())
	case *network.Torus:
		w.U8(netKindTorus)
		encodeNetImage(w, n.DumpImage())
	default:
		panic(fmt.Sprintf("sim: snapshot: unknown network backend %T", f.net))
	}
	w.Count(len(f.ctls))
	for _, ctl := range f.ctls {
		encodeCtl(w, ctl)
	}
}

func (m *Machine) decodeFabric(r *snapshot.Reader) {
	f := m.net
	f.now = r.U64()
	kind := r.U8()
	img := decodeNetImage(r)
	if r.Err() != nil {
		return
	}
	switch n := f.net.(type) {
	case *network.Ideal:
		if kind != netKindIdeal {
			r.Corrupt("image network kind %d, machine has ideal network", kind)
			return
		}
		if err := n.RestoreImage(img); err != nil {
			r.Corrupt("%v", err)
			return
		}
	case *network.Torus:
		if kind != netKindTorus {
			r.Corrupt("image network kind %d, machine has torus network", kind)
			return
		}
		if err := n.RestoreImage(img); err != nil {
			r.Corrupt("%v", err)
			return
		}
	}
	nctl := r.Count("controllers")
	if r.Err() != nil {
		return
	}
	if nctl != len(f.ctls) {
		r.Corrupt("image has %d controllers, machine has %d", nctl, len(f.ctls))
		return
	}
	for _, ctl := range f.ctls {
		decodeCtl(r, ctl)
		if r.Err() != nil {
			return
		}
		// The dirty set is host bookkeeping: rebuild it from the
		// simulated state it tracks (pending output or deferred recalls
		// mean the controller needs ticking).
		if len(ctl.outbox) > 0 || len(ctl.recallQ) > 0 {
			f.markDirty(ctl.node)
		}
	}
}

func encodeNetImage(w *snapshot.Writer, img network.Image) {
	w.U64(img.Now)
	w.U64(img.Stats.Messages)
	w.U64(img.Stats.FlitsSent)
	w.U64(img.Stats.TotalLatency)
	w.U64(img.Stats.Delivered)
	w.U64(img.Stats.MaxLatency)
	w.U64(img.Stats.Hops)
	w.U64(img.SendSeq)
	w.U64s(img.LastArr)
	encodeMsgs(w, img.Pending)
	w.U64s(img.TxSeq)
	w.Ints(img.Busy)
	w.Count(len(img.Queues))
	for _, q := range img.Queues {
		encodeMsgs(w, q)
	}
	w.Count(len(img.Inbox))
	for _, box := range img.Inbox {
		encodeMsgs(w, box)
	}
}

func decodeNetImage(r *snapshot.Reader) network.Image {
	var img network.Image
	img.Now = r.U64()
	img.Stats.Messages = r.U64()
	img.Stats.FlitsSent = r.U64()
	img.Stats.TotalLatency = r.U64()
	img.Stats.Delivered = r.U64()
	img.Stats.MaxLatency = r.U64()
	img.Stats.Hops = r.U64()
	img.SendSeq = r.U64()
	img.LastArr = r.U64s("lastArr")
	img.Pending = decodeMsgs(r, "pending")
	img.TxSeq = r.U64s("txSeq")
	img.Busy = r.Ints("channel busy")
	nq := r.Count("channel queues")
	if nq > 0 {
		img.Queues = make([][]network.MessageImage, nq)
		for i := range img.Queues {
			img.Queues[i] = decodeMsgs(r, "channel queue")
		}
	}
	nb := r.Count("inboxes")
	img.Inbox = make([][]network.MessageImage, nb)
	for i := range img.Inbox {
		img.Inbox[i] = decodeMsgs(r, "inbox")
	}
	return img
}

func encodeMsgs(w *snapshot.Writer, ms []network.MessageImage) {
	w.Count(len(ms))
	for i := range ms {
		m := &ms[i]
		w.Int(m.Src)
		w.Int(m.Dst)
		w.Int(m.Size)
		w.U8(uint8(m.Payload.Kind))
		encodeCohMsg(w, m.Payload.Coh)
		w.U64(m.Payload.Word)
		w.U64(m.SentAt)
		w.U64(m.ArriveAt)
		w.Ints(m.Route)
		w.Int(m.Hop)
	}
}

func decodeMsgs(r *snapshot.Reader, what string) []network.MessageImage {
	n := r.Count(what)
	if n == 0 {
		return nil
	}
	ms := make([]network.MessageImage, n)
	for i := range ms {
		m := &ms[i]
		m.Src = r.Int()
		m.Dst = r.Int()
		m.Size = r.Int()
		m.Payload.Kind = network.PayloadKind(r.U8())
		m.Payload.Coh = decodeCohMsg(r)
		m.Payload.Word = r.U64()
		m.SentAt = r.U64()
		m.ArriveAt = r.U64()
		m.Route = r.Ints("route")
		m.Hop = r.Int()
	}
	return ms
}

func encodeCohMsg(w *snapshot.Writer, m directory.Msg) {
	w.U8(uint8(m.Kind))
	w.U32(m.Block)
	w.Int(m.From)
	w.Int(m.Requester)
	w.Bool(m.Write)
}

func decodeCohMsg(r *snapshot.Reader) directory.Msg {
	var m directory.Msg
	m.Kind = directory.MsgKind(r.U8())
	m.Block = r.U32()
	m.From = r.Int()
	m.Requester = r.Int()
	m.Write = r.Bool()
	return m
}

func encodeCtl(w *snapshot.Writer, c *cacheCtl) {
	// Cache arrays: every slot, plus the LRU clock and counters.
	sets, ways := c.cache.Geometry()
	w.Int(sets)
	w.Int(ways)
	w.U64(c.cache.Clock())
	w.U64(c.cache.Hits)
	w.U64(c.cache.Misses)
	w.U64(c.cache.Evictions)
	w.U64(c.cache.Writebacks)
	w.U64(c.cache.Invalidations)
	c.cache.DumpSlots(func(_, _ int, block uint32, st cache.State, dirty bool, lru uint64) {
		w.U32(block)
		w.U8(uint8(st))
		w.Bool(dirty)
		w.U64(lru)
	})

	// Directory entries, ascending block.
	w.U64(c.dir.ReadMisses)
	w.U64(c.dir.WriteMisses)
	w.U64(c.dir.InvalsSent)
	w.U64(c.dir.Fetches)
	w.U64(c.dir.Writebacks)
	w.Count(c.dir.Entries())
	c.dir.DumpEntries(func(block uint32, e *directory.Entry) {
		w.U32(block)
		w.U8(uint8(e.State))
		w.Int(e.Owner)
		w.Ints(e.Sharers.Members())
	})

	// Outstanding misses, sorted by block.
	w.Count(c.pending.len())
	for _, block := range c.pending.sortedKeys() {
		ms, _ := c.pending.get(block)
		w.U32(block)
		w.Bool(ms.write)
		w.U64(ms.start)
		w.Bool(ms.poisoned)
	}

	// Home transactions, sorted by block.
	w.Count(c.homeTx.len())
	for _, block := range c.homeTx.sortedKeys() {
		tx, _ := c.homeTx.get(block)
		w.U32(block)
		w.Bool(tx.write)
		w.Int(tx.requester)
		w.Int(tx.acksLeft)
		w.Count(len(tx.queued))
		for _, msg := range tx.queued {
			encodeCohMsg(w, msg)
		}
	}

	// Output queue and deferred recalls, in order.
	w.Count(len(c.outbox))
	for _, om := range c.outbox {
		encodeCohMsg(w, om.msg)
		w.Int(om.dst)
		w.U64(om.readyAt)
	}
	w.Count(len(c.recallQ))
	for _, pr := range c.recallQ {
		encodeCohMsg(w, pr.msg)
		w.U64(pr.deadline)
	}

	w.Int(c.fence)
	w.Count(c.locked.len())
	for _, block := range c.locked.sortedKeys() {
		exp, _ := c.locked.get(block)
		w.U32(block)
		w.U64(exp)
	}
	w.U64(c.replySeq)
	w.U64(c.Stats.LocalMisses)
	w.U64(c.Stats.RemoteMisses)
	w.U64(c.Stats.RemoteLatency)
	w.U64(c.Stats.Upgrades)
}

func decodeCtl(r *snapshot.Reader, c *cacheCtl) {
	sets, ways := c.cache.Geometry()
	isets := r.Int()
	iways := r.Int()
	if r.Err() != nil {
		return
	}
	if isets != sets || iways != ways {
		r.Corrupt("image cache geometry %d×%d, machine has %d×%d", isets, iways, sets, ways)
		return
	}
	c.cache.SetClock(r.U64())
	c.cache.Hits = r.U64()
	c.cache.Misses = r.U64()
	c.cache.Evictions = r.U64()
	c.cache.Writebacks = r.U64()
	c.cache.Invalidations = r.U64()
	for set := 0; set < sets; set++ {
		for way := 0; way < ways; way++ {
			block := r.U32()
			st := cache.State(r.U8())
			dirty := r.Bool()
			lru := r.U64()
			if r.Err() != nil {
				return
			}
			if err := c.cache.SetSlot(set, way, block, st, dirty, lru); err != nil {
				r.Corrupt("%v", err)
				return
			}
		}
	}

	c.dir.ReadMisses = r.U64()
	c.dir.WriteMisses = r.U64()
	c.dir.InvalsSent = r.U64()
	c.dir.Fetches = r.U64()
	c.dir.Writebacks = r.U64()
	nodes := len(c.fabric.ctls)
	nent := r.Count("directory entries")
	for i := 0; i < nent; i++ {
		block := r.U32()
		st := directory.State(r.U8())
		owner := r.Int()
		members := r.Ints("sharers")
		if r.Err() != nil {
			return
		}
		if st > directory.Exclusive {
			r.Corrupt("directory entry %#x has invalid state %d", block, st)
			return
		}
		if owner < -1 || owner >= nodes {
			r.Corrupt("directory entry %#x has owner %d of %d nodes", block, owner, nodes)
			return
		}
		e := c.dir.Entry(block)
		e.State = st
		e.Owner = owner
		for _, id := range members {
			if id < 0 || id >= nodes {
				r.Corrupt("directory entry %#x has sharer %d of %d nodes", block, id, nodes)
				return
			}
			e.Sharers.Add(id)
		}
	}

	npend := r.Count("pending misses")
	c.pending.reset()
	for i := 0; i < npend; i++ {
		block := r.U32()
		var ms missState
		ms.write = r.Bool()
		ms.start = r.U64()
		ms.poisoned = r.Bool()
		c.pending.put(block, ms)
	}

	ntx := r.Count("home transactions")
	c.homeTx.reset()
	for i := 0; i < ntx; i++ {
		block := r.U32()
		tx := &homeTx{}
		tx.write = r.Bool()
		tx.requester = r.Int()
		tx.acksLeft = r.Int()
		nq := r.Count("queued requests")
		for j := 0; j < nq; j++ {
			tx.queued = append(tx.queued, decodeCohMsg(r))
		}
		if r.Err() != nil {
			return
		}
		c.homeTx.put(block, tx)
	}

	nout := r.Count("outbox")
	c.outbox = c.outbox[:0]
	for i := 0; i < nout; i++ {
		var om outMsg
		om.msg = decodeCohMsg(r)
		om.dst = r.Int()
		om.readyAt = r.U64()
		c.outbox = append(c.outbox, om)
	}
	nrec := r.Count("recall queue")
	c.recallQ = c.recallQ[:0]
	for i := 0; i < nrec; i++ {
		var pr pendingRecall
		pr.msg = decodeCohMsg(r)
		pr.deadline = r.U64()
		c.recallQ = append(c.recallQ, pr)
	}

	c.fence = r.Int()
	nlock := r.Count("locked blocks")
	c.locked.reset()
	for i := 0; i < nlock; i++ {
		block := r.U32()
		c.locked.put(block, r.U64())
	}
	c.replySeq = r.U64()
	c.Stats.LocalMisses = r.U64()
	c.Stats.RemoteMisses = r.U64()
	c.Stats.RemoteLatency = r.U64()
	c.Stats.Upgrades = r.U64()
}

// ---------------------------------------------------------------------------
// Observability cursors (contents are host-side; see package comment)
// ---------------------------------------------------------------------------

func (m *Machine) encodeCursors(w *snapshot.Writer) {
	w.Bool(m.tracer != nil)
	if m.tracer != nil {
		w.Count(m.tracer.Nodes())
		for i := 0; i < m.tracer.Nodes(); i++ {
			w.U64(m.tracer.Node(i).Cursor())
		}
	}
	w.Bool(m.sampler != nil)
	if m.sampler != nil {
		w.U64(m.sampler.NextBoundary())
		w.Count(len(m.lastSample))
		for i := range m.lastSample {
			encodeProcStats(w, &m.lastSample[i])
		}
	}
}

func (m *Machine) decodeCursors(r *snapshot.Reader) {
	if r.Bool() {
		n := r.Count("trace cursors")
		for i := 0; i < n; i++ {
			cur := r.U64()
			if m.tracer != nil && i < m.tracer.Nodes() {
				m.tracer.Node(i).SetCursor(cur)
			}
		}
	}
	if r.Bool() {
		next := r.U64()
		n := r.Count("sample baselines")
		for i := 0; i < n; i++ {
			var s proc.Stats
			decodeProcStats(r, &s)
			if m.sampler != nil && i < len(m.lastSample) {
				m.lastSample[i] = s
			}
		}
		if m.sampler != nil {
			m.sampler.SetNextBoundary(next)
		}
	}
}
