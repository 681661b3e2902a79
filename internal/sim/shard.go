// Sharded execution: one Machine's nodes split into contiguous blocks
// (network.Partition), stepped by parallel worker goroutines under
// conservative parallel discrete-event simulation.
//
// The torus's lookahead is one cycle (network.Lookahead: a one-flit
// message between adjacent nodes is observable one tick after the
// send), so the phased path commits one cycle per barrier. Two things
// raise the loop above that floor. Stretches where no node steps are
// crossed in one jump by fastForwardUntil. Stretches where every
// stepper's next ops are epoch-safe run as multi-cycle lockstep
// batches (epoch.go): the group's safe horizon — bounded by the
// fabric's next event rather than the static per-hop lookahead — is
// executed on the coordinator in reference order with zero barriers,
// and the phased machinery below only runs on the cycles epochs cannot
// cover. (network.PartitionLookahead refines the static bound per
// shard — a slab's nearest foreign node can be several hops away — and
// sizes the batch a decoupled-fabric design could commit; with the
// fabric central, the engine conservatively uses the global event
// horizon, which is never shorter than one lookahead window and
// usually far longer.) Each phased cycle:
//
//  1. The coordinator classifies every node due to step this cycle
//     (classifyStep). LOCAL steps touch only state the owning shard can
//     write without synchronization: the node's own engine, processor,
//     cache controller, and — under the coherence protocol's exclusive-
//     copy guarantee — memory words it has cached. GLOBAL steps touch
//     shared state (the scheduler, future cells, full/empty bits, the
//     page table, the shared store in perfect-memory mode). STOP steps
//     can error, halt, or end the run mid-cycle, where the reference
//     loop's semantics (skip the remaining nodes) need the exact
//     sequential order.
//  2. Phase 1: workers step their shards' LOCAL nodes, ascending.
//  3. Phase 2: the coordinator steps the GLOBAL nodes, ascending.
//  4. The fabric ticks (tickSharded): message handling fans out to the
//     workers while network/pool mutations stage through per-shard
//     buffers the coordinator replays in the sequential order.
//
// Why this is bit-identical to the sequential loop: the reference
// executes a cycle's steps ascending by node id, so phased execution is
// a reordering of that sequence. A LOCAL step commutes with every other
// step in the cycle — its reads and writes are confined to per-node
// state plus coherence-protected words no other node may validly hold,
// future-tagged addresses and full/empty-flavored accesses are
// classified GLOBAL (so cross-node synchronization words never appear
// in a LOCAL step), and stores that would materialize a page (a write
// to the shared page table) are GLOBAL too. GLOBAL steps run in
// reference relative order on one goroutine. Any step the proof does
// not cover is STOP, and a STOP anywhere sends the whole cycle down a
// byte-for-byte copy of the sequential body. Wake-queue pushes land in
// a different order than the reference, but the queue pops in total
// (cycle, node) order, so its behavior depends only on the content
// multiset, which is identical. The one residual divergence is
// intra-cycle event order in a node's trace ring when a global actor
// emits onto another node's ring (thread wakes, steals) in the same
// cycle as that node's own events; per-ring event multisets and totals
// are unchanged, which shard_test.go verifies.
package sim

import (
	"fmt"
	"slices"

	"april/internal/abi"
	"april/internal/core"
	"april/internal/directory"
	"april/internal/isa"
	"april/internal/network"
	"april/internal/proc"
)

// stepClass is the coordinator's verdict on one node's next step.
type stepClass uint8

const (
	classLocal  stepClass = iota // shard-confined: safe on a worker
	classGlobal                  // shared state: coordinator phase, ascending
	classStop                    // may error/halt/end the run: whole cycle sequential
)

// classifyStep decides how node id's next Step may execute. It must be
// conservative: when in doubt, GLOBAL (correct but serialized) or STOP
// (correct but the cycle is sequential). It reads only this node's
// state plus the shared page table, and mutates nothing.
func (m *Machine) classifyStep(id int) stepClass {
	p := m.Nodes[id].Proc
	if p.Halted {
		return classStop // Step returns ErrHalted
	}
	if p.PendingIPIs() > 0 {
		return classGlobal // asynchronous trap enters the runtime
	}
	f := p.Engine.Active()
	if f.ThreadID < 0 {
		return classGlobal // idle: the scheduler hunts for work
	}
	code := p.Prog.Code
	if uint64(f.PC) >= uint64(len(code)) {
		return classStop // out-of-bounds fetch errors the run
	}
	inst := code[f.PC]
	switch inst.Op.Class() {
	case isa.ClassNop, isa.ClassBranch, isa.ClassFrame:
		return classLocal
	case isa.ClassCacheOp:
		// Flush touches the local cache, the local outbox, and (home
		// only) the local directory half — all owned by this shard.
		return classLocal
	case isa.ClassJmpl:
		if inst.Rs1 != isa.RZero && !isa.IsFixnum(p.Engine.Reg(inst.Rs1)) {
			return classStop // errors the run
		}
		return classLocal
	case isa.ClassCompute:
		return classifyCompute(p, f, inst)
	case isa.ClassLoad, isa.ClassStore:
		return m.classifyMemory(p, f, inst)
	case isa.ClassTrap:
		switch abi.TrapService(inst.Imm) {
		case abi.SvcMainExit, abi.SvcError:
			// Ends the run mid-cycle: the reference loop skips the
			// remaining nodes of the cycle, so order is everything.
			return classStop
		}
		return classGlobal // syscalls enter the shared runtime
	default:
		// ClassIO (an IPI posted here is visible to a later node in the
		// same cycle), ClassHalt, and anything unrecognized.
		return classStop
	}
}

// classifyCompute covers ClassCompute: local register arithmetic unless
// a strict operand would trap to the runtime's touch handler, or a
// division by zero would error the run.
func classifyCompute(p *proc.Processor, f *core.Frame, inst isa.Inst) stepClass {
	e := p.Engine
	if inst.Op.Strict() && f.PSR&core.PSRFutureTrap != 0 {
		if isa.IsFuture(e.Reg(inst.Rs1)) {
			return classGlobal // future touch -> runtime
		}
		if !inst.UseImm && isa.IsFuture(e.Reg(inst.Rs2)) {
			return classGlobal
		}
	}
	switch inst.Op {
	case isa.OpDiv, isa.OpMod:
		var b isa.Word
		if inst.UseImm {
			b = isa.Word(inst.Imm)
		} else {
			b = e.Reg(inst.Rs2)
		}
		if b == 0 {
			return classStop // errors the run
		}
		return classLocal
	case isa.OpAdd, isa.OpAddCC, isa.OpRawAdd,
		isa.OpSub, isa.OpSubCC, isa.OpRawSub,
		isa.OpAnd, isa.OpAndCC, isa.OpRawAnd,
		isa.OpOr, isa.OpOrCC, isa.OpXor, isa.OpXorCC,
		isa.OpSll, isa.OpSrl, isa.OpSra,
		isa.OpMul, isa.OpTagCmp, isa.OpMovI:
		return classLocal
	default:
		return classStop // execute would report an unimplemented op
	}
}

// classifyMemory covers ClassLoad/ClassStore. Only the ALEWIFE
// configuration admits LOCAL memory steps: the coherence protocol's
// exclusive-copy guarantee is what makes a cached access, or a miss
// that traps into the engine-local switch handler, commute with every
// other node's step. Perfect-memory accesses hit the shared flat store
// directly (two nodes may race on a word within one cycle, resolved
// only by reference order), and lazy task creation plants stealable
// continuation markers in stack words that remote idle nodes probe.
func (m *Machine) classifyMemory(p *proc.Processor, f *core.Frame, inst isa.Inst) stepClass {
	if m.net == nil || m.Cfg.Lazy {
		return classGlobal
	}
	e := p.Engine
	base := e.Reg(inst.Rs1)
	var index isa.Word
	if !inst.UseImm {
		index = e.Reg(inst.Rs2)
	}
	if f.PSR&core.PSRFutureTrap != 0 {
		// Address-operand future detection: the trap enters the
		// runtime's touch handler, and the word behind a future-tagged
		// pointer is a future cell the runtime mutates — this check is
		// also what keeps future-cell interiors out of LOCAL steps.
		if isa.IsFuture(base) || (!inst.UseImm && isa.IsFuture(index)) {
			return classGlobal
		}
	}
	ea := uint32(int32(uint32(base)) + int32(uint32(index)) + inst.Imm)
	if ea%4 != 0 {
		return classStop // alignment trap -> runtime error path
	}
	if !m.Mem.InRange(ea) {
		return classStop // out-of-range access errors the run
	}
	fl := inst.Op.Flavor()
	if fl.TrapOnSync || fl.SetFE || fl.ResetFE {
		// Full/empty bits synchronize across nodes; writes to them (and
		// sync faults, which enter the runtime) stay on the coordinator.
		return classGlobal
	}
	if inst.Op.IsStore() && !m.Mem.PageResident(ea) {
		return classGlobal // the store would materialize a page
	}
	return classLocal
}

// nodeWake is a deferred wake-queue push produced by a worker (the
// queue itself is shared, so workers record and the coordinator pushes).
type nodeWake struct {
	node int
	at   uint64
}

// shardState is one shard's per-cycle work list and phase-1 results.
// Workers write only their own entry.
type shardState struct {
	steps   []int // this cycle's LOCAL nodes, ascending
	keep    []int // nodes staying on the running list
	wakes   []nodeWake
	retired bool  // any instruction retired this phase
	err     error // first step error (unreachable for LOCAL steps; defensive)
	errNode int
	pan     any // recovered panic, rethrown on the coordinator
}

// shardRunner owns the worker pool and per-shard scratch. Workers are
// persistent goroutines fed one closure per phase through per-worker
// channels; the coordinator always executes shard 0 inline, so a
// machine with S shards uses S-1 extra goroutines.
type shardRunner struct {
	m       *Machine
	batch   int // minimum work items before a phase goes parallel
	shards  []shardState
	globals []int // per-cycle GLOBAL step list (scratch)
	gkeep   []int // phase-2 keep scratch
	jobs    []chan func(int)
	done    chan struct{}
	started bool
	stepFn  func(int) // phase-1 body, allocated once
	tickFn  func(int) // fabric-phase body, allocated once
}

// shardRunner returns the machine's runner, building it on first use.
func (m *Machine) shardRunner() *shardRunner {
	if m.shr != nil {
		return m.shr
	}
	s := m.part.Shards()
	r := &shardRunner{
		m:      m,
		shards: make([]shardState, s),
		jobs:   make([]chan func(int), s-1),
		done:   make(chan struct{}, s-1),
	}
	r.batch = m.Cfg.ShardBatch
	if r.batch <= 0 {
		r.batch = 8 * s
	}
	r.stepFn = r.stepShard
	if m.net != nil {
		f := m.net
		r.tickFn = f.tickShard
	}
	m.shr = r
	return r
}

// start launches the worker goroutines (idempotent).
func (r *shardRunner) start() {
	if r.started {
		return
	}
	r.started = true
	for s := 1; s < len(r.shards); s++ {
		ch := make(chan func(int), 1)
		r.jobs[s-1] = ch
		go func(s int, ch chan func(int)) {
			for fn := range ch {
				r.run(s, fn)
				r.done <- struct{}{}
			}
		}(s, ch)
	}
}

// stop terminates the workers. The runner restarts on the next run.
func (r *shardRunner) stop() {
	if !r.started {
		return
	}
	r.started = false
	for i, ch := range r.jobs {
		close(ch)
		r.jobs[i] = nil
	}
}

// parallel runs fn(s) for every shard — shard 0 inline, the rest on the
// workers — and joins. Worker panics are captured and rethrown on the
// coordinator after the join, lowest shard first, so the run-loop's
// recover barrier (runGuarded) sees them on its own goroutine.
func (r *shardRunner) parallel(fn func(int)) {
	n := len(r.shards)
	for s := 1; s < n; s++ {
		r.jobs[s-1] <- fn
	}
	r.run(0, fn)
	for s := 1; s < n; s++ {
		<-r.done
	}
	for s := range r.shards {
		if p := r.shards[s].pan; p != nil {
			r.shards[s].pan = nil
			panic(p)
		}
	}
}

func (r *shardRunner) run(s int, fn func(int)) {
	defer func() {
		if p := recover(); p != nil {
			r.shards[s].pan = p
		}
	}()
	fn(s)
}

// stepShard is the phase-1 body: step this shard's LOCAL nodes in
// ascending id order, collecting running-list keeps and wake pushes for
// the coordinator to apply.
func (r *shardRunner) stepShard(s int) {
	sh := &r.shards[s]
	m := r.m
	sh.keep = sh.keep[:0]
	sh.wakes = sh.wakes[:0]
	sh.retired = false
	sh.err = nil
	for _, id := range sh.steps {
		n := m.Nodes[id]
		retired := n.Proc.Stats.Instructions
		c, err := n.Proc.Step()
		if err != nil {
			sh.err, sh.errNode = err, id
			return
		}
		if c > 1 {
			sh.wakes = append(sh.wakes, nodeWake{node: id, at: m.now + uint64(c)})
		} else {
			sh.keep = append(sh.keep, id)
		}
		if n.Proc.Stats.Instructions != retired {
			sh.retired = true
			n.lastRetired = m.now
		}
	}
}

// runShardedUntil is the parallel run loop. Control flow mirrors
// runFastUntil exactly — same sampler boundaries, same fast-forward
// jumps, same wake/running bookkeeping — with the per-cycle stepping
// split into the phases described at the top of this file. It returns
// hitLimit=true when m.now reaches limit before the main thread exits.
func (m *Machine) runShardedUntil(limit uint64) (hitLimit bool, err error) {
	r := m.shardRunner()
	r.start()
	defer r.stop()
	for !m.Sched.MainDone {
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
		if m.now >= limit {
			return true, nil
		}
		jumpLimit := limit
		if m.sampler != nil && m.sampler.NextBoundary() < jumpLimit {
			jumpLimit = m.sampler.NextBoundary()
		}
		m.fastForwardUntil(jumpLimit)
		if m.sampler != nil && m.now >= m.sampler.NextBoundary() {
			m.sample()
			m.sampler.Advance(m.now)
		}
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

		// Multi-cycle epoch batch: when the whole group's safe horizon
		// spans several cycles, run the steppers in lockstep through the
		// compiled tier (epoch.go) and pay the per-cycle machinery —
		// classification, phase barriers, fabric staging — once per
		// window instead of once per cycle. This is what lifts the
		// sharded loop from per-cycle bulk-synchronous to k-cycle
		// batches: barriers only happen on the cycles epochs cannot
		// cover.
		if m.epochOn && len(steps) > 1 {
			si, epochFull := m.epochWindow(steps, limit)
			if epochFull {
				m.running = append(m.running[:0], steps...)
				if err := m.watchdogs(); err != nil {
					return false, err
				}
				continue
			}
			if si > 0 {
				// Mid-epoch fallback: the cycle at m.now holds an
				// epoch-unsafe op. steps[:si] already stepped; finish the
				// cycle per-op in reference order (the sequential body).
				if err := m.epochFinishCycle(steps, si); err != nil {
					return false, err
				}
				continue
			}
			// Nothing committed: classify and dispatch the cycle below.
		}

		// Classify the cycle's steppers into per-shard LOCAL lists and
		// the GLOBAL list. Any STOP sends the whole cycle sequential.
		sequential := false
		localTotal := 0
		r.globals = r.globals[:0]
		for s := range r.shards {
			r.shards[s].steps = r.shards[s].steps[:0]
		}
		for _, id := range steps {
			switch m.classifyStep(id) {
			case classLocal:
				sh := &r.shards[m.shardOf[id]]
				sh.steps = append(sh.steps, id)
				localTotal++
			case classGlobal:
				r.globals = append(r.globals, id)
			default:
				sequential = true
			}
			if sequential {
				break
			}
		}

		if sequential || localTotal < r.batch {
			// Sequential cycle: byte-for-byte the runFastUntil body,
			// including the compiled tier's isolated-window fast path
			// (fusion only ever runs on the coordinating goroutine —
			// the parallel phases below step per-op).
			keep := m.running[:0]
			if m.compileOn && len(steps) == 1 {
				used, err := m.fusedStep(steps[0], limit, &keep)
				if err != nil {
					return false, err
				}
				if used {
					steps = nil
				}
			}
			for _, id := range steps {
				n := m.Nodes[id]
				retired := n.Proc.Stats.Instructions
				c, err := n.Proc.Step()
				if err != nil {
					return false, fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
				}
				if c > 1 {
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
			continue
		}

		// Phase 1: workers step the LOCAL nodes.
		r.parallel(r.stepFn)
		for s := range r.shards {
			sh := &r.shards[s]
			if sh.err != nil {
				return false, fmt.Errorf("cycle %d node %d: %w", m.now, sh.errNode, sh.err)
			}
			if sh.retired {
				m.lastProgress = m.now
			}
			for _, w := range sh.wakes {
				m.wakeq.push(w.node, w.at)
			}
		}

		// Phase 2: the coordinator steps the GLOBAL nodes, ascending —
		// their reference relative order.
		gkeep := r.gkeep[:0]
		for _, id := range r.globals {
			n := m.Nodes[id]
			retired := n.Proc.Stats.Instructions
			c, err := n.Proc.Step()
			if err != nil {
				return false, fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
			}
			if c > 1 {
				m.wakeq.push(id, m.now+uint64(c))
			} else {
				gkeep = append(gkeep, id)
			}
			if n.Proc.Stats.Instructions != retired {
				m.lastProgress = m.now
				n.lastRetired = m.now
			}
			if m.Sched.MainDone {
				// Unreachable while the classifier routes every
				// run-ending service to the sequential path; mirror the
				// reference's early exit anyway.
				break
			}
		}
		r.gkeep = gkeep

		// Rebuild the running list: the concatenated shard keeps are
		// ascending (shard blocks are contiguous id ranges), merged with
		// the ascending phase-2 keeps.
		keep := m.running[:0]
		gi := 0
		for s := range r.shards {
			for _, id := range r.shards[s].keep {
				for gi < len(gkeep) && gkeep[gi] < id {
					keep = append(keep, gkeep[gi])
					gi++
				}
				keep = append(keep, id)
			}
		}
		keep = append(keep, gkeep[gi:]...)
		m.running = keep

		if m.net != nil {
			m.net.tickSharded(r)
		}
		m.now++
		if err := m.watchdogs(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// fabricStage is one shard's staged work for a parallel fabric tick:
// the deliveries the coordinator pulled for the shard's nodes (drains
// spans msgs per node) and the protocol sends its controllers produced
// while staging was on. The coordinator replays recycles and sends in
// shard order after the join, reproducing the sequential tick's pool
// and network operation sequence exactly.
type fabricStage struct {
	msgs   []*network.Message
	drains []drainSpan
	sends  []stagedSend
	ids    []int // gatherShardDirty scratch
}

type drainSpan struct{ node, lo, hi int }

type stagedSend struct {
	src, dst int
	msg      directory.Msg
}

// tickSharded is tick's counterpart for parallel cycles. The network
// advances and deliveries are pulled on the coordinator (both mutate
// shared network state); message handling and outbox maturation fan out
// to the workers with sends staged; then the coordinator replays pool
// recycles and network sends in the exact order the sequential tick
// would have issued them: every drain's batch recycle, node-ascending,
// before every flush's alloc+send, dirty-controller-ascending — the
// same all-drains-then-all-flushes shape tickInner has, and shard
// blocks are contiguous id ranges so shard order is id order.
func (f *netFabric) tickSharded(r *shardRunner) {
	f.now++
	f.net.Tick()
	f.pendBuf = f.net.PendingNodes(f.pendBuf[:0])
	work := len(f.pendBuf)
	for _, b := range f.dirty {
		work += len(b)
	}
	if work < r.batch {
		// Small cycle: inline, identical to the sequential tick body.
		// (The invariant checkers force one shard, so the sequential
		// tick's checkPool wrapper has nothing to do here.)
		for _, node := range f.pendBuf {
			f.drainInto(node, f.ctls[node])
		}
		for _, id := range f.gatherDirty() {
			ctl := f.ctls[id]
			ctl.processRecalls()
			ctl.flushOutbox()
		}
		return
	}
	for _, st := range f.stages {
		st.msgs = st.msgs[:0]
		st.drains = st.drains[:0]
		st.sends = st.sends[:0]
	}
	for _, node := range f.pendBuf {
		st := f.stages[f.shardOf[node]]
		lo := len(st.msgs)
		st.msgs = f.net.Deliveries(node, st.msgs)
		st.drains = append(st.drains, drainSpan{node: node, lo: lo, hi: len(st.msgs)})
	}
	f.staging = true
	r.parallel(r.tickFn)
	f.staging = false
	for _, st := range f.stages {
		for _, d := range st.drains {
			f.net.Recycle(st.msgs[d.lo:d.hi])
		}
	}
	for _, st := range f.stages {
		for i := range st.sends {
			snd := &st.sends[i]
			nm := f.net.Alloc()
			nm.Src = snd.src
			nm.Dst = snd.dst
			nm.Size = snd.msg.Size(f.cfg.Cache.BlockBytes)
			nm.Payload = network.CoherencePayload(snd.msg)
			f.net.Send(nm)
		}
	}
}

// tickShard is the fabric phase's worker body: handle this shard's
// staged deliveries, then mature its dirty controllers' queues, with
// network sends staged for the coordinator. Every mutation is confined
// to the shard's own controllers, rings, and stage buffers.
func (f *netFabric) tickShard(s int) {
	st := f.stages[s]
	for _, d := range st.drains {
		ctl := f.ctls[d.node]
		for _, nm := range st.msgs[d.lo:d.hi] {
			ctl.handle(nm.Payload.Coh)
		}
	}
	dirty := f.gatherShardDirty(s)
	for _, id := range dirty {
		ctl := f.ctls[id]
		ctl.processRecalls()
		ctl.flushOutbox()
	}
}

// gatherShardDirty snapshots and clears one shard's dirty bucket in
// ascending order, exactly as gatherDirty does for the whole set. Each
// bucket holds only the shard's own nodes, so concurrent calls from
// different workers touch disjoint state.
func (f *netFabric) gatherShardDirty(s int) []int {
	st := f.stages[s]
	ids := append(st.ids[:0], f.dirty[s]...)
	f.dirty[s] = f.dirty[s][:0]
	slices.Sort(ids)
	for _, id := range ids {
		f.dirtyCtl[id] = false
	}
	st.ids = ids
	return ids
}
