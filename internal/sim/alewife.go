package sim

import (
	"fmt"
	"slices"

	"april/internal/cache"
	"april/internal/directory"
	"april/internal/fault"
	"april/internal/isa"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/trace"
)

// AlewifeConfig enables the full ALEWIFE memory system: per-node
// caches kept strongly coherent by full-map directories over the
// packet-switched network. Remote misses trap the processor (forcing a
// context switch); local misses hold it for the memory latency
// (Section 2.1).
type AlewifeConfig struct {
	Cache      cache.Config     // zero value -> Table 4 default (64 KB, 16 B blocks)
	MemLatency int              // DRAM access, default 10 cycles (Table 4)
	Geometry   network.Geometry // zero -> fitted to the node count
	IdealNet   bool             // constant-latency network instead of the torus
	IdealLat   int              // one-way latency for IdealNet

	// PollCycles is the MHOLD retry interval for wait-on-miss flavors.
	PollCycles int
}

func (a *AlewifeConfig) fill(nodes int) error {
	if a.Cache == (cache.Config{}) {
		a.Cache = cache.DefaultConfig()
	}
	if err := a.Cache.Validate(); err != nil {
		return err
	}
	if a.MemLatency <= 0 {
		a.MemLatency = 10
	}
	if a.Geometry == (network.Geometry{}) {
		a.Geometry = network.FitGeometry(nodes)
	}
	if a.Geometry.Nodes() < nodes {
		return fmt.Errorf("sim: geometry %+v covers %d nodes, need %d", a.Geometry, a.Geometry.Nodes(), nodes)
	}
	if a.IdealLat <= 0 {
		a.IdealLat = 10
	}
	if a.PollCycles <= 0 {
		a.PollCycles = 4
	}
	return nil
}

// netFabric owns the interconnect and the per-node cache controllers.
//
// The fabric is work-proportional on the host: controllers with a
// nonempty outbox or recall queue are tracked in a dirty set, and tick
// and nextEvent visit only those (plus the nodes the network reports
// deliveries for) instead of scanning every controller each cycle.
// Processing the dirty set in ascending node id makes the skip
// invisible to simulated behavior — the dense scan's per-controller
// work is a no-op exactly when both queues are empty.
type netFabric struct {
	m     *Machine
	cfg   *AlewifeConfig
	net   network.Network
	ctls  []*cacheCtl
	dist  mem.Distribution
	now   uint64
	trace *trace.Tracer

	// Dirty-controller set. Invariant: every ctl whose outbox or
	// recallQ is nonempty has dirtyCtl[node] set and appears in exactly
	// one bucket of dirty (unsorted; tick sorts its snapshot). The set
	// is bucketed by shard so the sharded run loop's parallel phases can
	// mark controllers dirty without synchronization: a worker only ever
	// appends to its own shard's bucket. Unsharded machines use a single
	// bucket, which is the old flat list.
	dirtyCtl  []bool
	dirty     [][]int
	shardOf   []int32            // node -> dirty bucket; nil = single bucket
	idScratch []int              // tick's sorted snapshot, reused
	pendBuf   []int              // PendingNodes scratch, reused
	delivBuf  []*network.Message // Deliveries scratch, reused

	// Sharded-tick support (see shard.go). stages is non-nil when the
	// machine shards this fabric; staging redirects flushOutbox's
	// network sends into per-shard buffers (drained by the coordinator
	// at the horizon barrier) while the controllers run in parallel.
	stages  []*fabricStage
	staging bool

	// reference selects the pre-overhaul cost profile: tick and
	// nextEvent scan every controller each cycle instead of the dirty
	// set, as the differential oracle and throughput baseline.
	reference bool

	// plan perturbs timing (directory-reply delays here; the network
	// draws its own penalties) and check records invariant violations.
	// Both nil by default; clean runs take one nil test per hook.
	plan  *fault.Plan
	check *fault.Checker
}

// markDirty records that a controller has queued work (outbox or
// recallQ). Idempotent; called from every site that appends to either.
func (f *netFabric) markDirty(node int) {
	if f.reference {
		return // the reference tick scans every controller anyway
	}
	if !f.dirtyCtl[node] {
		f.dirtyCtl[node] = true
		s := f.shardOf[node]
		f.dirty[s] = append(f.dirty[s], node)
	}
}

// gatherDirty snapshots the whole dirty set into idScratch in ascending
// node id (the reference all-controllers order), clearing the flags and
// buckets so controllers that still have work re-mark themselves. The
// returned slice is valid until the next call.
func (f *netFabric) gatherDirty() []int {
	ids := f.idScratch[:0]
	for s, bucket := range f.dirty {
		ids = append(ids, bucket...)
		f.dirty[s] = bucket[:0]
	}
	slices.Sort(ids)
	f.idScratch = ids
	for _, id := range ids {
		f.dirtyCtl[id] = false
	}
	return ids
}

func (m *Machine) initAlewife() error {
	cfg := m.Cfg.Alewife
	if err := cfg.fill(m.Cfg.Nodes); err != nil {
		return err
	}
	var net network.Network
	if cfg.IdealNet {
		n := network.NewIdeal(cfg.Geometry.Nodes(), cfg.IdealLat)
		n.SetReferenceScan(m.Cfg.DisableFastForward)
		net = n
	} else {
		t, err := network.NewTorus(cfg.Geometry)
		if err != nil {
			return err
		}
		t.SetReferenceScan(m.Cfg.DisableFastForward)
		net = t
	}
	net.SetFaultPlan(m.plan)
	f := &netFabric{
		m:         m,
		cfg:       cfg,
		net:       net,
		dist:      mem.Distribution{Nodes: m.Cfg.Nodes, BlockSize: cfg.Cache.BlockBytes},
		dirtyCtl:  make([]bool, m.Cfg.Nodes),
		shardOf:   m.shardOf,
		dirty:     make([][]int, m.part.Shards()),
		reference: m.Cfg.DisableFastForward,
		plan:      m.plan,
		check:     m.checker,
	}
	if s := m.part.Shards(); s > 1 {
		f.stages = make([]*fabricStage, s)
		for i := range f.stages {
			f.stages[i] = &fabricStage{}
		}
	}
	m.net = f
	return nil
}

func (m *Machine) newCachePort(node int) proc.MemPort {
	f := m.net
	c, err := cache.New(f.cfg.Cache)
	if err != nil {
		panic(err) // config validated in initAlewife
	}
	prof := m.Cfg.Profile
	ctl := &cacheCtl{
		node:       node,
		fabric:     f,
		cache:      c,
		dir:        directory.New(),
		lockWindow: uint64(4*prof.Frames*(prof.SwitchCycles+prof.TrapEntry) + 64),
	}
	f.ctls = append(f.ctls, ctl)
	return ctl
}

// tick advances the interconnect one cycle and runs the controllers'
// message handling.
func (f *netFabric) tick() {
	f.tickInner()
	if f.check != nil {
		f.checkPool()
	}
}

func (f *netFabric) tickInner() {
	f.now++
	f.net.Tick()
	if f.reference {
		// Pre-overhaul dense scan: every node's inbox, every controller.
		for node, ctl := range f.ctls {
			f.drainInto(node, ctl)
		}
		for _, ctl := range f.ctls {
			ctl.processRecalls()
			ctl.flushOutbox()
		}
		return
	}
	f.pendBuf = f.net.PendingNodes(f.pendBuf[:0])
	for _, node := range f.pendBuf {
		f.drainInto(node, f.ctls[node])
	}
	// Snapshot and clear the dirty set, then run the controllers in
	// ascending node id — the reference all-controllers order.
	// Controllers that still have (or regain) work re-mark themselves
	// through the append-site hooks.
	for _, id := range f.gatherDirty() {
		ctl := f.ctls[id]
		ctl.processRecalls()
		ctl.flushOutbox()
	}
}

// drainInto is the consumer loop for one node's deliveries: the typed
// coherence payloads are copied out by value into the handler, then the
// whole batch is recycled — the explicit recycle point after which no
// *Message from this drain may be touched.
func (f *netFabric) drainInto(node int, ctl *cacheCtl) {
	buf := f.net.Deliveries(node, f.delivBuf[:0])
	for _, nm := range buf {
		ctl.handle(nm.Payload.Coh)
	}
	f.net.Recycle(buf)
	f.delivBuf = buf[:0]
}

// nextEvent returns the earliest fabric cycle at which a tick could do
// any work — deliver a network message, flush a matured outbox entry,
// or act on a deferred recall (interlock expiry or wait deadline) — or
// network.NoEvent when the whole memory system is quiescent. Ticks that
// end strictly before that cycle are guaranteed no-ops, which is the
// invariant Machine.Run's fast-forward path relies on. The estimate is
// conservative: waking at a cycle where the tick turns out to do
// nothing is harmless (the machine just resumes per-cycle stepping and
// re-evaluates), but it must never be later than a real event.
func (f *netFabric) nextEvent() uint64 {
	next := f.net.NextEvent()
	if f.reference {
		for _, id := range allCtlIDs(len(f.ctls), &f.idScratch) {
			next = f.ctlNextEvent(f.ctls[id], next)
		}
		return next
	}
	for _, bucket := range f.dirty {
		for _, id := range bucket {
			next = f.ctlNextEvent(f.ctls[id], next)
		}
	}
	return next
}

// ctlNextEvent folds one controller's queued-work deadlines into next.
func (f *netFabric) ctlNextEvent(ctl *cacheCtl, next uint64) uint64 {
	for i := range ctl.outbox {
		// A matured entry flushes on the very next tick.
		at := ctl.outbox[i].readyAt
		if at <= f.now {
			at = f.now + 1
		}
		if at < next {
			next = at
		}
	}
	for i := range ctl.recallQ {
		pr := &ctl.recallQ[i]
		at := pr.deadline
		if exp, held := ctl.locked.get(pr.msg.Block); held && exp < at {
			at = exp
		}
		if at <= f.now {
			at = f.now + 1
		}
		if at < next {
			next = at
		}
	}
	return next
}

// allCtlIDs fills *scratch with 0..n-1 (reference-mode nextEvent scans
// every controller).
func allCtlIDs(n int, scratch *[]int) []int {
	ids := (*scratch)[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	*scratch = ids
	return ids
}

// advance replays k guaranteed-no-op ticks in one step: the fabric and
// network clocks move forward, and nothing else can change (the caller
// established now+k < nextEvent()).
func (f *netFabric) advance(k uint64) {
	f.now += k
	f.net.Advance(k)
}

// missState tracks a requester-side outstanding transaction.
type missState struct {
	write bool
	start uint64

	// poisoned marks that a recall (Inv/Fetch) arrived while this miss
	// was outstanding. The recall may have crossed our grant in the
	// network, so the arriving Data/DataEx is stale and must be
	// dropped (the access re-requests). Without this a crossing recall
	// leaves two exclusive copies; acknowledging it immediately (rather
	// than deferring) avoids deadlock when our own request is still
	// queued at the home behind the recalling transaction.
	poisoned bool
}

// homeTx tracks a home-side multi-party transaction. Completed
// transactions return to the controller's freelist so the steady state
// reuses both the object and its queued-request capacity.
type homeTx struct {
	write     bool
	requester int
	acksLeft  int
	queued    []directory.Msg
}

func (c *cacheCtl) newTx(write bool, requester, acksLeft int) *homeTx {
	if n := len(c.txFree); n > 0 {
		tx := c.txFree[n-1]
		c.txFree[n-1] = nil
		c.txFree = c.txFree[:n-1]
		tx.write, tx.requester, tx.acksLeft = write, requester, acksLeft
		return tx
	}
	return &homeTx{write: write, requester: requester, acksLeft: acksLeft}
}

func (c *cacheCtl) freeTx(tx *homeTx) {
	tx.queued = tx.queued[:0]
	c.txFree = append(c.txFree, tx)
}

// CtlStats aggregates one controller's behavior.
type CtlStats struct {
	LocalMisses   uint64
	RemoteMisses  uint64
	RemoteLatency uint64 // summed cycles from request to data arrival
	Upgrades      uint64
}

// cacheCtl is the per-node cache and directory controller; it
// implements proc.MemPort.
type cacheCtl struct {
	node   int
	fabric *netFabric
	cache  *cache.Cache
	dir    *directory.Directory

	pending  blockTable[missState] // by value: missState is two words, no box
	homeTx   blockTable[*homeTx]
	txFree   []*homeTx // retired homeTx objects, recycled with their queued capacity
	outbox   []outMsg
	outSpare []outMsg // flushOutbox double buffer
	keepQ    []outMsg // flushOutbox not-yet-matured scratch
	fence    int      // outstanding flush writebacks (Section 3.4)

	// locked implements the anti-"cache tag" interlock of Section 3.1:
	// a freshly installed line is protected from recalls until the
	// local processor completes one access to it (or lockWindow cycles
	// pass), guaranteeing forward progress when nodes ping-pong a
	// block. The window must exceed a switch-spinning thread's retry
	// period — all resident frames rotating through context switches —
	// or every line is stolen before its requester returns.
	locked      blockTable[uint64] // block -> protection expiry cycle
	lockWindow  uint64
	recallQ     []pendingRecall // recalls deferred by the interlock or a miss
	recallSpare []pendingRecall // processRecalls double buffer
	targetsBuf  []int           // homeRequest invalidation-target scratch

	// replySeq numbers this node's directory data replies for the fault
	// plan's reply-delay draws; it advances in send order, which both
	// run loops reproduce identically.
	replySeq uint64

	Stats CtlStats
}

// pendingRecall is a recall waiting for the interlock to release or
// for an in-flight grant to land (bounded by deadline).
type pendingRecall struct {
	msg      directory.Msg
	deadline uint64
}

// recallWait bounds how long a recall waits for a crossing grant
// before assuming the request is merely queued at the home.
const recallWait = 160

type outMsg struct {
	msg     directory.Msg
	dst     int
	readyAt uint64
}

func (c *cacheCtl) send(dst int, msg directory.Msg, delay int) {
	msg.From = c.node
	if p := c.fabric.plan; p != nil && (msg.Kind == directory.Data || msg.Kind == directory.DataEx) {
		// A slow memory controller: data grants leave the home late.
		delay += p.ReplyDelay(c.node, c.replySeq)
		c.replySeq++
	}
	c.outbox = append(c.outbox, outMsg{msg: msg, dst: dst, readyAt: c.fabric.now + uint64(delay)})
	c.fabric.markDirty(c.node)
	c.fabric.trace.Emit(c.node, trace.KProtoSend,
		int32(msg.Kind), int32(msg.Block), int32(dst), int32(msg.Size(c.fabric.cfg.Cache.BlockBytes)))
}

// dirTrans records a directory state transition at this home node.
func (c *cacheCtl) dirTrans(block uint32, old, new directory.State, who int) {
	if old != new {
		c.fabric.trace.Emit(c.node, trace.KDirTrans, int32(block), int32(old), int32(new), int32(who))
	}
}

func (c *cacheCtl) flushOutbox() {
	// Handling a local delivery may append fresh messages to c.outbox;
	// take ownership of the current batch first so they are not lost
	// (they go out on the next cycle, like a real controller pipeline).
	// The batch and the not-yet-matured keeps swap between persistent
	// buffers so the steady state allocates nothing.
	box := c.outbox
	c.outbox = c.outSpare[:0]
	keep := c.keepQ[:0]
	for _, om := range box {
		if om.readyAt > c.fabric.now {
			keep = append(keep, om)
			continue
		}
		if om.dst == c.node {
			// Local delivery (home == requester side-channel).
			c.handle(om.msg)
			continue
		}
		f := c.fabric
		if f.staging {
			// Parallel fabric phase: the network is shared, so queue the
			// send for the coordinator to apply at the horizon barrier
			// (tickSharded replays staged sends in the sequential order).
			st := f.stages[f.shardOf[c.node]]
			st.sends = append(st.sends, stagedSend{src: c.node, dst: om.dst, msg: om.msg})
			continue
		}
		nm := f.net.Alloc()
		nm.Src = c.node
		nm.Dst = om.dst
		nm.Size = om.msg.Size(f.cfg.Cache.BlockBytes)
		nm.Payload = network.CoherencePayload(om.msg)
		f.net.Send(nm)
	}
	c.outbox = append(c.outbox, keep...)
	c.keepQ = keep[:0]
	c.outSpare = box[:0]
	if len(c.outbox) > 0 {
		c.fabric.markDirty(c.node)
	}
}

func (c *cacheCtl) mem() *mem.Memory { return c.fabric.m.Mem }

func (c *cacheCtl) blockOf(addr uint32) uint32 { return addr / c.fabric.cfg.Cache.BlockBytes }

// Access implements proc.MemPort.
func (c *cacheCtl) Access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (proc.MemResult, error) {
	res, err := c.access(addr, f, store, value)
	if c.fabric.check != nil {
		c.fabric.checkBlock(c.blockOf(addr))
	}
	return res, err
}

// EpochHit implements proc.EpochPort: the clock-free slice of access's
// hit path, driven by the epoch engine and the superinstruction
// handlers without a fabric tick. It completes a plain access iff the
// block is cached with the required permission — a store needs the
// exclusive copy; a load is satisfied by any copy — and mirrors the
// full hit path byte for byte: the same cache Lookup (hit counter and
// LRU touch), the same FEAccess against the flat store, the same dirty
// marking, and the same interlock release. Everything else (miss,
// upgrade, out-of-range address) refuses with no state touched, so the
// caller's fallback through Access observes exactly the state the
// reference path would. The callers exclude full/empty-flavored
// accesses, so needWrite reduces to store and FEAccess cannot
// sync-fault. Note a probe, not Lookup, makes the refusal decision: a
// refused access must not pre-count the miss the full path is about to
// count. The cache and the interlock table are each probed once; the
// hit then works on the slots found. (The invariant checkers force the
// compiled tier off, so the checkBlock audit in Access has no
// counterpart here.)
func (c *cacheCtl) EpochHit(addr uint32, store bool, value isa.Word) (isa.Word, bool, bool) {
	block := c.blockOf(addr)
	slot, st := c.cache.ProbeSlot(block)
	if slot < 0 || (store && st != cache.Exclusive) || !c.mem().InRange(addr) {
		return 0, false, false
	}
	lock := c.locked.find(block)
	if lock >= 0 {
		// A hit releases the first-use interlock, and a recall deferred
		// on that lock would then fire on the very next tick — earlier
		// than the nextEvent() horizon the epoch window was proved
		// against (which prices deferred recalls at lock expiry). Only
		// the per-op path, which ticks the fabric every cycle, may
		// perform that release.
		for i := range c.recallQ {
			if c.recallQ[i].msg.Block == block {
				return 0, false, false
			}
		}
	}
	c.cache.HitSlot(slot)
	res, err := proc.FEAccess(c.mem(), addr, isa.MemFlavor{}, store, value)
	if err != nil {
		// Unreachable: InRange held above and a plain flavored access
		// has no other failure mode. Refusing would desynchronize the
		// Lookup already counted, so fail loudly instead.
		panic(err)
	}
	if store {
		c.cache.MarkDirtySlot(slot)
	}
	if lock >= 0 {
		c.locked.deleteAt(lock)
	}
	return res.Value, res.Full, true
}

func (c *cacheCtl) access(addr uint32, f isa.MemFlavor, store bool, value isa.Word) (proc.MemResult, error) {
	needWrite := store || f.ResetFE || f.SetFE
	block := c.blockOf(addr)

	if slot, st := c.cache.LookupSlot(block); slot >= 0 && (st == cache.Exclusive || !needWrite) {
		res, err := proc.FEAccess(c.mem(), addr, f, store, value)
		if err == nil && res.Outcome == proc.OK && needWrite {
			c.cache.MarkDirtySlot(slot)
		}
		if err == nil {
			// One access completed: release the interlock.
			c.locked.del(block)
		}
		return res, err
	}

	// Miss (or upgrade). An outstanding transaction for this block?
	if c.pending.has(block) {
		return c.missResult(f), nil
	}

	home := c.fabric.dist.Home(addr)
	if home == c.node {
		if stall, ok := c.tryLocal(block, needWrite); ok {
			res, err := proc.FEAccess(c.mem(), addr, f, store, value)
			res.Stall += stall
			if err == nil && res.Outcome == proc.OK && needWrite {
				c.cache.MarkDirty(block)
			}
			c.Stats.LocalMisses++
			c.fabric.trace.Emit(c.node, trace.KLocalMiss, int32(block), int32(stall), b2i(needWrite), 0)
			return res, err
		}
		// Home here, but third parties hold the block: run the home
		// transaction against ourselves as requester.
		c.pending.put(block, missState{write: needWrite, start: c.fabric.now})
		c.fabric.trace.Emit(c.node, trace.KMissStart, int32(block), b2i(needWrite), int32(home), 0)
		kind := directory.ReadReq
		if needWrite {
			kind = directory.WriteReq
		}
		c.homeRequest(directory.Msg{Kind: kind, Block: block, From: c.node})
		return c.missResult(f), nil
	}

	// Remote home: issue the request.
	c.pending.put(block, missState{write: needWrite, start: c.fabric.now})
	c.fabric.trace.Emit(c.node, trace.KMissStart, int32(block), b2i(needWrite), int32(home), 0)
	kind := directory.ReadReq
	if needWrite {
		kind = directory.WriteReq
	}
	c.send(home, directory.Msg{Kind: kind, Block: block}, 0)
	return c.missResult(f), nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// missResult is the reply while a transaction is outstanding: trap
// flavors force a context switch; wait flavors hold the processor.
func (c *cacheCtl) missResult(f isa.MemFlavor) proc.MemResult {
	if f.WaitOnMiss {
		return proc.MemResult{Outcome: proc.OK, Retry: true, Stall: c.fabric.cfg.PollCycles}
	}
	return proc.MemResult{Outcome: proc.RemoteMiss}
}

// tryLocal satisfies a home-node miss without the network when the
// directory permits: nobody else holds the block (or only we do).
func (c *cacheCtl) tryLocal(block uint32, write bool) (stall int, ok bool) {
	if c.homeTx.has(block) {
		return 0, false
	}
	e := c.dir.Entry(block)
	self := c.node
	old := e.State
	switch e.State {
	case directory.Uncached:
	case directory.Shared:
		if write && e.Sharers.CountExcept(self) > 0 {
			return 0, false
		}
	case directory.Exclusive:
		if e.Owner != self {
			return 0, false
		}
	}
	if write {
		e.State = directory.Exclusive
		e.Owner = self
		e.Sharers.Clear()
	} else {
		if e.State != directory.Shared {
			e.State = directory.Shared
			e.Owner = -1
		}
		e.Sharers.Add(self)
	}
	c.dirTrans(block, old, e.State, self)
	c.install(block, write)
	return c.fabric.cfg.MemLatency, true
}

// install puts the block in the cache, handling the victim's protocol
// obligations.
func (c *cacheCtl) install(block uint32, write bool) {
	st := cache.Shared
	if write {
		st = cache.Exclusive
	}
	victim, evicted := c.cache.Insert(block, st)
	if !evicted {
		return
	}
	if victim.State == cache.Exclusive {
		// Notify the victim's home so the directory drops ownership.
		vhome := c.fabric.dist.Home(victim.Block * c.fabric.cfg.Cache.BlockBytes)
		c.send(vhome, directory.Msg{Kind: directory.WBNotify, Block: victim.Block}, 0)
	}
	// Shared victims are dropped silently; a later Inv to a non-holder
	// is acknowledged harmlessly.
}

// handle processes one protocol message at this controller.
func (c *cacheCtl) handle(msg directory.Msg) {
	c.handleMsg(msg)
	if c.fabric.check != nil {
		c.fabric.checkBlock(msg.Block)
	}
}

func (c *cacheCtl) handleMsg(msg directory.Msg) {
	switch msg.Kind {
	case directory.ReadReq, directory.WriteReq:
		c.homeRequest(msg)

	case directory.WBNotify, directory.FlushWB:
		// While a Fetch is in flight, the FetchAck path completes the tx.
		if !c.homeTx.has(msg.Block) {
			e := c.dir.Entry(msg.Block)
			if e.State == directory.Exclusive && e.Owner == msg.From {
				e.State = directory.Uncached
				e.Owner = -1
				c.dirTrans(msg.Block, directory.Exclusive, directory.Uncached, msg.From)
			}
		}
		c.dir.Writebacks++
		if msg.Kind == directory.FlushWB {
			c.send(msg.From, directory.Msg{Kind: directory.FlushAck, Block: msg.Block}, 0)
		}

	case directory.FlushAck:
		if c.fence > 0 {
			c.fence--
		}

	case directory.Inv, directory.Fetch:
		c.handleRecall(msg)

	case directory.InvAck, directory.FetchAck:
		c.homeAck(msg)

	case directory.Data, directory.DataEx:
		ms, busy := c.pending.get(msg.Block)
		if !busy {
			return // stale duplicate; drop
		}
		c.pending.del(msg.Block)
		c.Stats.RemoteMisses++
		c.Stats.RemoteLatency += c.fabric.now - ms.start
		c.fabric.trace.Emit(c.node, trace.KMissFill,
			int32(msg.Block), int32(c.fabric.now-ms.start), b2i(msg.Kind == directory.DataEx), b2i(ms.poisoned))
		if ms.poisoned {
			// A recall crossed this grant: the copy is already claimed
			// by a newer transaction. Drop it; the access re-requests
			// when retried — the "cache tag" interaction of Section 3.1.
			return
		}
		c.install(msg.Block, msg.Kind == directory.DataEx)
		c.locked.put(msg.Block, c.fabric.now+c.lockWindow)
		// Recalls that were waiting for this grant now queue behind the
		// first-use interlock (processRecalls applies them).
	}
}

// handleRecall routes an incoming Inv/Fetch:
//
//   - if a grant for the block may be in flight (miss pending, nothing
//     cached), wait for it — bounded by recallWait in case the request
//     is merely queued at the home — so the grant is not silently
//     orphaned into a second exclusive copy;
//   - if we still hold a copy, the recall applies to it now; a pending
//     upgrade's grant is then stale, so poison it;
//   - if the line is interlock-protected, wait for its first use
//     (Section 3.1's forward-progress interlock).
func (c *cacheCtl) handleRecall(msg directory.Msg) {
	_, cached := c.cache.Probe(msg.Block)
	if ms, busy := c.pending.get(msg.Block); busy {
		if !cached {
			c.recallQ = append(c.recallQ, pendingRecall{msg: msg, deadline: c.fabric.now + recallWait})
			c.fabric.markDirty(c.node)
			return
		}
		ms.poisoned = true
		c.pending.put(msg.Block, ms)
	}
	if exp, held := c.locked.get(msg.Block); held && c.fabric.now < exp {
		c.recallQ = append(c.recallQ, pendingRecall{msg: msg, deadline: c.fabric.now + recallWait})
		c.fabric.markDirty(c.node)
		return
	}
	c.recall(msg)
}

// processRecalls retries deferred recalls once their reason to wait has
// passed: the interlock released, the awaited grant arrived (the line
// is now present and, once used, surrendered), or the deadline expired
// (the "grant" was actually a queued request — ack now and poison).
func (c *cacheCtl) processRecalls() {
	if len(c.recallQ) == 0 {
		return
	}
	q := c.recallQ
	c.recallQ = c.recallSpare[:0]
	for _, pr := range q {
		block := pr.msg.Block
		if exp, held := c.locked.get(block); held && c.fabric.now < exp {
			c.recallQ = append(c.recallQ, pr)
			continue
		}
		ms, busy := c.pending.get(block)
		_, cached := c.cache.Probe(block)
		if busy && !cached && c.fabric.now < pr.deadline {
			c.recallQ = append(c.recallQ, pr)
			continue
		}
		if busy {
			ms.poisoned = true
			c.pending.put(block, ms)
		}
		c.recall(pr.msg)
	}
	c.recallSpare = q[:0]
	if len(c.recallQ) > 0 {
		c.fabric.markDirty(c.node)
	}
}

// recall services an Inv or Fetch against the local cache and
// acknowledges the home.
func (c *cacheCtl) recall(msg directory.Msg) {
	switch msg.Kind {
	case directory.Inv:
		c.cache.Invalidate(msg.Block)
		c.send(msg.From, directory.Msg{Kind: directory.InvAck, Block: msg.Block, Requester: msg.Requester}, 0)
	case directory.Fetch:
		if msg.Write {
			c.cache.Invalidate(msg.Block)
		} else {
			c.cache.SetState(msg.Block, cache.Shared)
		}
		c.send(msg.From, directory.Msg{Kind: directory.FetchAck, Block: msg.Block, Requester: msg.Requester}, 0)
	}
	if c.fabric.check != nil {
		// Recalls applied from processRecalls mutate cache state outside
		// the handle path; audit the block here to cover both routes.
		c.fabric.checkBlock(msg.Block)
	}
}

// homeRequest runs the directory state machine for a request arriving
// at this (home) node.
func (c *cacheCtl) homeRequest(req directory.Msg) {
	if tx, busy := c.homeTx.get(req.Block); busy {
		tx.queued = append(tx.queued, req)
		return
	}
	e := c.dir.Entry(req.Block)
	lat := c.fabric.cfg.MemLatency
	write := req.Kind == directory.WriteReq
	old := e.State
	defer func() { c.dirTrans(req.Block, old, e.State, req.From) }()

	if !write {
		c.dir.ReadMisses++
		switch e.State {
		case directory.Uncached, directory.Shared:
			e.State = directory.Shared
			e.Sharers.Add(req.From)
			c.send(req.From, directory.Msg{Kind: directory.Data, Block: req.Block}, lat)
		case directory.Exclusive:
			if e.Owner == req.From {
				// Owner lost its copy (silent race); re-grant.
				c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
				return
			}
			c.dir.Fetches++
			c.homeTx.put(req.Block, c.newTx(false, req.From, 1))
			c.send(e.Owner, directory.Msg{Kind: directory.Fetch, Block: req.Block, Requester: req.From, Write: false}, 0)
		}
		return
	}

	c.dir.WriteMisses++
	switch e.State {
	case directory.Uncached:
		e.State = directory.Exclusive
		e.Owner = req.From
		c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
	case directory.Shared:
		targets := e.Sharers.AppendMembers(c.targetsBuf[:0], req.From)
		c.targetsBuf = targets[:0]
		if len(targets) == 0 {
			e.State = directory.Exclusive
			e.Owner = req.From
			e.Sharers.Clear()
			c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
			return
		}
		c.dir.InvalsSent += uint64(len(targets))
		c.homeTx.put(req.Block, c.newTx(true, req.From, len(targets)))
		for _, t := range targets {
			c.send(t, directory.Msg{Kind: directory.Inv, Block: req.Block, Requester: req.From}, 0)
		}
	case directory.Exclusive:
		if e.Owner == req.From {
			c.send(req.From, directory.Msg{Kind: directory.DataEx, Block: req.Block}, lat)
			return
		}
		c.dir.Fetches++
		c.homeTx.put(req.Block, c.newTx(true, req.From, 1))
		c.send(e.Owner, directory.Msg{Kind: directory.Fetch, Block: req.Block, Requester: req.From, Write: true}, 0)
	}
}

// homeAck retires one acknowledgment of a pending home transaction and
// completes it when all are in.
func (c *cacheCtl) homeAck(msg directory.Msg) {
	tx, busy := c.homeTx.get(msg.Block)
	if !busy {
		return
	}
	tx.acksLeft--
	if tx.acksLeft > 0 {
		return
	}
	c.homeTx.del(msg.Block)
	e := c.dir.Entry(msg.Block)
	lat := c.fabric.cfg.MemLatency
	old := e.State
	if tx.write {
		e.State = directory.Exclusive
		e.Owner = tx.requester
		e.Sharers.Clear()
		c.send(tx.requester, directory.Msg{Kind: directory.DataEx, Block: msg.Block}, lat)
	} else {
		prevOwner := e.Owner
		e.State = directory.Shared
		e.Owner = -1
		if prevOwner >= 0 {
			e.Sharers.Add(prevOwner) // downgraded, keeps a read copy
		}
		e.Sharers.Add(tx.requester)
		c.send(tx.requester, directory.Msg{Kind: directory.Data, Block: msg.Block}, lat)
	}
	c.dirTrans(msg.Block, old, e.State, tx.requester)
	// Serve queued requests in arrival order. A served request may open
	// a fresh transaction on the same block; its queue is a different
	// homeTx, so iterating tx.queued stays safe. Retire tx (keeping its
	// queued capacity) only after the loop.
	for _, q := range tx.queued {
		c.homeRequest(q)
	}
	c.freeTx(tx)
}

// Flush implements proc.MemPort: software-enforced writeback and
// invalidation (Section 3.4). Dirty lines raise the fence counter
// until the home acknowledges.
func (c *cacheCtl) Flush(addr uint32) int {
	n := c.flush(addr)
	if c.fabric.check != nil {
		c.fabric.checkBlock(c.blockOf(addr))
	}
	return n
}

func (c *cacheCtl) flush(addr uint32) int {
	block := c.blockOf(addr)
	dirty, present := c.cache.Invalidate(block)
	if !present {
		return 1
	}
	home := c.fabric.dist.Home(addr)
	if dirty {
		c.fence++
		if home == c.node {
			e := c.dir.Entry(block)
			if e.State == directory.Exclusive && e.Owner == c.node {
				e.State = directory.Uncached
				e.Owner = -1
			}
			c.fence--
			return c.fabric.cfg.MemLatency
		}
		c.send(home, directory.Msg{Kind: directory.FlushWB, Block: block}, 0)
	}
	return 1
}

// Fence reports the outstanding flush count (read through LDIO).
func (c *cacheCtl) Fence() int { return c.fence }

var _ proc.MemPort = (*cacheCtl)(nil)
