// The epoch engine: multi-node execution through the compiled tier
// across provably safe horizons.
//
// The compiled tier (compile.go) only fired when a cycle had exactly
// one stepper, so multiprocessor runs — the configuration the paper
// actually argues for — stepped one op per node per cycle and, when
// sharded, barriered every cycle. The epoch engine generalizes the
// isolated-window proof from "one node runs while the rest sleep" to
// "this group of nodes runs undisturbed": before stepping a cycle with
// two or more steppers, the machine computes the group's safe horizon —
// the earliest cycle at which anything outside the group's epoch-safe
// ops can act — and executes every stepper in lockstep through the
// superinstruction handlers for the whole window, batching the fabric's
// provably uneventful ticks into one advance and paying the run loop's
// per-cycle costs (due-set pops, merges, and on sharded machines the
// phase barriers) once per window instead of once per cycle.
//
// The horizon proof. A window [now, B) is safe to execute in lockstep
// when no event from outside the stepping group can occur inside it,
// and no stepper performs an op whose effects leave the node before B:
//
//   - B <= wakeq.next(): no sleeping node joins mid-window, so the
//     stepping group is constant.
//   - B <= net.nextEvent()-1: no message delivery, outbox maturation,
//     deferred recall, or interlock expiry fires inside the window (the
//     fabric's event horizon covers both in-flight network messages and
//     every controller-side timer), so the per-cycle fabric ticks the
//     reference loop would run are all no-ops and batch into one
//     advance. IPIs ride the I/O path (classStop ops), not the fabric,
//     and cannot appear asynchronously: only a stepper's own STIO could
//     post one, and EpochStep refuses STIO.
//   - B <= sampler.NextBoundary(), limit, the deadlock deadline, and
//     the wedge-scan watermark: the observability and watchdog
//     schedules stay exactly per-op.
//   - Every op executed inside the window is epoch-safe (EpochStep):
//     a trap-free superinstruction that retires at cost 1 and touches
//     only this node's state — or a plain cached access protected by
//     the coherence protocol's exclusive-copy guarantee. Ops the proof
//     does not cover (traps, syscalls, misses, strict-future operands,
//     full/empty flavors, FLUSH, I/O, HALT, run-ending services) make
//     EpochStep refuse with no state touched; the window commits the
//     cycles before the refusal and the machine resumes per-op at the
//     refusing op's exact cycle — a mid-epoch fallback, not a reorder.
//
// Within a window every stepper executes one op per simulated cycle in
// ascending node id — the reference loop's own interleaving — so
// commitment needs no rewind: the committed prefix is bit-identical to
// per-cycle stepping by construction, and the differential matrices in
// epoch_test.go hold every {reference, predecode, compiled, epoch} x
// {shard count} x {horizon} row to that.

package sim

import (
	"fmt"
	"math/bits"
)

// epochWindow tries to run the cycle's steppers in lockstep through
// the compiled tier across the group's safe horizon. It returns
// full=true when the whole window committed: m.now advanced past it,
// the fabric replayed its no-op ticks, and every stepper remains a
// running 1-cycle node (the caller rebuilds the running list and
// continues its loop). Otherwise the window stopped at an epoch-unsafe
// op (or proved shorter than 2 cycles): any complete cycles are
// committed and m.now advanced to the stop cycle, steps[:si] have
// already stepped in it, and the caller finishes the cycle per-op from
// steps[si:] — the refused op executes at its exact reference cycle.
func (m *Machine) epochWindow(steps []int, limit uint64) (si int, full bool) {
	// The window bound: every external-event source the horizon proof
	// enumerates. Identical structure to fusedStep's single-node bound.
	b := limit
	if m.sampler != nil {
		if nb := m.sampler.NextBoundary(); nb < b {
			b = nb
		}
	}
	if w := m.wakeq.next(); w < b {
		b = w
	}
	if dl := m.lastProgress + m.deadlockWin + 1; dl < b {
		b = dl
	}
	if m.net != nil {
		ne := m.net.nextEvent()
		if ne <= m.now+1 {
			return 0, false
		}
		if ne-1 < b {
			b = ne - 1
		}
		if m.nextWedgeCheck < b {
			b = m.nextWedgeCheck
		}
	}
	if h := m.Cfg.Horizon; h > 0 {
		if hc := m.now + h; hc < b {
			b = hc
		}
	}
	if b <= m.now+1 {
		return 0, false // a 0/1-cycle window cannot beat the per-cycle path
	}
	w := b - m.now

	// Lockstep: one epoch-safe op per stepper per cycle, ascending node
	// id — the reference interleaving, executed without intervening
	// fabric ticks (all provably no-ops) or running-list rebuilds
	// (every op costs 1, so the group is invariant).
	var fc uint64
	stopped := false
loop:
	for fc = 0; fc < w; fc++ {
		for si = 0; si < len(steps); si++ {
			if !m.Nodes[steps[si]].Proc.EpochStep() {
				stopped = true
				break loop
			}
		}
	}
	if !stopped {
		si = 0
	}
	if fc == 0 && si == 0 {
		return 0, false // the very first op refused; nothing committed
	}

	// Commit the complete cycles: batch the fabric's no-op ticks (they
	// run with the fabric clock at m.now+1 .. m.now+fc, all strictly
	// before its next event) and advance simulated time. The partial
	// cycle's own tick, if any, comes from the caller's normal
	// end-of-cycle path.
	if fc > 0 {
		if m.net != nil {
			m.net.advance(fc)
		}
		m.now += fc
		c := m.now - 1
		for _, id := range steps {
			m.Nodes[id].lastRetired = c
		}
		m.lastProgress = c
	}
	if si > 0 {
		for _, id := range steps[:si] {
			m.Nodes[id].lastRetired = m.now
		}
		m.lastProgress = m.now
	}

	t := &m.epochTel
	t.Windows++
	t.Cycles += fc
	t.Ops += fc*uint64(len(steps)) + uint64(si)
	t.PartialOps += uint64(si)
	if stopped {
		t.Fallbacks++
	}
	h := bits.Len64(fc)
	if h >= len(t.LenHist) {
		h = len(t.LenHist) - 1
	}
	t.LenHist[h]++
	return si, !stopped
}

// epochFinishCycle completes a cycle the epoch engine stopped inside:
// steps[:si] already stepped (epoch-safe, cost 1, still running), the
// rest step per-op in ascending order — byte-for-byte the sequential
// cycle body, so the refused op (and anything after it) executes with
// exact reference semantics. Shared by the sharded loop; the fast loop
// inlines the same flow.
func (m *Machine) epochFinishCycle(steps []int, si int) error {
	keep := append(m.running[:0], steps[:si]...)
	for _, id := range steps[si:] {
		n := m.Nodes[id]
		retired := n.Proc.Stats.Instructions
		c, err := n.Proc.Step()
		if err != nil {
			return fmt.Errorf("cycle %d node %d: %w", m.now, n.Proc.ID, err)
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
	return m.watchdogs()
}

// EpochTelemetry returns the epoch engine's counters (all-zero when
// the engine is disarmed). Read while the machine is quiescent.
func (m *Machine) EpochTelemetry() EpochStats { return m.epochTel }

// EpochStats aggregates the epoch engine's behavior over a run: how
// often multi-node lockstep windows opened, how many cycles and
// node-steps they absorbed, and how they ended. All-zero when the
// engine is disarmed (DisableEpoch or anything disarming the compiled
// tier). Pure host-side observation: simulated results are
// bit-identical with the engine on or off.
type EpochStats struct {
	Windows uint64 // windows that executed at least one op
	Cycles  uint64 // complete simulated cycles committed inside windows
	Ops     uint64 // node-steps executed inside windows
	// PartialOps counts the steps of partially completed cycles (the
	// prefix executed before a mid-epoch stop); Fallbacks counts the
	// windows an epoch-unsafe op stopped (the rest ended at their
	// horizon bound).
	PartialOps uint64
	Fallbacks  uint64
	// LenHist is the committed-window-length histogram in power-of-two
	// buckets: LenHist[b] counts windows whose complete-cycle count has
	// bit length b — bucket 0 is fc=0 (only a partial cycle committed),
	// bucket 1 is fc=1, bucket 2 is 2-3, bucket 3 is 4-7, and so on;
	// the last bucket absorbs everything longer.
	LenHist [17]uint64
}
