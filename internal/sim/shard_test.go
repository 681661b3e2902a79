package sim_test

// Differential tests for sharded execution: the same program on the
// same machine must produce bit-identical cycle counts, Stats, answers,
// and timeline rows for every shard count, with faults armed and with
// tracing enabled. ShardBatch is pinned to 1 so every eligible cycle
// actually exercises the parallel phases instead of the inline
// small-cycle fallback. All tests here match `go test -run Shard`,
// which CI also runs under -race.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/trace"
)

type shardConfig struct {
	nodes   int
	shards  int
	alewife bool
	ideal   bool // ideal network instead of the torus (alewife only)
	faults  *fault.Config
	tracing bool
	ringCap int
}

type shardOutcome struct {
	ffOutcome
	rings []ringDigest
}

// ringDigest is one node's trace ring reduced to what sharding must
// preserve: the event count and the multiset of events. Within a cycle
// a global actor's emission onto another node's ring may interleave
// differently than the reference order, so events are compared sorted
// by (Cycle, Kind, A, B, C, D) — the multiset, not the sequence.
type ringDigest struct {
	total  uint64
	events []trace.Event
}

func runSharded(t *testing.T, src string, cfg shardConfig) shardOutcome {
	t.Helper()
	var aw *sim.AlewifeConfig
	if cfg.alewife {
		aw = &sim.AlewifeConfig{IdealNet: cfg.ideal}
	}
	m, err := sim.New(sim.Config{
		Nodes:      cfg.nodes,
		Profile:    rts.APRIL,
		Alewife:    aw,
		Shards:     cfg.shards,
		ShardBatch: 1,
		Faults:     cfg.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sampler *trace.Sampler
	if cfg.tracing {
		m.EnableTracing(cfg.ringCap)
		sampler = m.EnableTimeline(256)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out shardOutcome
	out.cycles = res.Cycles
	out.value = res.Formatted
	for _, n := range m.Nodes {
		out.stats = append(out.stats, n.Proc.Stats)
	}
	if sampler != nil {
		out.samples = sampler.Rows()
	}
	if tr := m.Tracer(); tr != nil {
		for i := 0; i < tr.Nodes(); i++ {
			ring := tr.Node(i)
			if d := ring.Dropped(); d != 0 {
				t.Fatalf("node %d ring dropped %d events; grow ringCap so multisets are comparable", i, d)
			}
			evs := ring.Events()
			slices.SortFunc(evs, cmpEvent)
			out.rings = append(out.rings, ringDigest{total: ring.Total(), events: evs})
		}
	}
	return out
}

func cmpEvent(a, b trace.Event) int {
	switch {
	case a.Cycle != b.Cycle:
		if a.Cycle < b.Cycle {
			return -1
		}
		return 1
	case a.Kind != b.Kind:
		return int(a.Kind) - int(b.Kind)
	case a.A != b.A:
		return int(a.A) - int(b.A)
	case a.B != b.B:
		return int(a.B) - int(b.B)
	case a.C != b.C:
		return int(a.C) - int(b.C)
	default:
		return int(a.D) - int(b.D)
	}
}

func compareSharded(t *testing.T, got, want shardOutcome) {
	t.Helper()
	compareOutcomes(t, got.ffOutcome, want.ffOutcome)
	if len(got.rings) != len(want.rings) {
		t.Fatalf("ring count: %d vs %d", len(got.rings), len(want.rings))
	}
	for i := range got.rings {
		if got.rings[i].total != want.rings[i].total {
			t.Errorf("node %d ring total: %d vs %d", i, got.rings[i].total, want.rings[i].total)
			continue
		}
		if !reflect.DeepEqual(got.rings[i].events, want.rings[i].events) {
			t.Errorf("node %d event multiset diverges (%d events)", i, len(got.rings[i].events))
		}
	}
}

// TestShardDifferentialMatrix is the headline contract: every cell of
// (program x memory system x machine size x shard count) is
// bit-identical to the sequential (Shards=1) run.
func TestShardDifferentialMatrix(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(10),
		"queens": bench.QueensSource(5),
	}
	for name, src := range programs {
		for _, alewife := range []bool{false, true} {
			mode := "perfect"
			if alewife {
				mode = "alewife"
			}
			for _, nodes := range []int{4, 8, 64, 256} {
				base := runSharded(t, src, shardConfig{nodes: nodes, shards: 1, alewife: alewife})
				for _, shards := range []int{2, 4, 8} {
					t.Run(fmt.Sprintf("%s/%s/%dp/%dshards", name, mode, nodes, shards), func(t *testing.T) {
						got := runSharded(t, src, shardConfig{nodes: nodes, shards: shards, alewife: alewife})
						compareSharded(t, got, base)
					})
				}
			}
		}
	}
}

// TestShardFaultsDifferential arms a seeded fault plan: its draws are
// site/sequence hashed and order-independent, so the perturbed run —
// shifted cycle counts and all — must still be bit-identical across
// shard counts, on both network backends.
func TestShardFaultsDifferential(t *testing.T) {
	src := bench.QueensSource(5)
	for _, ideal := range []bool{false, true} {
		net := "torus"
		if ideal {
			net = "ideal"
		}
		fc := fault.Default(9)
		base := runSharded(t, src, shardConfig{nodes: 8, shards: 1, alewife: true, ideal: ideal, faults: &fc})
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/%dshards", net, shards), func(t *testing.T) {
				got := runSharded(t, src, shardConfig{nodes: 8, shards: shards, alewife: true, ideal: ideal, faults: &fc})
				compareSharded(t, got, base)
			})
		}
	}
}

// TestShardTracingDifferential runs with the tracer and timeline
// sampler attached: timeline rows must match exactly, and every node's
// trace ring must record the same events (as a per-cycle multiset; see
// ringDigest) and the same totals — the rings are per-node and must be
// written race-free by the parallel phases.
func TestShardTracingDifferential(t *testing.T) {
	src := bench.QueensSource(5)
	const ringCap = 1 << 16
	for _, alewife := range []bool{false, true} {
		mode := "perfect"
		if alewife {
			mode = "alewife"
		}
		base := runSharded(t, src, shardConfig{nodes: 8, shards: 1, alewife: alewife, tracing: true, ringCap: ringCap})
		for _, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/%dshards", mode, shards), func(t *testing.T) {
				got := runSharded(t, src, shardConfig{nodes: 8, shards: shards, alewife: alewife, tracing: true, ringCap: ringCap})
				compareSharded(t, got, base)
			})
		}
	}
}
