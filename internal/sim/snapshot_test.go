package sim_test

// Checkpoint/restore differential tests. The headline contract: a
// machine snapshotted mid-run and restored must reach a bit-identical
// end state — same cycle count, same answer, same per-node Stats — as
// the machine that kept running, across every cell of the
// (program x memory system x machine size x shard count x faults)
// matrix, and across execution tiers (an image written by the compiled
// tier restores under the reference loop, and vice versa). Malformed
// images must fail with structured errors, never panics. All tests
// here match `go test -run Snapshot`, which CI also runs under -race.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"april/internal/bench"
	"april/internal/fault"
	"april/internal/mult"
	"april/internal/rts"
	"april/internal/sim"
	"april/internal/snapshot"
)

type snapConfig struct {
	nodes  int
	shards int
	aw     bool
	faults bool
}

func (c snapConfig) simConfig() sim.Config {
	var aw *sim.AlewifeConfig
	if c.aw {
		aw = &sim.AlewifeConfig{}
	}
	var fc *fault.Config
	if c.faults {
		f := fault.Default(9)
		fc = &f
	}
	return sim.Config{
		Nodes:      c.nodes,
		Profile:    rts.APRIL,
		Alewife:    aw,
		Shards:     c.shards,
		ShardBatch: 1,
		Faults:     fc,
	}
}

func snapMachine(t testing.TB, src string, cfg sim.Config) *sim.Machine {
	t.Helper()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(src, mult.Mode{HardwareFutures: true}, m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// finishOutcome drives a machine from its current state to completion
// and reduces it to the comparable outcome.
func finishOutcome(t *testing.T, m *sim.Machine) ffOutcome {
	t.Helper()
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := ffOutcome{cycles: res.Cycles, value: res.Formatted}
	for _, n := range m.Nodes {
		out.stats = append(out.stats, n.Proc.Stats)
	}
	return out
}

// roundTrip advances a machine by window cycles, snapshots it, restores
// the image under the given overrides, and returns both continuations'
// outcomes (original machine first).
func roundTrip(t *testing.T, m *sim.Machine, window uint64, ov sim.RestoreOverrides) (ffOutcome, ffOutcome) {
	t.Helper()
	if _, err := m.RunWindow(window); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sim.Restore(img, ov)
	if err != nil {
		t.Fatal(err)
	}
	return finishOutcome(t, m), finishOutcome(t, m2)
}

// TestSnapshotDifferentialMatrix: snapshot at a mid-run boundary,
// restore, run both to the end — every cell must be bit-identical.
func TestSnapshotDifferentialMatrix(t *testing.T) {
	programs := map[string]string{
		"fib":    bench.FibSource(10),
		"queens": bench.QueensSource(5),
	}
	for name, src := range programs {
		for _, aw := range []bool{false, true} {
			mode := "perfect"
			if aw {
				mode = "alewife"
			}
			for _, nodes := range []int{1, 4, 64} {
				for _, shards := range []int{1, 4} {
					if shards > nodes {
						continue
					}
					for _, faults := range []bool{false, true} {
						if faults && !aw {
							continue // fault plans perturb the memory fabric; perfect memory has none
						}
						cell := fmt.Sprintf("%s/%s/%dp/%dshards/faults=%v", name, mode, nodes, shards, faults)
						t.Run(cell, func(t *testing.T) {
							cfg := snapConfig{nodes: nodes, shards: shards, aw: aw, faults: faults}
							m := snapMachine(t, src, cfg.simConfig())
							orig, restored := roundTrip(t, m, 2048, sim.RestoreOverrides{
								Shards:     shards,
								ShardBatch: 1,
							})
							compareOutcomes(t, restored, orig)
						})
					}
				}
			}
		}
	}
}

// TestSnapshotDoesNotPerturb: taking a snapshot mid-run must not change
// the run — the snapshotted machine's end state matches a machine that
// ran straight through.
func TestSnapshotDoesNotPerturb(t *testing.T) {
	src := bench.QueensSource(5)
	cfg := snapConfig{nodes: 8, shards: 1, aw: true}
	straight := finishOutcome(t, snapMachine(t, src, cfg.simConfig()))

	m := snapMachine(t, src, cfg.simConfig())
	if _, err := m.RunWindow(2048); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	compareOutcomes(t, finishOutcome(t, m), straight)
}

// TestSnapshotCrossTierRestore: one image, written by the default
// (compiled) tier, restored under every other tier — reference loop,
// predecode-only, epoch-disabled, sharded — all reaching the same end
// state. Tier choice is a host decision and must never leak into
// simulated results.
func TestSnapshotCrossTierRestore(t *testing.T) {
	src := bench.FibSource(10)
	cfg := snapConfig{nodes: 8, shards: 1, aw: true}
	m := snapMachine(t, src, cfg.simConfig())
	if _, err := m.RunWindow(2048); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := finishOutcome(t, m)

	tiers := map[string]sim.RestoreOverrides{
		"compiled":  {},
		"reference": {Reference: true},
		"predecode": {DisableCompile: true},
		"no-epoch":  {DisableEpoch: true},
		"sharded":   {Shards: 4, ShardBatch: 1},
		"checked":   {Check: true},
	}
	for name, ov := range tiers {
		t.Run(name, func(t *testing.T) {
			m2, err := sim.Restore(img, ov)
			if err != nil {
				t.Fatal(err)
			}
			compareOutcomes(t, finishOutcome(t, m2), want)
		})
	}
}

// TestSnapshotRepeatedWindows: checkpoint every window of an
// eight-window run and restore each image; every restored continuation
// must agree with the original. This exercises boundaries in all run
// phases — startup, steady state, near completion.
func TestSnapshotRepeatedWindows(t *testing.T) {
	src := bench.FibSource(9)
	cfg := snapConfig{nodes: 4, shards: 1, aw: true}
	m := snapMachine(t, src, cfg.simConfig())

	var images [][]byte
	for i := 0; i < 8; i++ {
		done, err := m.RunWindow(1024)
		if err != nil {
			t.Fatal(err)
		}
		img, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
		if done {
			break
		}
	}
	want := finishOutcome(t, m)
	for i, img := range images {
		m2, err := sim.Restore(img, sim.RestoreOverrides{})
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		compareOutcomes(t, finishOutcome(t, m2), want)
	}
}

// TestSnapshotConfigHash: images from the same run carry the same
// identity hash; changing the machine-defining configuration or the
// program changes it; host knobs (shards, tier selection) do not.
func TestSnapshotConfigHash(t *testing.T) {
	hash := func(src string, cfg sim.Config) uint64 {
		m := snapMachine(t, src, cfg)
		h, err := m.ConfigHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// New fills the shared *AlewifeConfig in place, so every machine
	// gets a freshly built Config.
	base := func() sim.Config { return snapConfig{nodes: 4, shards: 1, aw: true}.simConfig() }
	src := bench.FibSource(8)
	h0 := hash(src, base())

	if h := hash(src, base()); h != h0 {
		t.Errorf("same config hashes differ: %#x vs %#x", h, h0)
	}
	sharded := base()
	sharded.Shards = 4
	if h := hash(src, sharded); h != h0 {
		t.Errorf("host knob (shards) changed the config hash")
	}
	noCompile := base()
	noCompile.DisableCompile = true
	if h := hash(src, noCompile); h != h0 {
		t.Errorf("host knob (DisableCompile) changed the config hash")
	}
	bigger := base()
	bigger.Nodes = 8
	if h := hash(src, bigger); h == h0 {
		t.Errorf("node count change did not change the config hash")
	}
	if h := hash(bench.FibSource(9), base()); h == h0 {
		t.Errorf("program change did not change the config hash")
	}

	// The image header carries the same hash ConfigHash reports.
	m := snapMachine(t, src, base())
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := snapshot.PeekHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ConfigHash != h0 {
		t.Errorf("header hash %#x, ConfigHash %#x", hdr.ConfigHash, h0)
	}
}

// TestSnapshotImageValidation: malformed images fail with structured
// errors classifiable by errors.Is — never a panic, never a silently
// wrong machine.
func TestSnapshotImageValidation(t *testing.T) {
	m := snapMachine(t, bench.FibSource(8), snapConfig{nodes: 4, shards: 1, aw: true}.simConfig())
	if _, err := m.RunWindow(1024); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte, want error) {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte(nil), img...))
			_, err := sim.Restore(bad, sim.RestoreOverrides{})
			if err == nil {
				t.Fatal("restore of malformed image succeeded")
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("error %v, want %v", err, want)
			}
		})
	}

	check("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, snapshot.ErrMagic)
	check("bad-version", func(b []byte) []byte { b[8] = 99; return b }, snapshot.ErrVersion)
	check("truncated-header", func(b []byte) []byte { return b[:20] }, snapshot.ErrTruncated)
	check("truncated-payload", func(b []byte) []byte { return b[:len(b)-100] }, snapshot.ErrTruncated)
	check("flipped-payload-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, snapshot.ErrChecksum)
	// A shortened payload resealed with a valid header+checksum passes
	// Open and must fail in the decoder as a structured truncation.
	check("resealed-short", func(b []byte) []byte {
		hdr, _ := snapshot.PeekHeader(b)
		payload := b[44 : len(b)-200]
		return snapshot.Seal(payload, hdr.ConfigHash, hdr.Cycle)
	}, snapshot.ErrTruncated)

	// Truncation sweep: no cut point may panic.
	for _, n := range []int{0, 7, 8, 12, 43, 44, 45, 100, len(img) / 2} {
		if n > len(img) {
			continue
		}
		if _, err := sim.Restore(img[:n], sim.RestoreOverrides{}); err == nil {
			t.Errorf("restore of %d-byte prefix succeeded", n)
		}
	}
}

// TestSnapshotCrashReportIncludesCheckpoint: a run that crashes after
// SetCheckpointInfo tells the user where the last checkpoint is and how
// to resume from it (satellite: crash recovery UX).
func TestSnapshotCrashReportIncludesCheckpoint(t *testing.T) {
	cfg := snapConfig{nodes: 4, shards: 1, aw: true}.simConfig()
	cfg.MaxCycles = 4096 // far below completion: force a budget crash
	m := snapMachine(t, bench.QueensSource(5), cfg)
	m.SetCheckpointInfo(1024, "april -restore ckpt/000001024.img")
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected cycle-budget crash")
	}
	var ce *sim.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *sim.CrashError", err)
	}
	if !ce.Report.HasCheckpoint || ce.Report.CheckpointCycle != 1024 {
		t.Fatalf("report checkpoint: valid=%v cycle=%d", ce.Report.HasCheckpoint, ce.Report.CheckpointCycle)
	}
	text := ce.Report.Render()
	for _, want := range []string{"last checkpoint: cycle 1024", "resume with: april -restore ckpt/000001024.img"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestSnapshotSabotageDeterminism: the planted invariant violation
// (Config.SabotageCycle) fires at the same cycle in a straight run and
// in a run restored from a pre-sabotage checkpoint — the property the
// divergence bisector depends on.
func TestSnapshotSabotageDeterminism(t *testing.T) {
	cfg := snapConfig{nodes: 4, shards: 1, aw: true}.simConfig()
	cfg.SabotageCycle = 3000
	m := snapMachine(t, bench.QueensSource(5), cfg)
	if _, err := m.RunWindow(1024); err != nil {
		t.Fatal(err)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := sim.Restore(img, sim.RestoreOverrides{Reference: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	// Advance past the sabotage cycle, then audit: the violation must
	// be present at exactly the planted cycle.
	if _, err := m2.RunWindow(3000 - 1024); err != nil {
		t.Fatal(err)
	}
	if err := m2.AuditNow(); err == nil {
		t.Fatal("audit after sabotage cycle found no violation")
	}

	// A second restore stopped one cycle short must still be clean.
	m3, err := sim.Restore(img, sim.RestoreOverrides{Reference: true, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.RunWindow(3000 - 1024 - 1); err != nil {
		t.Fatal(err)
	}
	if err := m3.AuditNow(); err != nil {
		t.Fatalf("audit one cycle before sabotage: %v", err)
	}
}
