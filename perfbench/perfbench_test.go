package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"april/internal/bench"
	"april/internal/harness"
	"april/internal/mult"
	"april/internal/rts"
)

func TestFrameLayer(t *testing.T) {
	cases := []struct{ fn, want string }{
		{"april/internal/sim.(*Machine).runFastUntil", "sim"},
		{"april/internal/proc.(*Processor).StepFused", "proc"},
		{"april/internal/harness.MapOccupancy[go.shape.struct { main.x int; april/internal/sim.y }].func1", "harness"},
		{"april/internal/sim/sub.F", "sim"},
		{"runtime.mallocgc", "go"},
		{"runtime.gcBgMarkWorker", "go"},
		{"runtime/pprof.(*profileBuilder).addCPUData", "go"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "go"},
		{"main.runOp", "bench"},
		{"april/perfbench.runOp", "bench"},
		{"hash/fnv.(*sum64a).Write", ""},
		{"sync.(*Mutex).Lock", ""},
		{"april.Run", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := frameLayer(c.fn); got != c.want {
			t.Errorf("frameLayer(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestStackLayer(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		// The leaf decides when it has a layer.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "april/internal/snapshot.(*Writer).Bytes"}, "go"},
		// Library code is charged to its nearest caller with a layer.
		{[]string{"hash/fnv.(*sum64a).Write", "april/internal/snapshot.Hash", "april/internal/sim.(*Machine).Snapshot"}, "snapshot"},
		{[]string{"sync.(*Mutex).Lock", "sort.Sort", "april/internal/harness.MapOccupancy[...].func1"}, "harness"},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.report"}, "bench"},
		{[]string{"sync.(*Mutex).Lock"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := stackLayer(c.frames); got != c.want {
			t.Errorf("stackLayer(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestRatios(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	sh := shares(map[string]int64{"proc": 3, "go": 1})
	if sh["proc"] != 0.75 || sh["go"] != 0.25 || sh["cache"] != 0 {
		t.Errorf("shares = %v", sh)
	}
	if sh := shares(map[string]int64{}); len(sh) != 0 {
		t.Errorf("shares of no samples = %v", sh)
	}
	if sh := shares(map[string]int64{"sim": 0}); sh["sim"] != 0 {
		t.Errorf("shares of zero samples = %v", sh)
	}
	// harness.occupancy is the pool's own BusyFraction.
	if got := (harness.Occupancy{Workers: 2, BusyNS: []uint64{100, 50}, WallNS: 100}).BusyFraction(); got != 0.75 {
		t.Errorf("occupancy = %v, want 0.75", got)
	}
	if got := (harness.Occupancy{}).BusyFraction(); got != 0 {
		t.Errorf("occupancy with no workers = %v, want 0", got)
	}
	if got := (harness.Occupancy{Workers: 1, BusyNS: []uint64{10}}).BusyFraction(); got != 0 {
		t.Errorf("occupancy with zero wall = %v, want 0", got)
	}
	// cache.hit_ratio on a machine without caches.
	if got := ratio(0, 0); got != 0 {
		t.Errorf("hit ratio with no accesses = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestLogErr(t *testing.T) {
	e, n := logErr([]float64{1, 2}, []float64{1, 2})
	if e != 0 || n != 2 {
		t.Errorf("identical cells: err %v over %d", e, n)
	}
	e, n = logErr([]float64{math.E, 1}, []float64{1, math.E})
	if math.Abs(e-1) > 1e-12 || n != 2 {
		t.Errorf("factor-e cells: err %v over %d, want 1 over 2", e, n)
	}
	e, n = logErr([]float64{0, 2}, []float64{1, 2})
	if e != 0 || n != 1 {
		t.Errorf("zero cell: err %v over %d, want 0 over 1", e, n)
	}
	if e, n := logErr(nil, nil); e != 0 || n != 0 {
		t.Errorf("no cells: err %v over %d", e, n)
	}
}

// paperCycles builds grid cycle counts that reproduce Table 3 exactly:
// every T seq run takes 100 000 cycles and every cell scales it.
func paperCycles(scale float64) map[string]uint64 {
	cycles := map[string]uint64{}
	for _, prog := range bench.Names {
		for _, sys := range table3Systems {
			base := fmt.Sprintf("%s/%s", prog, sys.name)
			cycles[base+"/tseq"] = 100000
			ref := paperTable3[prog][sys.name]
			cycles[base+"/multseq"] = uint64(math.Round(ref[0] * scale * 100000))
			for i, p := range sys.procs {
				cycles[fmt.Sprintf("%s/%dp", base, p)] = uint64(math.Round(ref[i+1] * scale * 100000))
			}
		}
	}
	return cycles
}

func TestTable3Err(t *testing.T) {
	e, n, err := table3Err(paperCycles(1))
	if err != nil || n != 68 || e > 1e-9 {
		t.Fatalf("exact grid: err %v over %d cells (%v), want 0 over 68", e, n, err)
	}
	e, _, err = table3Err(paperCycles(2))
	if err != nil || math.Abs(e-math.Ln2) > 1e-3 {
		t.Fatalf("doubled grid: err %v (%v), want ln 2", e, err)
	}
	cycles := paperCycles(1)
	delete(cycles, "fib/APRIL/16p")
	if _, _, err := table3Err(cycles); err == nil {
		t.Fatal("missing run: want an error")
	}
	if got := len(gridOps()); got != 80 {
		t.Fatalf("grid has %d runs, want 80", got)
	}
}

func TestReadCountersDigestIgnoresTiers(t *testing.T) {
	snap := map[string]map[string]uint64{
		"scheduler":    {"steals": 2, "tasks_created": 3, "blocks": 4},
		"node0.proc":   {"instructions": 10, "switches": 1, "useful_cycles": 6, "idle_cycles": 4},
		"node1.proc":   {"instructions": 5},
		"node0.memory": {"cache_hits": 9, "cache_misses": 1, "dir_invals_sent": 7},
		"network":      {"messages": 8, "delivered": 8, "total_latency": 80},
		"compile":      {"fused_ops": 5, "dispatches": 15},
		"epoch":        {"cycles": 3},
	}
	c, js, err := readCounters(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := counters{Instructions: 15, Switches: 1, Useful: 6, Idle: 4, Steals: 2, TasksCreated: 3, Blocks: 4,
		CacheHits: 9, CacheMisses: 1, InvalsSent: 7, Messages: 8, Delivered: 8, TotalLatency: 80,
		FusedOps: 5, Dispatches: 15, EpochCycles: 3}
	if c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
	snap["compile"]["fused_ops"], snap["epoch"]["cycles"] = 99, 99
	if _, js2, _ := readCounters(snap); !bytes.Equal(js, js2) {
		t.Error("digest input changed with tier telemetry")
	}
	snap["scheduler"]["steals"] = 3
	if _, js3, _ := readCounters(snap); bytes.Equal(js, js3) {
		t.Error("digest input ignored a simulated counter")
	}
}

func TestGate(t *testing.T) {
	op := simOp{label: "fib/x", program: "fib"}
	g := newGate()
	g.check([]simOp{op, op}, []opResult{
		{Label: op.label, Value: "2584", Digest: "a"},
		{Label: op.label, Value: "2584", Digest: "a"},
	})
	if g.attempted != 2 || g.failed != 0 {
		t.Fatalf("good ops: %d attempted, %d failed: %v", g.attempted, g.failed, g.reasons)
	}
	g.check([]simOp{op, op, op}, []opResult{
		{Label: op.label, Value: "2583", Digest: "a"},
		{Label: op.label, Value: "2584", Digest: "b"},
		{Label: op.label, Err: "boom"},
	})
	if g.attempted != 5 || g.failed != 3 {
		t.Fatalf("bad ops: %d attempted, %d failed, want 5 and 3", g.attempted, g.failed)
	}

	// A checkpointed run must match its uninterrupted run.
	ck := op
	ck.ckptAt = 100
	ref := uninterrupted(ck)
	g = newGate()
	g.check([]simOp{ref, ck}, []opResult{
		{Label: ref.label, Value: "2584", Digest: "a"},
		{Label: ck.label, Value: "2584", Digest: "b"},
	})
	if g.failed != 1 {
		t.Fatalf("restored run differing from the uninterrupted one: %d failed, want 1", g.failed)
	}
	g.lost(3, fmt.Errorf("child died"))
	if g.attempted != 5 || g.failed != 4 {
		t.Fatalf("lost ops: %d attempted, %d failed, want 5 and 4", g.attempted, g.failed)
	}
}

// pb appends protobuf fields for the decoder test.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(num, data)
}

func gzipped(t *testing.T, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestProfileLayersDecodes(t *testing.T) {
	var p pb
	for _, s := range []string{"", "runtime.mallocgc", "april/internal/sim.(*Machine).Run", "hash/fnv.(*sum64a).Write", "april/internal/snapshot.Hash"} {
		p = p.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, id))
	}
	// Location 1 inlines fnv into snapshot.Hash (innermost line first).
	p = p.bytes(4, pb(nil).varint(1, 1).bytes(4, pb(nil).varint(1, 3)).bytes(4, pb(nil).varint(1, 4)))
	p = p.bytes(4, pb(nil).varint(1, 2).bytes(4, pb(nil).varint(1, 1)))
	p = p.bytes(4, pb(nil).varint(1, 3).bytes(4, pb(nil).varint(1, 2)))
	// Samples: packed and unpacked location ids; value[0] is the count.
	p = p.bytes(2, pb(nil).packed(1, 1, 3).packed(2, 5, 50000000))
	p = p.bytes(2, pb(nil).varint(1, 2).varint(1, 3).packed(2, 2, 20000000))
	p = p.bytes(2, pb(nil).varint(1, 3).varint(2, 1).varint(2, 10000000))
	got, err := profileLayers(gzipped(t, p))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"snapshot": 5, "go": 2, "sim": 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	if _, err := profileLayers(gzipped(t, []byte{0x12, 0x05, 0x01})); err == nil {
		t.Error("truncated profile: want an error")
	}
}

var sink uint64

func TestProfileLayersRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
	pprof.StopCPUProfile()
	got, err := profileLayers(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range got {
		total += n
	}
	if total == 0 {
		t.Skip("the profile caught no samples")
	}
	if got["bench"] == 0 {
		t.Errorf("no samples in the benchmark's own code: %v", got)
	}
}

func TestTracedOpSpansAndDigest(t *testing.T) {
	op := simOp{label: "fib/APRIL/tseq", program: "fib", nodes: 1, prof: rts.APRIL,
		mode: mult.Mode{HardwareFutures: true, Sequential: true}}
	plain := runOp(op, 7, false, time.Now())
	traced := runOp(op, 7, true, time.Now())
	for _, r := range []opResult{plain, traced} {
		if r.Err != "" || r.Value != "2584" || r.Digest == "" {
			t.Fatalf("run: value %q, digest %q, err %q", r.Value, r.Digest, r.Err)
		}
	}
	if plain.Digest != traced.Digest {
		t.Errorf("traced run digest %s, untraced %s", traced.Digest, plain.Digest)
	}
	if len(plain.Spans) != 0 {
		t.Errorf("untraced run recorded %d spans", len(plain.Spans))
	}
	names := map[string]int{}
	for _, s := range traced.Spans {
		names[s.Name]++
		if s.Sim != 7 || s.Start > s.End {
			t.Errorf("span %+v", s)
		}
		if (s.Name == "sim") != (s.ID == 0 && s.Parent == -1) || (s.Name != "sim" && s.Parent != 0) {
			t.Errorf("span %+v: root must be id 0 with parent -1, others children of 0", s)
		}
	}
	for _, n := range []string{"sim", "build", "compile", "load", "run_window", "run", "report"} {
		if names[n] == 0 {
			t.Errorf("no %s span in %v", n, names)
		}
	}
}

func TestCheckpointReproducesUninterruptedRun(t *testing.T) {
	op := simOp{label: "fib/alewife/4n", program: "fib", nodes: 4, prof: rts.APRIL,
		mode: mult.Mode{HardwareFutures: true}, alewife: true, ckptAt: 5000}
	ck := runOp(op, 1, false, time.Now())
	ref := runOp(uninterrupted(op), 2, false, time.Now())
	if ck.Err != "" || ref.Err != "" {
		t.Fatalf("errors: %q, %q", ck.Err, ref.Err)
	}
	if ck.ImageB == 0 || ck.Digest != ref.Digest || ck.Cycles != ref.Cycles {
		t.Errorf("restored run: image %d B, digest %s cycles %d; uninterrupted: digest %s cycles %d",
			ck.ImageB, ck.Digest, ck.Cycles, ref.Digest, ref.Cycles)
	}
	op.ckptAt = ref.Cycles + 1
	if late := runOp(op, 3, false, time.Now()); late.Err == "" {
		t.Error("checkpoint after the end of the run: want an error")
	}
}
