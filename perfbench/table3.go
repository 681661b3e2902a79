package main

import (
	"fmt"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/rts"
)

// paperTable3 is Table 3 of the paper: execution time normalized to the
// sequential T time, per program and system. The first value of each
// row is the "Mul-T seq" column, the rest the parallel runs at the
// processor counts of the system (the Encore was measured up to 8
// processors, APRIL up to 16). The "T seq" column is 1.0 by definition
// and is not a cell.
var paperTable3 = map[string]map[string][]float64{
	"fib": {
		"Encore":   {1.8, 28.9, 16.3, 9.2, 5.1},
		"APRIL":    {1.0, 14.2, 7.1, 3.6, 1.8, 0.97},
		"Apr-lazy": {1.0, 1.5, 0.78, 0.44, 0.29, 0.19},
	},
	"factor": {
		"Encore":   {1.4, 1.9, 0.96, 0.50, 0.26},
		"APRIL":    {1.0, 1.8, 0.90, 0.45, 0.23, 0.12},
		"Apr-lazy": {1.0, 1.0, 0.52, 0.26, 0.14, 0.09},
	},
	"queens": {
		"Encore":   {1.8, 2.1, 1.0, 0.54, 0.31},
		"APRIL":    {1.0, 1.4, 0.67, 0.33, 0.18, 0.10},
		"Apr-lazy": {1.0, 1.0, 0.51, 0.26, 0.13, 0.07},
	},
	"speech": {
		"Encore":   {2.0, 2.3, 1.2, 0.62, 0.36},
		"APRIL":    {1.0, 1.2, 0.60, 0.31, 0.17, 0.10},
		"Apr-lazy": {1.0, 1.0, 0.52, 0.27, 0.15, 0.09},
	},
}

// table3System is one system column group of Table 3.
type table3System struct {
	name  string
	prof  rts.Profile
	mode  mult.Mode // parallel-mode compilation
	procs []int
}

var table3Systems = []table3System{
	{"Encore", rts.Encore, mult.Mode{}, []int{1, 2, 4, 8}},
	{"APRIL", rts.APRIL, mult.Mode{HardwareFutures: true}, []int{1, 2, 4, 8, 16}},
	{"Apr-lazy", rts.APRIL, mult.Mode{HardwareFutures: true, LazyFutures: true}, []int{1, 2, 4, 8, 16}},
}

// gridOps lists every run of the Table 3 grid at the paper sizes, on
// perfect memory, in paper order: per program and system the "T seq"
// run, the "Mul-T seq" run, then one run per processor count.
func gridOps() []simOp {
	var ops []simOp
	for _, prog := range bench.Names {
		for _, sys := range table3Systems {
			base := fmt.Sprintf("%s/%s", prog, sys.name)
			ops = append(ops,
				simOp{label: base + "/tseq", program: prog, nodes: 1, prof: sys.prof,
					mode: mult.Mode{HardwareFutures: true, Sequential: true}},
				simOp{label: base + "/multseq", program: prog, nodes: 1, prof: sys.prof,
					mode: mult.Mode{HardwareFutures: sys.mode.HardwareFutures, Sequential: true}})
			for _, p := range sys.procs {
				ops = append(ops, simOp{label: fmt.Sprintf("%s/%dp", base, p), program: prog,
					nodes: p, prof: sys.prof, mode: sys.mode})
			}
		}
	}
	return ops
}

// table3Err is the mean |ln(measured/paper)| over every Table 3 cell
// the paper reports, with the measured cells normalized from the grid
// runs' simulated cycles exactly as the paper normalizes: each run's
// cycles over its row's "T seq" cycles. It fails when a run the table
// needs is missing.
func table3Err(cycles map[string]uint64) (float64, int, error) {
	var measured, paper []float64
	for _, prog := range bench.Names {
		for _, sys := range table3Systems {
			base := fmt.Sprintf("%s/%s", prog, sys.name)
			tseq := cycles[base+"/tseq"]
			if tseq == 0 {
				return 0, 0, fmt.Errorf("table3: no T seq run for %s", base)
			}
			labels := []string{base + "/multseq"}
			for _, p := range sys.procs {
				labels = append(labels, fmt.Sprintf("%s/%dp", base, p))
			}
			ref := paperTable3[prog][sys.name]
			if len(ref) != len(labels) {
				return 0, 0, fmt.Errorf("table3: %s has %d paper cells, %d runs", base, len(ref), len(labels))
			}
			for _, l := range labels {
				c, ok := cycles[l]
				if !ok {
					return 0, 0, fmt.Errorf("table3: no run %s", l)
				}
				measured = append(measured, float64(c)/float64(tseq))
			}
			paper = append(paper, ref...)
		}
	}
	e, n := logErr(measured, paper)
	return e, n, nil
}
