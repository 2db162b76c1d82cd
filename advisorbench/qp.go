package main

import (
	"context"
	"fmt"
	"time"

	"vpart"
)

// qpTPCC: the paper's exact QP on TPC-C at 2, 3 and 4 sites — the only
// workload that runs the lp, mip and qp layers.
type qpTPCC struct {
	inst *vpart.Instance
	last *vpart.Solution // the latest 3-site layout, for the evaluator probe
}

var qpSites = []int{2, 3, 4}

func newQPTPCC(config) workload { return &qpTPCC{} }

func (w *qpTPCC) names() reportNames {
	return reportNames{op: "solve_ms", pass: "solve_s_sum", opUnit: "QP solves at 2, 3 and 4 sites", tailPct: 75,
		note: "three fixed solve sizes, not a distribution: p50 is the 3-site solve, the tail the 4-site one; the 2-site solve shows only in solve_s_sum"}
}

func (w *qpTPCC) solve(ctx context.Context, sites int, progress vpart.ProgressFunc) (*vpart.Solution, error) {
	sol, err := vpart.Solve(ctx, w.inst, vpart.Options{Sites: sites, Solver: "qp", Progress: progress})
	if err != nil {
		return nil, err
	}
	if !sol.Optimal {
		return sol, fmt.Errorf("%d sites: QP did not prove optimality (gap %g, %d nodes)", sites, sol.Gap, sol.Nodes)
	}
	return sol, checkLayout(w.inst, sol.Partitioning, sol.Cost)
}

func (w *qpTPCC) setup(ctx context.Context, r *runner) error {
	w.inst = vpart.TPCC()
	var err error
	w.last, err = w.solve(ctx, 3, nil) // anchor: warms the process up
	return err
}

func (w *qpTPCC) pass(ctx context.Context, r *runner, _ int) error {
	for i, sites := range qpSites {
		op := r.tr.newOp()
		sp := r.tr.begin("vpart.Solve", 0, op)
		_, fn := r.traceSolve(sp, op)
		start := time.Now()
		sol, err := w.solve(ctx, sites, fn)
		el := time.Since(start)
		r.tr.end(sp)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cost := 0.0
		if sol != nil {
			cost = sol.Cost.Balanced
		}
		r.op(i, ms(el), cost, err)
		if err != nil {
			continue
		}
		if sites == 3 {
			w.last = sol
		}
		if r.tr != nil && sol.Nodes > 0 {
			r.observe("mip.nodes", float64(sol.Nodes))
			r.observe("mip.ms_per_node", ms(el)/float64(sol.Nodes))
		}
	}
	return nil
}

// check has no cross-pass output check to make; in a traced run it probes
// the compile pipeline and the Evaluator.
func (w *qpTPCC) check(_ context.Context, r *runner) error {
	if r.tr == nil {
		return nil
	}
	c, rebuild, err := probeCompile(r, w.inst, 20)
	if err != nil {
		return err
	}
	var solveMs []float64
	for _, o := range r.phases[0].ops {
		solveMs = append(solveMs, o.ms)
	}
	r.observe("core.rebuild_share", rebuild/median(solveMs))
	return probeEvaluator(r, c, w.last.Partitioning)
}

func (w *qpTPCC) close() {}
