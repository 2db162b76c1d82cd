package main

import (
	"context"
	"fmt"
	"time"

	"vpart"
)

// coldSolve: one-shot portfolio solves of rndAt64x200 onto 8 sites. Every
// solve of an untraced run has its own seed, derived from --seed: the time an
// SA run takes depends on its seed, so a run averages over many of them. A
// traced run gives each traced pass the seeds of the untraced pass before it.
type coldSolve struct {
	cfg    config
	inst   *vpart.Instance
	anchor *vpart.Solution
}

const (
	coldSites = 8
	coldPass  = 4  // solves per pass
	coldCost  = 40 // solves the cost metric averages; an untraced run always makes them (p75 tail minimum)
)

// rndAt64x200 generates the paper's class-A random instance with 64 tables
// and 200 transactions (10 % updates): 924 attributes at the default seed.
func rndAt64x200(seed int64) (*vpart.Instance, error) {
	return vpart.RandomInstance(vpart.ClassA(64, 200, 10), seed)
}

func newColdSolve(cfg config) workload { return &coldSolve{cfg: cfg} }

func (w *coldSolve) names() reportNames {
	return reportNames{op: "solve_ms", pass: "solve_s_sum", opUnit: "portfolio solves", tailPct: 75}
}

func (w *coldSolve) options(seed int64) vpart.Options {
	return vpart.Options{Sites: coldSites, Solver: "portfolio", Seed: seed}
}

func (w *coldSolve) setup(ctx context.Context, r *runner) error {
	// No solve seed repeats within an untraced run, so its fixed-seed
	// repeatability is checked on the anchor, which every set-up solves with
	// the same seed. In a traced run each traced solve must also repeat the
	// cost of its untraced pair.
	r.repeatCheck = w.cfg.trace
	inst, err := rndAt64x200(w.cfg.instanceSeed)
	if err != nil {
		return err
	}
	w.inst = inst
	// The anchor solve also warms the process up: the first solve pays for
	// lazy set-up.
	anchor, err := vpart.Solve(ctx, inst, w.options(anchorSeed))
	if err != nil {
		return fmt.Errorf("anchor solve: %w", err)
	}
	if err := checkLayout(inst, anchor.Partitioning, anchor.Cost); err != nil {
		return fmt.Errorf("anchor solve: %w", err)
	}
	if w.anchor != nil && anchor.Cost.Balanced != w.anchor.Cost.Balanced {
		return fmt.Errorf("anchor solve cost %.17g differs from the previous set-up's %.17g", anchor.Cost.Balanced, w.anchor.Cost.Balanced)
	}
	w.anchor = anchor
	return nil
}

func (w *coldSolve) pass(ctx context.Context, r *runner, _ int) error {
	for i := r.inputNo * coldPass; i < (r.inputNo+1)*coldPass; i++ {
		opts := w.options(deriveSeed(w.cfg.seed, i))
		op := r.tr.newOp()
		sp := r.tr.begin("vpart.Solve", 0, op)
		st, fn := r.traceSolve(sp, op)
		opts.Progress = fn
		start := time.Now()
		sol, err := vpart.Solve(ctx, w.inst, opts)
		end := time.Now()
		r.tr.end(sp)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		st.finish(sol)
		cost := 0.0
		if err == nil {
			cost = sol.Cost.Balanced
			err = checkLayout(w.inst, sol.Partitioning, sol.Cost)
		}
		r.op(i, ms(end.Sub(start)), cost, err)
		if !r.repeatCheck && err == nil && i < coldCost {
			r.ref[i] = cost
		}
	}
	return nil
}

// check has no cross-pass output check to make; in a traced run it probes
// the compile pipeline and the Evaluator.
func (w *coldSolve) check(_ context.Context, r *runner) error {
	if r.tr == nil {
		return nil
	}
	c, rebuild, err := probeCompile(r, w.inst, 5)
	if err != nil {
		return err
	}
	var solveMs []float64
	for _, o := range r.phases[0].ops {
		solveMs = append(solveMs, o.ms)
	}
	r.observe("core.rebuild_share", rebuild/median(solveMs))
	return probeEvaluator(r, c, w.anchor.Partitioning)
}

func (w *coldSolve) close() {}
