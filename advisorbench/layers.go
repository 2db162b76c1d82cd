package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vpart"
	"vpart/internal/core"
)

// checkLayout is the output check every layout passes: the partitioning is
// feasible for the instance it was computed for, and vpart.Evaluate on that
// instance reproduces the reported cost.
func checkLayout(inst *vpart.Instance, p *vpart.Partitioning, reported vpart.Cost) error {
	if p == nil {
		return fmt.Errorf("no layout")
	}
	got, err := vpart.Evaluate(inst, vpart.DefaultModelOptions(), p)
	if err != nil {
		return fmt.Errorf("layout invalid: %w", err)
	}
	if !closeTo(got.Balanced, reported.Balanced) || !closeTo(got.Objective, reported.Objective) {
		return fmt.Errorf("Evaluate gives balanced %.17g objective %.17g, solver reported %.17g / %.17g",
			got.Balanced, got.Objective, reported.Balanced, reported.Objective)
	}
	return nil
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compiled is an instance's compile pipeline as Solve runs it: the original
// model, the reasonable-cuts grouping and the grouped model.
type compiled struct {
	orig, grouped *core.Model
	grouping      *core.Grouping
	compileMs     float64 // NewModelConstrained on the instance
	groupMs       float64 // GroupAttributesConstrained + the grouped compile
}

// compile times the pipeline once and returns its products.
func compile(inst *vpart.Instance) (*compiled, error) {
	mo := core.DefaultModelOptions()
	start := time.Now()
	orig, err := core.NewModelConstrained(inst, mo, nil)
	if err != nil {
		return nil, err
	}
	mid := time.Now()
	g, err := core.GroupAttributesConstrained(inst, nil)
	if err != nil {
		return nil, err
	}
	grouped, err := core.NewModelConstrained(g.Grouped, mo, nil)
	if err != nil {
		return nil, err
	}
	return &compiled{orig: orig, grouped: grouped, grouping: g,
		compileMs: ms(mid.Sub(start)), groupMs: ms(time.Since(mid))}, nil
}

// probeCompile observes core.compile_ms and core.group_ms over reps compiles
// of inst and returns the last pipeline plus the median rebuild time.
func probeCompile(r *runner, inst *vpart.Instance, reps int) (*compiled, float64, error) {
	var c *compiled
	var rebuild []float64
	for i := 0; i < reps; i++ {
		var err error
		if c, err = compile(inst); err != nil {
			return nil, 0, err
		}
		r.observe("core.compile_ms", c.compileMs)
		r.observe("core.group_ms", c.groupMs)
		rebuild = append(rebuild, c.compileMs+c.groupMs)
	}
	return c, median(rebuild), nil
}

// probeEvaluator measures the Evaluator on the grouped model at layout p
// (over the original model): one ApplyMoveTxn plus Undo, its allocations,
// and a full Evaluate for the same-run base of core.apply_speedup.
func probeEvaluator(r *runner, c *compiled, p *vpart.Partitioning) error {
	gp, err := c.grouping.Reduce(c.orig, c.grouped, p)
	if err != nil {
		return err
	}
	ev, err := core.NewEvaluator(c.grouped, gp)
	if err != nil {
		return err
	}
	txns, sites := c.grouped.NumTxns(), gp.Sites
	if sites < 2 {
		return fmt.Errorf("evaluator probe needs at least 2 sites")
	}
	const moves = 20000
	applyOnce := func() {
		for i := 0; i < moves; i++ {
			t := i % txns
			s := (gp.TxnSite[t] + 1 + (i/txns)%(sites-1)) % sites
			ev.ApplyMoveTxn(t, s)
			ev.Undo()
		}
	}
	applyOnce() // warm the journal to its high-water mark
	var before, after runtime.MemStats
	for rep := 0; rep < 5; rep++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		applyOnce()
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		r.observe("core.apply_ns", float64(el.Nanoseconds())/moves)
		r.observe("core.apply_allocs", float64(after.Mallocs-before.Mallocs)/moves)
	}
	evals := 1 + int(2e6/float64(c.grouped.NumAttrs()*c.grouped.NumTxns()+1))
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < evals; i++ {
			sink = c.grouped.Evaluate(gp).Balanced
		}
		r.observe("core.evaluate_ns", float64(time.Since(start).Nanoseconds())/float64(evals))
	}
	r.observe("core.apply_speedup", median(r.obs["core.evaluate_ns"])/median(r.obs["core.apply_ns"]))
	return nil
}

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64
