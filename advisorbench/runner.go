package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opRec is one measured operation: a solve, a delta's freshness or an
// ingest epoch.
type opRec struct {
	pass int // global pass number
	idx  int // position in the workload's fixed operation set
	ms   float64
	cost float64
	ok   bool
}

// phase is one set of passes: the whole untraced run, or the untraced or
// the traced passes of a traced run.
type phase struct {
	ops     []*opRec
	passSec []float64
}

// runner collects operations, output-check failures and per-layer
// observations for one run.
type runner struct {
	cfg config
	out io.Writer
	tr  *tracer // nil while tracing is off

	phases []*phase
	cur    *phase // the phase the running pass belongs to
	passNo int    // global pass counter, also the current pass
	// inputNo is the pass number a workload's varying inputs derive from.
	// In a traced run an untraced pass and the traced pass after it share
	// it, so the two differ only in tracing.
	inputNo int
	passMs  float64 // op time accumulated in the current pass
	ref     map[int]float64
	// repeatCheck makes op require every pass to repeat the first pass's
	// costs bit for bit.
	repeatCheck bool

	problems []string
	obs      map[string][]float64
}

func newRunner(cfg config, out io.Writer) *runner {
	return &runner{cfg: cfg, out: out, ref: map[int]float64{}, repeatCheck: true, obs: map[string][]float64{}}
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// measure runs passes as one phase for at least budget, two passes and
// minOps operations.
func (r *runner) measure(ctx context.Context, w workload, budget time.Duration, minOps int) error {
	ph := &phase{}
	r.phases = append(r.phases, ph)
	start := time.Now()
	for n := 1; ; n++ {
		if err := r.runPass(ctx, w, ph, n-1); err != nil {
			return err
		}
		if n >= 2 && len(ph.ops) >= minOps && time.Since(start) >= budget {
			return nil
		}
	}
}

// measureTraced alternates untraced and traced passes for at least budget
// and two passes each, so drift over the run (heap growth, clock speed)
// affects both phases alike. Tracing stays on afterwards.
func (r *runner) measureTraced(ctx context.Context, w workload, budget time.Duration) error {
	untraced, traced := &phase{}, &phase{}
	r.phases = append(r.phases, untraced, traced)
	tr := newTracer()
	start := time.Now()
	for n := 1; ; n++ {
		r.tr = nil
		if err := r.runPass(ctx, w, untraced, n-1); err != nil {
			return err
		}
		r.tr = tr
		if err := r.runPass(ctx, w, traced, n-1); err != nil {
			return err
		}
		if n >= 2 && time.Since(start) >= budget {
			return nil
		}
	}
}

func (r *runner) runPass(ctx context.Context, w workload, ph *phase, inputNo int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	// Collect the previous pass's garbage now, outside every clock, rather
	// than inside this pass's timed calls.
	runtime.GC()
	r.cur, r.passMs, r.inputNo = ph, 0, inputNo
	if err := w.pass(ctx, r, r.passNo); err != nil {
		return fmt.Errorf("pass %d: %w", r.passNo, err)
	}
	r.passNo++
	ph.passSec = append(ph.passSec, r.passMs/1000)
	return nil
}

// op records one operation of the current pass. A non-nil err marks it
// failed; so does a cost that differs, bit for bit, from the cost the same
// operation produced on an earlier pass (every input is seeded, so the
// layouts must repeat exactly).
func (r *runner) op(idx int, ms, cost float64, err error) *opRec {
	o := &opRec{pass: r.passNo, idx: idx, ms: ms, cost: cost, ok: err == nil}
	switch {
	case err != nil:
		r.problem("pass %d op %d: %v", r.passNo, idx, err)
	case math.IsNaN(cost) || math.IsInf(cost, 0):
		o.ok = false
		r.problem("pass %d op %d: cost %v", r.passNo, idx, cost)
	case r.repeatCheck:
		if ref, seen := r.ref[idx]; !seen {
			r.ref[idx] = cost
		} else if ref != cost {
			o.ok = false
			r.problem("pass %d op %d: cost %.17g differs from an earlier pass's %.17g", r.passNo, idx, cost, ref)
		}
	}
	r.cur.ops = append(r.cur.ops, o)
	r.passMs += ms
	return o
}

// failOp marks an already recorded operation failed by a later check.
func (r *runner) failOp(o *opRec, format string, args ...any) {
	if o.ok {
		o.ok = false
		r.problem("pass %d op %d: %s", o.pass, o.idx, fmt.Sprintf(format, args...))
	}
}

// allOps lists every recorded operation in order.
func (r *runner) allOps() []*opRec {
	var all []*opRec
	for _, ph := range r.phases {
		all = append(all, ph.ops...)
	}
	return all
}

func (r *runner) attempted() int { return len(r.allOps()) }

func (r *runner) failed() int {
	n := 0
	for _, o := range r.allOps() {
		if !o.ok {
			n++
		}
	}
	return n
}

// problem records an output-check failure for the report; only the first 20
// are kept.
func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// observe adds one per-layer observation; the reported value aggregates
// them as perLayerMetrics says.
func (r *runner) observe(name string, v float64) {
	r.obs[name] = append(r.obs[name], v)
}

// refCosts returns the costs of the fixed operation set in index order.
func (r *runner) refCosts() []float64 {
	idx := make([]int, 0, len(r.ref))
	for i := range r.ref {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	costs := make([]float64, len(idx))
	for k, i := range idx {
		costs[k] = r.ref[i]
	}
	return costs
}

// endToEnd computes the untraced run's end-to-end metrics and prints them
// under the workload's own names.
func (r *runner) endToEnd(n reportNames, setups []float64, heapMB float64) map[string]metric {
	setupS := median(setups)
	ph := r.phases[0]
	lat := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		lat[i] = o.ms
	}
	p50 := median(lat)
	tl := tail(lat, n.tailPct)
	passS := median(ph.passSec)
	cost := mean(r.refCosts())

	r.printf("%-22s %.4f s (median of %d set-ups: %s)", "setup_s", setupS, len(setups), fmtList(setups))
	r.printf("%-22s %.3f ms (n=%d %s)", n.op+"_p50", p50, len(lat), n.opUnit)
	r.printf("%-22s %.3f ms (p%d of n=%d, %d beyond it)", n.op+"_tail", tl, n.tailPct, len(lat), len(lat)-(n.tailPct*len(lat)+99)/100)
	if n.note != "" {
		r.printf("%-22s (%s)", "", n.note)
	}
	r.printf("%-22s %.4f s (median of %d passes)", n.pass, passS, len(ph.passSec))
	if n.perPass > 0 {
		r.printf("%-22s %.0f 1/s", n.perPassName, n.perPass/passS)
	}
	r.printf("%-22s %.6f (mean balanced objective (6) of %d layouts)", "cost", cost, len(r.ref))
	r.printf("%-22s %d/%d", "fail_ratio", r.failed(), r.attempted())
	r.printf("%-22s %.3f MiB", "live_heap_mb", heapMB)
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"latency_ms_p50":  {p50, "ms"},
		"latency_ms_tail": {tl, "ms"},
		"pass_s":          {passS, "s"},
		"cost":            {cost, "cost"},
		"live_heap_mb":    {heapMB, "MiB"},
	}
}

// perLayerMetrics lists every per-layer metric with its unit and how its
// observations aggregate. A metric a workload does not reach reports 0.
var perLayerMetrics = []struct {
	name, unit string
	agg        func([]float64) float64
}{
	{"core.compile_ms", "ms", median},
	{"core.group_ms", "ms", median},
	{"core.rebuild_share", "share", median},
	{"core.patch_ms", "ms", median},
	{"core.apply_ns", "ns", median},
	{"core.apply_allocs", "count", median},
	{"core.evaluate_ns", "ns", median},
	{"core.apply_speedup", "x", median},
	{"sa.iters", "count", median},
	{"sa.level_ms", "ms", median},
	{"sa.idle_tail", "share", mean},
	{"sapar.rounds", "count", median},
	{"sapar.round_ms", "ms", median},
	{"portfolio.sapar_wins", "share", mean},
	{"portfolio.winner_iter_share", "share", mean},
	{"mip.nodes", "count", median},
	{"mip.ms_per_node", "ms", median},
	{"ingest.fold_ns_per_event", "ns", median},
	{"ingest.fold_allocs", "count", mean},
	{"ingest.epoch_ms", "ms", median},
	{"ingest.epoch_ops", "count", mean},
	{"ingest.state_kb", "KiB", median},
	{"session.resolve_ms", "ms", median},
	{"session.warm_wins", "share", mean},
	{"daemon.overhead_ms", "ms", median},
	{"daemon.stale_wait", "count", mean},
	{"daemon.extra_resolves", "count", mean},
	{"trace.overhead_pct", "%", median},
}

func (r *runner) layerMetrics() map[string]metric {
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v := 0.0
		if xs := r.obs[m.name]; len(xs) > 0 {
			v = m.agg(xs)
		}
		out[m.name] = metric{v, m.unit}
		r.printf("%-28s %14.4f %-5s (%d observations)", m.name, v, m.unit, len(r.obs[m.name]))
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
