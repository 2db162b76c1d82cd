package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"vpart"
)

// span is one timed interval at a layer boundary: a call the benchmark made
// into a layer, or a solver phase reconstructed from the progress stream.
// Spans of one operation share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0 = top level
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer started
	End    float64 `json:"end_us"`
}

// tracer holds spans in memory until the run ends. All methods are safe for
// concurrent use (portfolio children report from several goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates an operation id; 0 on a nil tracer.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span starting now and returns its id; 0 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.us(now)})
	return len(t.spans)
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.us(now)
}

// span records a finished interval [start, end]; a no-op on a nil tracer.
func (t *tracer) span(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: t.us(start), End: t.us(end)})
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / 1e3 }

// write stores the spans plus the run's identity as JSON at cfg.traceOut.
func (t *tracer) write(cfg config, untracedPassS, tracedPassS float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload      string  `json:"workload"`
		Seed          int64   `json:"seed"`
		GoVersion     string  `json:"go_version"`
		CPUs          int     `json:"cpus"`
		GoMaxProcs    int     `json:"gomaxprocs"`
		UntracedPassS float64 `json:"untraced_pass_s"`
		TracedPassS   float64 `json:"traced_pass_s"`
		Spans         []span  `json:"spans"`
	}{cfg.workload, cfg.seed, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		untracedPassS, tracedPassS, t.spans}
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// solveTrace follows one solve through its progress events: every SA
// temperature level and sa-par exchange round becomes a span under the
// solve's span, and the per-chain counters feed the sa, sapar and portfolio
// metrics when the solve ends.
type solveTrace struct {
	r      *runner
	parent int
	op     int

	mu     sync.Mutex
	chains map[string]*chainTrace
}

// chainTrace is one annealing chain (an SA run or the sa-par coordinator) as
// its events show it.
type chainTrace struct {
	rounds      bool            // sa-par exchange rounds rather than SA levels
	marks       []time.Duration // elapsed time at the end of each level/round
	iters       int
	lastImprove time.Duration
}

// traceSolve returns a collector and the progress callback feeding it, or
// nils while tracing is off — a nil callback keeps the solvers on their
// untraced fast path.
func (r *runner) traceSolve(parent, op int) (*solveTrace, vpart.ProgressFunc) {
	if r.tr == nil {
		return nil, nil
	}
	st := &solveTrace{r: r, parent: parent, op: op, chains: map[string]*chainTrace{}}
	return st, st.onEvent
}

func (st *solveTrace) onEvent(e vpart.Event) {
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	switch e.Kind {
	case vpart.EventIteration:
		rounds := strings.HasPrefix(e.Message, "round ")
		if !rounds && !strings.HasPrefix(e.Message, "level ") {
			return
		}
		c := st.chain(e.Solver)
		c.rounds = rounds
		prev := time.Duration(0)
		if n := len(c.marks); n > 0 {
			prev = c.marks[n-1]
		}
		c.marks = append(c.marks, e.Elapsed)
		if !rounds {
			c.iters = e.Iteration
		}
		name := "sa.level"
		if rounds {
			name = "sapar.round"
		}
		st.r.tr.span(name, st.parent, st.op, now.Add(prev-e.Elapsed), now)
	case vpart.EventIncumbent:
		if e.Solver != "portfolio" { // the portfolio's own event only relays a child's
			st.chain(e.Solver).lastImprove = e.Elapsed
		}
	}
}

func (st *solveTrace) chain(tag string) *chainTrace {
	c := st.chains[tag]
	if c == nil {
		c = &chainTrace{}
		st.chains[tag] = c
	}
	return c
}

// finish folds the solve's chains into the per-layer observations.
func (st *solveTrace) finish(sol *vpart.Solution) {
	if st == nil || sol == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.r
	saIters := 0
	for _, c := range st.chains {
		if len(c.marks) == 0 {
			continue
		}
		prev := time.Duration(0)
		for _, m := range c.marks {
			if c.rounds {
				r.observe("sapar.round_ms", ms(m-prev))
			} else {
				r.observe("sa.level_ms", ms(m-prev))
			}
			prev = m
		}
		if c.rounds {
			r.observe("sapar.rounds", float64(len(c.marks)))
			continue
		}
		saIters += c.iters
		r.observe("sa.iters", float64(c.iters))
		end := c.marks[len(c.marks)-1]
		r.observe("sa.idle_tail", float64(end-c.lastImprove)/float64(end))
	}
	winner := string(sol.Algorithm)
	if !strings.HasPrefix(winner, "portfolio/") || sol.Iterations == 0 {
		return
	}
	win := 0.0
	winIters := 0
	if winner == "portfolio/sa-par" {
		win = 1
		// The sa-par replicas report no iteration counts of their own; the
		// portfolio's total minus the SA children's is theirs.
		winIters = sol.Iterations - saIters
	} else if c := st.chains[winner]; c != nil {
		winIters = c.iters
	}
	r.observe("portfolio.sapar_wins", win)
	r.observe("portfolio.winner_iter_share", float64(winIters)/float64(sol.Iterations))
}
