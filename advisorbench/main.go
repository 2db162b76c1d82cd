// Command advisorbench is the advisor's end-to-end benchmark. One process
// runs one workload:
//
//	cold-solve     a one-shot portfolio Solve on rndAt64x200, 8 sites
//	drift-resolve  an in-process vpartd on loopback fed a drift trace
//	ingest-stream  YCSB query events folded into a Session, resolved per epoch
//	qp-tpcc        the exact QP on TPC-C at 2, 3 and 4 sites
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and prints the per-layer metrics,
// the tracing overhead between the two kinds of pass, and writes the spans it
// recorded to --trace-out. The last line of standard output is
// always one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash advisorbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark scenario. The runner calls setup several times
// (the median is setup_s; only the last set-up is kept), then pass until the
// time is used up, then check, and finally close.
type workload interface {
	// setup builds the inputs and runs the anchor solve. It must release
	// whatever an earlier setup call built.
	setup(ctx context.Context, r *runner) error
	// pass runs the workload's fixed operation set once, reporting every
	// operation through r.op in the same order on every pass.
	pass(ctx context.Context, r *runner, n int) error
	// check runs the output checks that need every pass (it may mark
	// operations failed through r.failOp) and, in a traced run, the
	// per-layer probes. The live heap is measured next, so check drops the
	// inputs the benchmark itself holds.
	check(ctx context.Context, r *runner) error
	// close stops everything the workload started and waits for it.
	close()
	// names maps the generic end-to-end figures onto the workload's own
	// vocabulary for the human-readable report.
	names() reportNames
}

type reportNames struct {
	op     string // e.g. "solve_ms", "fresh_ms"
	pass   string // e.g. "solve_s_sum"
	opUnit string // what one operation is
	// tailPct is the tail percentile: the highest of p75, p90 and p95 that a
	// run at this machine's speed has at least ten samples beyond and that
	// scheduling noise leaves steady from run to run. It is
	// fixed per workload so the reported percentile never changes with the
	// sample count.
	tailPct int
	// perPass, when non-zero, adds "<perPassName>: perPass / pass_s" to the
	// report (events per second for ingest-stream).
	perPass     float64
	perPassName string
	// note, when set, follows the latency lines to say what they measure.
	note string
}

var workloads = map[string]func(cfg config) workload{
	"cold-solve":    newColdSolve,
	"drift-resolve": newDriftResolve,
	"ingest-stream": newIngestStream,
	"qp-tpcc":       newQPTPCC,
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string // where a traced run writes its spans

	// The seeds of the generated inputs. They default to fixed values, so
	// every --seed measures the same data set; the solve seeds derive from
	// --seed.
	instanceSeed int64
	traceSeed    int64
	streamSeed   int64
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("advisorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold-solve, drift-resolve, ingest-stream or qp-tpcc")
	fs.Int64Var(&cfg.seed, "seed", 1, "run seed; the solve seeds derive from it")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.Int64Var(&cfg.instanceSeed, "instance-seed", 1, "seed of the rndAt64x200 instance (cold-solve, drift-resolve)")
	fs.Int64Var(&cfg.traceSeed, "trace-seed", 1, "seed of the drift trace (drift-resolve)")
	fs.Int64Var(&cfg.streamSeed, "stream-seed", 1, "seed of the YCSB event stream (ingest-stream)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want cold-solve, drift-resolve, ingest-stream or qp-tpcc)", cfg.workload)
	}
	if cfg.seed == 0 {
		return cfg, errors.New("--seed must be non-zero (zero asks the solvers for a derived seed)")
	}
	if cfg.seconds < 1 {
		return cfg, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	cfg.traceOut = fmt.Sprintf(".bench_build/traces/%s-seed%d.json", cfg.workload, cfg.seed)
	return cfg, nil
}

// minOps is the operation count an untraced run reaches even past its
// --seconds, so that at least ten samples lie beyond the tail percentile.
func (n reportNames) minOps() int { return 1000 / (100 - n.tailPct) }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "advisorbench:", err)
		os.Exit(1)
	}
}

// setupRuns is how often a run sets up; setup_s is the median.
const setupRuns = 5

// anchorSeed seeds the anchor solves of set-up, so set-up does the same work
// whatever --seed is and setup_s varies only with the machine.
const anchorSeed = 1

// hardDeadline bounds a whole run: the measured seconds plus set-up, checks
// and probes must fit well inside the three minutes a run may take.
const hardDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardDeadline)
	defer cancel()

	r := newRunner(cfg, stdout)
	w := workloads[cfg.workload](cfg)
	defer w.close()
	r.printf("advisorbench workload=%s seed=%d instance-seed=%d trace-seed=%d stream-seed=%d trace=%v",
		cfg.workload, cfg.seed, cfg.instanceSeed, cfg.traceSeed, cfg.streamSeed, cfg.trace)
	r.printf("machine go=%s cpus=%d gomaxprocs=%d", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	setups := make([]float64, setupRuns)
	for i := range setups {
		start := time.Now()
		if err := w.setup(ctx, r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// Same code, same inputs, alternating untraced and traced passes
		// (each pair shares its inputs): the ratio of their pass times is
		// the tracing overhead.
		err = r.measureTraced(ctx, w, budget)
	} else {
		err = r.measure(ctx, w, budget, w.names().minOps())
	}
	if err != nil {
		return err
	}
	if err := w.check(ctx, r); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(w)

	var metrics map[string]metric
	if cfg.trace {
		untraced, traced := median(r.phases[0].passSec), median(r.phases[1].passSec)
		r.observe("trace.overhead_pct", 100*(traced/untraced-1))
		metrics = r.layerMetrics()
		if err := r.tr.write(cfg, untraced, traced); err != nil {
			return err
		}
	} else {
		metrics = r.endToEnd(w.names(), setups, heap)
	}
	for _, p := range r.problems {
		r.printf("FAILED %s", p)
	}
	failed := r.failed()
	r.printf("checks: %d of %d operations failed", failed, r.attempted())
	return json.NewEncoder(stdout).Encode(result{
		Correct:   failed == 0,
		Attempted: r.attempted(),
		Failed:    failed,
		Metrics:   metrics,
	})
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median interpolates between the two middle samples; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tail returns the pct-th percentile (nearest rank).
func tail(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (pct*len(s) + 99) / 100 // 1-based
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deriveSeed spreads a base seed into a family of distinct non-zero seeds
// (splitmix64 finaliser).
func deriveSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z >> 1)
	if s == 0 {
		s = 1
	}
	return s
}
