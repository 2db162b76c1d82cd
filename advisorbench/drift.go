package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"vpart"
	"vpart/internal/core"
	daemonconfig "vpart/internal/daemon/config"
	"vpart/internal/daemon/metrics"
	"vpart/internal/daemon/server"
	"vpart/internal/daemon/service"
)

// driftResolve: vpartd in-process on loopback, one closed-loop client
// POSTing each delta of a drift trace with ?wait=1 over one connection. The
// trigger policy has zero debounce, so every delta resolves at once.
type driftResolve struct {
	cfg       config
	inst      *vpart.Instance // decoded from instJSON, as the daemon sees it
	instJSON  []byte
	deltas    []vpart.WorkloadDelta
	deltaJSON [][]byte
	session   server.SessionOptions

	d      *inprocDaemon
	client *http.Client
	url    string

	runs  []driftRun // one per pass, checked after the passes
	stale int        // stale ?wait=1 responses over all passes
	extra int        // extra resolves over all passes
}

// driftRun is what one pass saw.
type driftRun struct {
	extras []int        // resolves the worker ran before applying delta k
	states []driftState // the state each delta's freshness clock stopped on
}

// driftState is the state a delta's freshness clock stopped on.
type driftState struct {
	o   *opRec
	raw []byte
}

const (
	driftSites = 8
	driftSteps = 40
	driftChurn = 0.05
)

func newDriftResolve(cfg config) workload { return &driftResolve{cfg: cfg} }

func (w *driftResolve) names() reportNames {
	return reportNames{op: "fresh_ms", pass: "fresh_s_sum", opUnit: "deltas, POST to a state reflecting the delta", tailPct: 95}
}

// inprocDaemon is the vpartd handler stack on a loopback listener.
type inprocDaemon struct {
	svc    *service.Service
	hs     *http.Server
	served chan error
}

func startDaemon() (*inprocDaemon, string, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := metrics.NewRegistry()
	svc := service.New(service.Config{
		Logger:  logger,
		Metrics: reg,
		// Zero debounce and no other trigger: each delta resolves at once.
		Policy:      service.Policy{},
		Defaults:    service.Defaults{Solver: "sa", TimeLimit: 30 * time.Second, PortfolioSeeds: 4},
		MaxSessions: 4,
	})
	srv := server.New(svc, daemonconfig.Default(), logger, reg)
	srv.SetReady(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	d := &inprocDaemon{svc: svc, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, "http://" + ln.Addr().String(), nil
}

// stop shuts the HTTP server and the session workers down and waits for
// both.
func (d *inprocDaemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a drain timeout leaves nothing to recover
	<-d.served
	_ = d.svc.Close(ctx)
}

func (w *driftResolve) setup(ctx context.Context, r *runner) error {
	w.close()
	// Cross-pass repeatability is checked against the bare-Session replays
	// in check, which account for the worker's extra resolves.
	r.repeatCheck = false
	gen, err := rndAt64x200(w.cfg.instanceSeed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := vpart.WriteInstance(&buf, gen); err != nil {
		return err
	}
	w.instJSON = buf.Bytes()
	if w.inst, err = vpart.ReadInstance(bytes.NewReader(w.instJSON)); err != nil {
		return err
	}
	if w.deltas, err = vpart.Drift(w.inst, driftSteps, driftChurn, w.cfg.traceSeed); err != nil {
		return err
	}
	w.deltaJSON = make([][]byte, len(w.deltas))
	for i, d := range w.deltas {
		if w.deltaJSON[i], err = json.Marshal(d); err != nil {
			return err
		}
	}
	w.session = server.SessionOptions{Sites: driftSites, Solver: "sa", Seed: w.cfg.seed, TimeLimit: "30s"}

	if w.d, w.url, err = startDaemon(); err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	// The anchor: one session's cold solve, then delete it.
	anchor := w.session
	anchor.Seed = anchorSeed
	if _, err := w.createSession(ctx, "anchor", anchor); err != nil {
		return err
	}
	return w.deleteSession(ctx, "anchor")
}

// stateHead is the part of the session state the client reads per delta.
type stateHead struct {
	Resolves      int        `json:"resolves"`
	PendingOps    int        `json:"pending_ops"`
	IncumbentCost vpart.Cost `json:"incumbent_cost"`
	LastError     string     `json:"last_error"`
	LastStats     *struct {
		Resolve  int
		DeltaOps int
	} `json:"last_stats"`
}

func (w *driftResolve) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (w *driftResolve) createSession(ctx context.Context, name string, opts server.SessionOptions) (stateHead, error) {
	var st stateHead
	body, err := json.Marshal(server.CreateSessionRequest{Name: name, Instance: w.instJSON, Options: opts})
	if err != nil {
		return st, err
	}
	raw, err := w.do(ctx, http.MethodPost, "/v1/sessions?wait=1", body, http.StatusCreated)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, err
	}
	// The wait can return before the solved state is published (the same
	// race the deltas' stale responses show); re-read until it is.
	for st.Resolves < 1 && st.LastError == "" {
		if raw, err = w.do(ctx, http.MethodGet, "/v1/sessions/"+name, nil, http.StatusOK); err != nil {
			return st, err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return st, err
		}
	}
	if st.Resolves != 1 {
		return st, fmt.Errorf("session %s: %d resolves after the cold solve (last error %q)", name, st.Resolves, st.LastError)
	}
	return st, nil
}

func (w *driftResolve) deleteSession(ctx context.Context, name string) error {
	_, err := w.do(ctx, http.MethodDelete, "/v1/sessions/"+name, nil, http.StatusNoContent)
	return err
}

func (w *driftResolve) pass(ctx context.Context, r *runner, n int) error {
	// The previous pass's session stays live until now, so the last one is
	// still held when the run measures the live heap.
	if n > 0 {
		if err := w.deleteSession(ctx, fmt.Sprintf("pass%d", n-1)); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("pass%d", n)
	if _, err := w.createSession(ctx, name, w.session); err != nil {
		return err
	}
	run := driftRun{extras: make([]int, len(w.deltas))}
	stale, prev := 0, 1 // prev: resolves after the cold solve
	for k, body := range w.deltaJSON {
		op := r.tr.newOp()
		sp := r.tr.begin("delta", 0, op)
		// A state reflects delta k once a newer resolve than the previous
		// delta's is published, nothing is pending, and that resolve is the
		// one that priced delta k's ops in.
		ops := len(w.deltas[k].Ops)
		fresh := func(st stateHead) bool {
			return st.Resolves > prev && st.PendingOps == 0 && st.LastStats != nil &&
				st.LastStats.Resolve == st.Resolves && st.LastStats.DeltaOps == ops
		}

		start := time.Now()
		post := r.tr.begin("POST deltas?wait=1", sp, op)
		raw, err := w.do(ctx, http.MethodPost, "/v1/sessions/"+name+"/deltas?wait=1", body, http.StatusOK)
		r.tr.end(post)
		var st stateHead
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err == nil && !fresh(st) {
			// The wait returned before the state reflecting the delta was
			// published; re-read until it is.
			stale++
			get := r.tr.begin("GET session (stale wait)", sp, op)
			for err == nil && !fresh(st) && st.LastError == "" {
				if raw, err = w.do(ctx, http.MethodGet, "/v1/sessions/"+name, nil, http.StatusOK); err == nil {
					err = json.Unmarshal(raw, &st)
				}
			}
			r.tr.end(get)
		}
		el := time.Since(start)
		r.tr.end(sp)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil && st.LastError != "" {
			err = fmt.Errorf("daemon reports %q", st.LastError)
		}
		o := r.op(k, ms(el), st.IncumbentCost.Balanced, err)
		if err == nil {
			// More than one resolve since the previous delta: the worker
			// resolved once before draining this delta from its inbox.
			run.extras[k] = st.Resolves - prev - 1
			prev = st.Resolves
			run.states = append(run.states, driftState{o: o, raw: raw})
		}
	}
	w.runs = append(w.runs, run)
	extra := 0
	for _, e := range run.extras {
		extra += e
	}
	w.stale += stale
	w.extra += extra
	r.observe("daemon.stale_wait", float64(stale))
	r.observe("daemon.extra_resolves", float64(extra))
	return nil
}

// replay feeds the trace through a bare vpart.Session with the daemon
// session's options, running extras[k] resolves before applying delta k as
// the daemon did, and returns the incumbent cost after each delta's resolve.
// With measure set it also returns each delta's model and, in a traced run,
// times Session.Apply, Session.Resolve and the compile pipeline every
// resolve rebuilds.
func (w *driftResolve) replay(ctx context.Context, r *runner, extras []int, measure bool) ([]float64, []*core.Model, *vpart.Solution, error) {
	opts, err := w.session.ToOptions()
	if err != nil {
		return nil, nil, nil, err
	}
	trace := measure && r.tr != nil
	var cur *solveTrace
	if trace {
		opts.Progress = func(e vpart.Event) { cur.onEvent(e) }
	}
	sess, err := vpart.NewSession(w.inst, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cur, _ = r.traceSolve(0, 0)
	if _, _, err := sess.Resolve(ctx); err != nil {
		return nil, nil, nil, err
	}
	costs := make([]float64, len(w.deltas))
	var models []*core.Model
	var last *vpart.Solution
	var patchMs, resolveMs []float64
	for k, d := range w.deltas {
		for i := 0; i < extras[k]; i++ {
			if _, _, err := sess.Resolve(ctx); err != nil {
				return nil, nil, nil, fmt.Errorf("replay extra resolve before delta %d: %w", k, err)
			}
		}
		start := time.Now()
		if err := sess.Apply(d); err != nil {
			return nil, nil, nil, fmt.Errorf("replay delta %d: %w", k, err)
		}
		mid := time.Now()
		if trace {
			cur, _ = r.traceSolve(0, 0)
		}
		sol, stats, err := sess.Resolve(ctx)
		el := time.Since(mid)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replay resolve %d: %w", k, err)
		}
		costs[k], last = sol.Cost.Balanced, sol
		if !measure {
			continue
		}
		m, err := core.NewModel(sess.Instance(), core.DefaultModelOptions())
		if err != nil {
			return nil, nil, nil, err
		}
		models = append(models, m)
		if !trace {
			continue
		}
		cur.finish(sol)
		patchMs = append(patchMs, ms(mid.Sub(start)))
		resolveMs = append(resolveMs, ms(el))
		warm := 0.0
		if stats.WarmStart {
			warm = 1
		}
		r.observe("core.patch_ms", ms(mid.Sub(start)))
		r.observe("session.resolve_ms", ms(el))
		r.observe("session.warm_wins", warm)
		c, err := compile(sess.Instance())
		if err != nil {
			return nil, nil, nil, err
		}
		r.observe("core.compile_ms", c.compileMs)
		r.observe("core.group_ms", c.groupMs)
		r.observe("core.rebuild_share", (c.compileMs+c.groupMs)/ms(el))
	}
	if trace {
		var fresh []float64
		for _, o := range r.phases[0].ops {
			fresh = append(fresh, o.ms)
		}
		r.observe("daemon.overhead_ms", median(fresh)-median(patchMs)-median(resolveMs))
	}
	return costs, models, last, nil
}

// check requires every daemon incumbent to equal, bit for bit, the
// incumbent of a bare vpart.Session fed the same operations, and to be a
// valid layout whose cost vpart.Evaluate reproduces. Passes whose worker ran
// extra resolves are compared with a replay that runs them too. The
// one-resolve-per-delta replay also fixes the reference costs, so `cost` does
// not depend on how often the extra resolves happened.
func (w *driftResolve) check(ctx context.Context, r *runner) error {
	canon := make([]int, len(w.deltas))
	want, models, last, err := w.replay(ctx, r, canon, true)
	if err != nil {
		return err
	}
	for k, c := range want {
		r.ref[k] = c
	}
	replays := map[string][]float64{fmt.Sprint(canon): want}
	for _, run := range w.runs {
		key := fmt.Sprint(run.extras)
		costs, ok := replays[key]
		if !ok {
			if costs, _, _, err = w.replay(ctx, r, run.extras, false); err != nil {
				return err
			}
			replays[key] = costs
		}
		for _, s := range run.states {
			var st service.SessionState
			if err := json.Unmarshal(s.raw, &st); err != nil {
				r.failOp(s.o, "decode state: %v", err)
				continue
			}
			k := s.o.idx
			if st.IncumbentCost.Balanced != costs[k] {
				r.failOp(s.o, "daemon incumbent cost %.17g, bare Session replay %.17g", st.IncumbentCost.Balanced, costs[k])
				continue
			}
			if st.Incumbent == nil {
				r.failOp(s.o, "state carries no incumbent")
				continue
			}
			p, err := vpart.FromAssignment(models[k], st.Incumbent)
			if err == nil {
				err = checkLayout(models[k].Instance(), p, st.IncumbentCost)
			}
			if err != nil {
				r.failOp(s.o, "%v", err)
			}
		}
	}
	r.printf("daemon vs bare Session: %d incumbents over %d passes compared with %d replays; one-resolve-per-delta replay ends at cost %.6f",
		r.attempted(), len(w.runs), len(replays), want[len(want)-1])
	r.printf("stale ?wait=1 responses: %d of %d deltas", w.stale, r.attempted())
	r.printf("extra resolves (worker resolved before draining the queued delta): %d of %d deltas", w.extra, r.attempted())
	w.runs = nil
	if r.tr == nil {
		return nil
	}
	c, err := compile(last.Model.Instance())
	if err != nil {
		return err
	}
	return probeEvaluator(r, c, last.Partitioning)
}

func (w *driftResolve) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	w.runs = nil
}
