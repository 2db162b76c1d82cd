package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"vpart"
	"vpart/internal/randgen"
)

// ingestStream: YCSB query events folded into a Session by a one-shard
// Ingestor with 2^18-event epochs; every completed epoch is followed by a
// warm Session.Resolve. Set-up generates the 2^21 events once; every pass
// replays them into a fresh session, so every pass produces the same layouts
// and no generator work or garbage lands between the timed calls.
type ingestStream struct {
	cfg  config
	base *vpart.Instance
	// The pre-generated stream: one event per distinct shape (an event is a
	// pure function of its shape) and the stream as indices into them.
	shapes []vpart.QueryEvent
	order  []uint32

	sess *vpart.Session
	ing  *vpart.Ingestor
	cur  *solveTrace // the resolve in flight, while tracing

	last   *vpart.Solution
	deltas []vpart.WorkloadDelta // the epoch deltas of the latest pass
}

const (
	ingestShapes = 100_000
	ingestEpoch  = 1 << 18
	ingestEvents = 1 << 21
	ingestBatch  = 8192
	ingestSites  = 4
)

func newIngestStream(cfg config) workload { return &ingestStream{cfg: cfg} }

func (w *ingestStream) names() reportNames {
	return reportNames{op: "epoch_ms", pass: "ingest_s_sum", opUnit: "epochs, Ingest calls plus the Resolve after them",
		tailPct: 90, perPass: ingestEvents, perPassName: "events_per_s"}
}

func (w *ingestStream) setup(ctx context.Context, r *runner) error {
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: ingestShapes}, w.cfg.streamSeed)
	if err != nil {
		return err
	}
	w.base = stream.Base()
	w.shapes, w.order = w.shapes[:0], make([]uint32, 0, ingestEvents)
	ids := map[string]uint32{}
	batch := make([]vpart.QueryEvent, ingestBatch)
	for len(w.order) < ingestEvents {
		stream.Fill(batch)
		for _, e := range batch {
			id, ok := ids[e.Query]
			if !ok {
				id = uint32(len(w.shapes))
				ids[e.Query] = id
				w.shapes = append(w.shapes, e)
			}
			w.order = append(w.order, id)
		}
	}
	return w.start(ctx, r)
}

// start builds a fresh session on the stream's base instance, runs its cold
// anchor resolve and attaches an ingestor, releasing the previous ones.
func (w *ingestStream) start(ctx context.Context, r *runner) error {
	w.close()
	opts := vpart.Options{Sites: ingestSites, Solver: "sa", Seed: w.cfg.seed}
	if r.tr != nil {
		opts.Progress = func(e vpart.Event) {
			if w.cur != nil {
				w.cur.onEvent(e)
			}
		}
	}
	var err error
	if w.sess, err = vpart.NewSession(w.base, opts); err != nil {
		return err
	}
	sol, _, err := w.sess.Resolve(ctx)
	if err != nil {
		return fmt.Errorf("anchor resolve: %w", err)
	}
	if err := checkLayout(w.sess.Instance(), sol.Partitioning, sol.Cost); err != nil {
		return fmt.Errorf("anchor resolve: %w", err)
	}
	cfg := vpart.DefaultIngestConfig()
	cfg.Shards = 1
	cfg.EpochEvents = ingestEpoch
	w.ing, err = w.sess.NewIngestor(cfg)
	return err
}

func (w *ingestStream) pass(ctx context.Context, r *runner, _ int) error {
	if err := w.start(ctx, r); err != nil {
		return err
	}
	w.deltas = w.deltas[:0]
	batch := make([]vpart.QueryEvent, ingestBatch)
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	epoch, epochMs := 0, 0.0
	op, sp := 0, 0
	for done := 0; done < ingestEvents; done += ingestBatch {
		for i := range batch {
			batch[i] = w.shapes[w.order[done+i]]
		}
		if sp == 0 {
			op = r.tr.newOp()
			sp = r.tr.begin("epoch", 0, op)
		}
		var before uint64
		if r.tr != nil {
			metrics.Read(allocs)
			before = allocs[0].Value.Uint64()
		}
		start := time.Now()
		eps, err := w.ing.Ingest(batch)
		el := time.Since(start)
		if err != nil {
			r.op(epoch, epochMs+ms(el), 0, err)
			return nil // a broken ingestor cannot continue this pass
		}
		epochMs += ms(el)
		if r.tr != nil {
			metrics.Read(allocs)
			r.tr.span("vpart.Ingestor.Ingest", sp, op, start, start.Add(el))
			if len(eps) == 0 {
				r.observe("ingest.fold_ns_per_event", float64(el.Nanoseconds())/ingestBatch)
				r.observe("ingest.fold_allocs", float64(allocs[0].Value.Uint64()-before))
			} else {
				r.observe("ingest.epoch_ms", ms(el))
			}
		}
		if len(eps) == 0 {
			continue
		}
		for _, ep := range eps {
			w.deltas = append(w.deltas, ep.Delta)
			if r.tr != nil {
				r.observe("ingest.epoch_ops", float64(len(ep.Delta.Ops)))
			}
		}

		rs := r.tr.begin("vpart.Session.Resolve", sp, op)
		w.cur, _ = r.traceSolve(rs, op)
		start = time.Now()
		sol, stats, err := w.sess.Resolve(ctx)
		el = time.Since(start)
		r.tr.end(rs)
		r.tr.end(sp)
		w.cur.finish(sol)
		w.cur, sp = nil, 0
		if ctx.Err() != nil {
			return ctx.Err()
		}
		epochMs += ms(el)
		cost := 0.0
		if err == nil {
			cost = sol.Cost.Balanced
			err = checkLayout(w.sess.Instance(), sol.Partitioning, sol.Cost)
			w.last = sol
		}
		if r.tr != nil && err == nil {
			warm := 0.0
			if stats.WarmStart {
				warm = 1
			}
			r.observe("session.resolve_ms", ms(el))
			r.observe("session.warm_wins", warm)
		}
		r.op(epoch, epochMs, cost, err)
		epoch, epochMs = epoch+1, 0
	}
	if r.tr != nil {
		r.observe("ingest.state_kb", float64(w.ing.Stats().StateBytes)/1024)
	}
	return nil
}

// check has no cross-pass output check to make. In a traced run it times
// Session.Apply on the latest pass's epoch deltas, replayed into a fresh
// session on the same base instance with an untimed Resolve before each, as
// in the pass (Apply's cost grows with the changes since the last Resolve),
// then probes the compile pipeline and
// the Evaluator on the final ingested instance. It releases the
// pre-generated stream, which is input, not state the live heap should count.
func (w *ingestStream) check(ctx context.Context, r *runner) error {
	w.shapes, w.order = nil, nil
	if r.tr == nil {
		return nil
	}
	sess, err := vpart.NewSession(w.base, vpart.Options{Sites: ingestSites, Solver: "sa", Seed: w.cfg.seed})
	if err != nil {
		return err
	}
	for i, d := range w.deltas {
		if _, _, err := sess.Resolve(ctx); err != nil {
			return fmt.Errorf("replay resolve before epoch delta %d: %w", i, err)
		}
		start := time.Now()
		if err := sess.Apply(d); err != nil {
			return fmt.Errorf("replay epoch delta %d: %w", i, err)
		}
		r.observe("core.patch_ms", ms(time.Since(start)))
	}
	c, rebuild, err := probeCompile(r, w.sess.Instance(), 5)
	if err != nil {
		return err
	}
	r.observe("core.rebuild_share", rebuild/median(r.obs["session.resolve_ms"]))
	return probeEvaluator(r, c, w.last.Partitioning)
}

func (w *ingestStream) close() {
	if w.ing != nil {
		w.ing.Close()
		w.ing = nil
	}
}
