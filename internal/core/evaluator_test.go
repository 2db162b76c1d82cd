package core_test

// Equivalence tests for the incremental Evaluator: Model.Evaluate is the
// reference oracle, and after every applied move the evaluator's Cost() must
// match a from-scratch evaluation. The random walks cover all three
// WriteAccounting modes, the latency extension on and off, and both
// replicated and disjoint-style move mixes. (This file lives in package
// core_test so it can use the randgen instance generator, which itself
// depends on core.)

import (
	"math"
	"math/rand"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// relClose reports |a-b| <= tol·(1+max(|a|,|b|)).
func relClose(a, b, tol float64) bool {
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= tol*(1+scale)
}

func costsMatch(t *testing.T, step string, got, want core.Cost, tol float64) {
	t.Helper()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"ReadAccess", got.ReadAccess, want.ReadAccess},
		{"WriteAccess", got.WriteAccess, want.WriteAccess},
		{"Transfer", got.Transfer, want.Transfer},
		{"MaxWork", got.MaxWork, want.MaxWork},
		{"LatencyUnits", got.LatencyUnits, want.LatencyUnits},
		{"Objective", got.Objective, want.Objective},
		{"Balanced", got.Balanced, want.Balanced},
	}
	for _, c := range checks {
		if !relClose(c.got, c.want, tol) {
			t.Fatalf("%s: %s = %.12g, oracle %.12g", step, c.name, c.got, c.want)
		}
	}
	for s := range want.SiteWork {
		if !relClose(got.SiteWork[s], want.SiteWork[s], tol) {
			t.Fatalf("%s: SiteWork[%d] = %.12g, oracle %.12g", step, s, got.SiteWork[s], want.SiteWork[s])
		}
	}
}

// randomFeasible builds a random feasible starting partitioning.
func randomFeasible(m *core.Model, sites int, rng *rand.Rand) *core.Partitioning {
	p := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), sites)
	for t := range p.TxnSite {
		p.TxnSite[t] = rng.Intn(sites)
	}
	for a := range p.AttrSites {
		p.AttrSites[a][rng.Intn(sites)] = true
	}
	p.Repair(m)
	return p
}

// randomMove draws one random move. In disjoint style, attribute moves come
// in relocate pairs, mirroring the SA solver's disjoint neighbourhood.
func applyRandomMove(e *core.Evaluator, rng *rand.Rand, disjoint bool) float64 {
	p := e.Partitioning()
	m := e.Model()
	switch rng.Intn(3) {
	case 0:
		t := rng.Intn(m.NumTxns())
		return e.Apply(core.MoveTxn{Txn: t, Site: rng.Intn(p.Sites)})
	case 1:
		a := rng.Intn(m.NumAttrs())
		s := rng.Intn(p.Sites)
		d := e.Apply(core.AddReplica{Attr: a, Site: s})
		if disjoint {
			// Relocate: drop some other replica of a.
			for st := 0; st < p.Sites; st++ {
				if st != s && p.AttrSites[a][st] {
					d += e.Apply(core.DropReplica{Attr: a, Site: st})
					break
				}
			}
		}
		return d
	default:
		a := rng.Intn(m.NumAttrs())
		// Keep at least one replica most of the time, but also exercise the
		// replica-less corner the cost model still defines.
		s := rng.Intn(p.Sites)
		if p.Replicas(a) == 1 && rng.Intn(4) != 0 {
			return 0
		}
		return e.Apply(core.DropReplica{Attr: a, Site: s})
	}
}

func TestEvaluatorMatchesEvaluateProperty(t *testing.T) {
	type cfg struct {
		name     string
		mode     core.WriteAccounting
		latency  float64
		disjoint bool
	}
	var cfgs []cfg
	for _, mode := range []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone} {
		for _, lat := range []float64{0, 0.5} {
			for _, dis := range []bool{false, true} {
				cfgs = append(cfgs, cfg{
					name: mode.String() + map[bool]string{true: "/latency", false: ""}[lat > 0] + map[bool]string{true: "/disjoint", false: ""}[dis],
					mode: mode, latency: lat, disjoint: dis,
				})
			}
		}
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 4; trial++ {
				inst, err := randgen.Generate(randgen.ClassA(3, 8, 30), int64(100+trial))
				if err != nil {
					t.Fatal(err)
				}
				m, err := core.NewModel(inst, core.ModelOptions{
					Penalty: 8, Lambda: 0.1,
					WriteAccounting: c.mode, LatencyPenalty: c.latency,
				})
				if err != nil {
					t.Fatal(err)
				}
				sites := 2 + rng.Intn(3)
				p := randomFeasible(m, sites, rng)
				e, err := core.NewEvaluator(m, p)
				if err != nil {
					t.Fatal(err)
				}
				costsMatch(t, "init", e.Cost(), m.Evaluate(e.Partitioning()), 1e-9)
				prev := e.Cost().Balanced
				for step := 0; step < 120; step++ {
					delta := applyRandomMove(e, rng, c.disjoint)
					got := e.Cost()
					costsMatch(t, "after move", got, m.Evaluate(e.Partitioning()), 1e-6)
					if !relClose(prev+delta, got.Balanced, 1e-6) {
						t.Fatalf("step %d: deltas drifted: prev %.12g + delta %.12g != %.12g",
							step, prev, delta, got.Balanced)
					}
					prev = got.Balanced
					if rng.Intn(3) == 0 {
						e.Commit()
					}
				}
			}
		})
	}
}

func TestEvaluatorUndoRoundTrip(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(3, 8, 30), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone} {
		m, err := core.NewModel(inst, core.ModelOptions{
			Penalty: 8, Lambda: 0.1, WriteAccounting: mode, LatencyPenalty: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		p := randomFeasible(m, 3, rng)
		e, err := core.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 50; round++ {
			before := e.Cost()
			beforeP := e.Partitioning().Clone()
			batch := 1 + rng.Intn(6)
			for i := 0; i < batch; i++ {
				applyRandomMove(e, rng, false)
			}
			if e.Pending() == 0 {
				t.Fatal("no moves journalled")
			}
			e.Undo()
			if e.Pending() != 0 {
				t.Fatal("journal not cleared by Undo")
			}
			after := e.Cost()
			// Every accumulator — the journalled scalars and the logged
			// WriteRelevant per-access sums — is restored bitwise.
			costsMatch(t, "undo round trip", after, before, 0)
			got, want := e.Partitioning(), beforeP
			for t2 := range want.TxnSite {
				if got.TxnSite[t2] != want.TxnSite[t2] {
					t.Fatalf("round %d: TxnSite[%d] not restored", round, t2)
				}
			}
			for a := range want.AttrSites {
				for s := range want.AttrSites[a] {
					if got.AttrSites[a][s] != want.AttrSites[a][s] {
						t.Fatalf("round %d: AttrSites[%d][%d] not restored", round, a, s)
					}
				}
			}
			// A committed batch must not be undoable.
			applyRandomMove(e, rng, false)
			e.Commit()
			ref := e.Cost()
			e.Undo()
			costsMatch(t, "undo after commit", e.Cost(), ref, 0)
		}
	}
}

func TestEvaluatorSnapshotRestoreRoundTrip(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(3, 8, 30), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []core.WriteAccounting{core.WriteAll, core.WriteRelevant, core.WriteNone} {
		m, err := core.NewModel(inst, core.ModelOptions{
			Penalty: 8, Lambda: 0.1, WriteAccounting: mode, LatencyPenalty: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		e, err := core.NewEvaluator(m, randomFeasible(m, 3, rng))
		if err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		want := e.Cost()
		for i := 0; i < 200; i++ {
			applyRandomMove(e, rng, false)
			if rng.Intn(4) == 0 {
				e.Commit()
			}
		}
		e.Restore(snap)
		costsMatch(t, "snapshot restore", e.Cost(), want, 0)
		costsMatch(t, "restored state vs oracle", e.Cost(), m.Evaluate(e.Partitioning()), 1e-9)
		if e.Pending() != 0 {
			t.Fatal("Restore must clear the journal")
		}
		// SnapshotTo must reuse buffers and still capture correctly.
		for i := 0; i < 30; i++ {
			applyRandomMove(e, rng, false)
		}
		e.SnapshotTo(snap)
		want = e.Cost()
		for i := 0; i < 30; i++ {
			applyRandomMove(e, rng, false)
		}
		e.Restore(snap)
		costsMatch(t, "SnapshotTo restore", e.Cost(), want, 0)
	}
}

func TestEvaluatorTPCCMatchesEvaluate(t *testing.T) {
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := randomFeasible(m, 4, rng)
	e, err := core.NewEvaluator(m, p)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		applyRandomMove(e, rng, false)
		if step%10 == 0 {
			costsMatch(t, "tpcc walk", e.Cost(), m.Evaluate(e.Partitioning()), 1e-6)
		}
	}
	costsMatch(t, "tpcc final", e.Cost(), m.Evaluate(e.Partitioning()), 1e-6)
}

// costSink keeps benchmarked evaluations from being optimised away.
var costSink core.Cost

// TestEvaluatorApplyFasterThanEvaluate: a MoveTxn apply+undo round trip
// (the SA loop's reject path) must beat a full Evaluate of the same layout,
// timed in the same run, on TPC-C at 3 sites and rndAt64x200 at 8.
func TestEvaluatorApplyFasterThanEvaluate(t *testing.T) {
	rnd, err := randgen.Generate(randgen.ClassA(64, 200, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	nsPerOp := func(op func(i int)) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op(i)
			}
		}).NsPerOp()
	}
	for sites, inst := range map[int]*core.Instance{3: tpcc.Instance(), 8: rnd} {
		m, err := core.NewModel(inst, core.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		p := core.FullReplication(m, sites)
		e, err := core.NewEvaluator(m, p)
		if err != nil {
			t.Fatal(err)
		}
		evaluate := nsPerOp(func(int) { costSink = m.Evaluate(p) })
		apply := nsPerOp(func(i int) { e.ApplyMoveTxn(i%m.NumTxns(), (i+1)%sites); e.Undo() })
		if apply >= evaluate {
			t.Errorf("%d sites: apply+undo %d ns/op not below Evaluate %d ns/op", sites, apply, evaluate)
		}
	}
}

func TestNewEvaluatorRejectsBadDimensions(t *testing.T) {
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEvaluator(m, core.NewPartitioning(1, m.NumAttrs(), 2)); err == nil {
		t.Fatal("mismatching transaction count accepted")
	}
	if _, err := core.NewEvaluator(m, core.NewPartitioning(m.NumTxns(), 1, 2)); err == nil {
		t.Fatal("mismatching attribute count accepted")
	}
	bad := core.NewPartitioning(m.NumTxns(), m.NumAttrs(), 2)
	bad.TxnSite[0] = 7
	if _, err := core.NewEvaluator(m, bad); err == nil {
		t.Fatal("out-of-range transaction site accepted")
	}
}

// The evaluator must not alias the caller's partitioning.
func TestEvaluatorCopiesInput(t *testing.T) {
	m, err := core.NewModel(tpcc.Instance(), core.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := core.SingleSite(m, 2)
	e, err := core.NewEvaluator(m, p)
	if err != nil {
		t.Fatal(err)
	}
	e.Apply(core.MoveTxn{Txn: 0, Site: 1})
	if p.TxnSite[0] != 0 {
		t.Fatal("Apply mutated the caller's partitioning")
	}
}

// TestEvaluatorNoDriftAcrossRejectedBatches pins the bitwise betaLog restore:
// under WriteRelevant accounting, hundreds of thousands of rejected batches
// touching the same attributes must leave every accumulator — including the
// per-access write sums, which a plain arithmetic +w/-w inversion could
// perturb by an ulp — exactly where they started, so the evaluator still
// matches the oracle tightly afterwards.
func TestEvaluatorNoDriftAcrossRejectedBatches(t *testing.T) {
	inst, err := randgen.Generate(randgen.ClassA(3, 8, 30), 17)
	if err != nil {
		t.Fatal(err)
	}
	// Scale every frequency by 1/3 so the per-access weights are not exactly
	// representable: a naive arithmetic +w/-w inversion then drifts by an ulp
	// per cycle, which is precisely what the bitwise restore must prevent.
	for ti := range inst.Workload.Transactions {
		qs := inst.Workload.Transactions[ti].Queries
		for qi := range qs {
			qs[qi].Frequency /= 3
		}
	}
	m, err := core.NewModel(inst, core.ModelOptions{
		Penalty: 8, Lambda: 0.1,
		WriteAccounting: core.WriteRelevant, LatencyPenalty: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	e, err := core.NewEvaluator(m, randomFeasible(m, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	want := e.Cost()
	for i := 0; i < 200000; i++ {
		a := rng.Intn(m.NumAttrs())
		s := rng.Intn(3)
		if e.Partitioning().AttrSites[a][s] {
			e.Apply(core.DropReplica{Attr: a, Site: s})
		} else {
			e.Apply(core.AddReplica{Attr: a, Site: s})
		}
		e.Apply(core.MoveTxn{Txn: rng.Intn(m.NumTxns()), Site: rng.Intn(3)})
		e.Undo()
	}
	costsMatch(t, "after 200k rejected batches", e.Cost(), want, 0)
	costsMatch(t, "vs oracle", e.Cost(), m.Evaluate(e.Partitioning()), 1e-12)
	// Drifted per-access sums would only surface in the deltas of *new*
	// moves, so commit a fresh flip on every attribute and re-check tightly.
	for a := 0; a < m.NumAttrs(); a++ {
		s := rng.Intn(3)
		if e.Partitioning().AttrSites[a][s] {
			e.Apply(core.DropReplica{Attr: a, Site: s})
		} else {
			e.Apply(core.AddReplica{Attr: a, Site: s})
		}
	}
	e.Commit()
	costsMatch(t, "fresh moves after churn", e.Cost(), m.Evaluate(e.Partitioning()), 1e-12)
}
