package sa

import (
	"context"
	"math"
	"testing"

	"vpart/internal/core"
	"vpart/internal/randgen"
	"vpart/internal/tpcc"
)

// TestPinnedSolveOutputs pins the balanced cost and the accepted-move count
// of fixed-seed SA solves to the values recorded before the unconstrained, constrained and disjoint
// y-given-x greedies were merged into one pass. The write-accounting and
// penalty/λ variants were recorded on the dense y-pass pricing, before it
// became a sparse walk of each attribute's term list. Unlike the "no worse than"
// quality gates it catches any change of the search trajectory, so a
// refactor of the subproblem solvers or the move loop that claims identical
// outputs has to keep every case here bit-for-bit (up to float summation
// order, hence the 1e-9 relative tolerance).
func TestPinnedSolveOutputs(t *testing.T) {
	tp := mustModel(t, tpcc.Instance(), core.DefaultModelOptions())
	rndInst, err := randgen.Generate(randgen.ClassA(32, 100, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	rnd := mustModel(t, rndInst, core.DefaultModelOptions())
	rndOpts := core.DefaultModelOptions()
	rndOpts.WriteAccounting = core.WriteNone
	rndNone := mustModel(t, rndInst, rndOpts)
	rndOpts.WriteAccounting = core.WriteRelevant
	rndRelevant := mustModel(t, rndInst, rndOpts)
	tpOpts := core.DefaultModelOptions()
	tpOpts.Penalty, tpOpts.Lambda = 2, 0.5
	tpTuned := mustModel(t, tpcc.Instance(), tpOpts)
	bigInst, err := randgen.Generate(randgen.ClassA(64, 200, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	big := mustModel(t, bigInst, core.DefaultModelOptions())
	cons, _ := constrainedTPCC(t)

	cases := []struct {
		name  string
		m     *core.Model
		sites int
		seed  int64
		warm  bool // warm-start from the cold solve with seed-1
		disj  bool
		want  float64
		// accepted is the number of accepted moves: equal costs at the
		// end of different trajectories are common on TPC-C, equal
		// acceptance counts are not.
		accepted int
	}{
		{"tpcc/2", tp, 2, 1, false, false, 18971, 280},
		{"tpcc/3", tp, 3, 1, false, false, 17839.6, 225},
		{"tpcc/4", tp, 4, 1, false, false, 17839.6, 322},
		{"tpcc/3/seed2", tp, 3, 2, false, false, 17839.6, 276},
		{"rndAt32x100/4", rnd, 4, 1, false, false, 46007, 144},
		{"rndAt64x200/8", big, 8, 1, false, false, 58982.4, 164},
		{"tpcc/3/warm", tp, 3, 2, true, false, 17839.6, 101},
		{"constrained-tpcc/3", cons, 3, 1, false, false, 17846.8, 378},
		{"tpcc/3/disjoint", tp, 3, 1, false, true, 48013.2, 454},
		{"rndAt32x100/4/write-none", rndNone, 4, 1, false, false, 33891.4, 170},
		{"rndAt32x100/4/write-relevant", rndRelevant, 4, 1, false, false, 44937.8, 144},
		{"tpcc/3/p2-lambda0.5", tpTuned, 3, 1, false, false, 24852, 196},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(tc.sites)
			opts.Seed = tc.seed
			opts.Disjoint = tc.disj
			if tc.warm {
				hintOpts := DefaultOptions(tc.sites)
				hintOpts.Seed = tc.seed - 1
				hint, err := Solve(context.Background(), tc.m, hintOpts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Initial = hint.Partitioning
			}
			res, err := Solve(context.Background(), tc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Cost.Balanced
			if math.Abs(got-tc.want) > 1e-9*math.Abs(tc.want) {
				t.Errorf("balanced cost %.17g, pinned %.17g", got, tc.want)
			}
			if res.Accepted != tc.accepted {
				t.Errorf("%d accepted moves, pinned %d", res.Accepted, tc.accepted)
			}
		})
	}
}
