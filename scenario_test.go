package vpart_test

import (
	"context"
	"testing"

	"vpart"
)

// TestRunScenarioSiteLossEndToEnd drives the closed-loop harness against a
// real SA-backed session: a YCSB stream with a site loss mid-run. It gates
// the two properties the scenario benchmarks rely on — bit-identical
// reproducibility of fixed-seed runs, and the re-solving advisor realizing no
// more cost than the frozen stale layout over the post-failure window.
func TestRunScenarioSiteLossEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run")
	}
	spec := vpart.ScenarioSpec{
		Name:           "loss-e2e",
		Traffic:        vpart.ScenarioTrafficYCSB,
		Seed:           42,
		Sites:          3,
		Epochs:         5,
		EventsPerEpoch: 2000,
		Shapes:         4096,
		Actions:        []vpart.ScenarioAction{{Kind: vpart.ScenarioSiteLoss, Epoch: 2, Site: 1}},
	}
	opts := vpart.Options{Solver: "sa", Seed: 42}

	run := func() *vpart.ScenarioResult {
		t.Helper()
		res, err := vpart.RunScenario(context.Background(), spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()

	if len(res.Epochs) != spec.Epochs {
		t.Fatalf("got %d epochs, want %d", len(res.Epochs), spec.Epochs)
	}
	if res.FirstActionEpoch != 2 {
		t.Fatalf("FirstActionEpoch = %d, want 2", res.FirstActionEpoch)
	}
	if res.InitialCost <= 0 {
		t.Fatalf("InitialCost = %g, want > 0", res.InitialCost)
	}
	for e, st := range res.Epochs {
		if st.Events == 0 {
			t.Fatalf("epoch %d replayed no events", e)
		}
		if st.StaleCost <= 0 || st.AdvisorCost <= 0 {
			t.Fatalf("epoch %d has non-positive realized cost: %+v", e, st)
		}
		if e > 0 && !st.ResolveWarm {
			t.Fatalf("epoch %d re-solve ran cold (warm anchor rejected?)", e)
		}
	}
	// The epochs after the loss must not fault: both sides were degraded off
	// the dead site.
	for e := 3; e < spec.Epochs; e++ {
		if st := res.Epochs[e]; st.StaleFaults != 0 || st.AdvisorFaults != 0 {
			t.Fatalf("epoch %d still faulting after failover: %+v", e, st)
		}
	}
	// The gate the benchmarks enforce: re-solving realizes no more cost than
	// staying on the frozen pre-failure layout.
	if res.CumAdvisorPost > res.CumStalePost {
		t.Fatalf("advisor realized more post-failure cost than the stale layout: %g > %g",
			res.CumAdvisorPost, res.CumStalePost)
	}

	if res2 := run(); res.Fingerprint() != res2.Fingerprint() {
		t.Fatal("two fixed-seed runs produced different fingerprints")
	}
}

// TestScenarioSuite runs one scenario per failure kind, each twice: the runs
// must fingerprint bit-identically, and the advisor's realized post-failure
// cost must not exceed the stale layout's. The full size skips under -short.
func TestScenarioSuite(t *testing.T) {
	for _, full := range []bool{false, true} {
		if full && testing.Short() {
			continue
		}
		epochs, events, burst := 6, 8000, 4
		if full {
			epochs, events, burst = 8, 20000, 6
		}
		for _, spec := range []vpart.ScenarioSpec{
			{
				Name: "site-loss-ycsb", Traffic: vpart.ScenarioTrafficYCSB,
				Seed: 42, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
				Actions: []vpart.ScenarioAction{{Kind: vpart.ScenarioSiteLoss, Epoch: 3, Site: 1}},
			},
			{ // a spike on the single-table ycsb stream barely moves the optimum
				Name: "flash-crowd-social", Traffic: vpart.ScenarioTrafficSocial,
				Seed: 43, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
				Actions: []vpart.ScenarioAction{{Kind: vpart.ScenarioFlashCrowd, Epoch: 3, Magnitude: 0.7, Keys: 8, Duration: 3}},
			},
			{ // the social schema is 592 bytes wide: 300 forces an eviction
				Name: "capacity-shrink-social", Traffic: vpart.ScenarioTrafficSocial,
				Seed: 44, Sites: 4, Epochs: epochs, EventsPerEpoch: events, Shapes: 4096,
				Actions: []vpart.ScenarioAction{{Kind: vpart.ScenarioCapacityShrink, Epoch: 3, Site: 0, Bytes: 300}},
			},
			{
				Name: "drift-burst", Traffic: vpart.ScenarioTrafficDrift,
				Seed: 45, Sites: 4, Epochs: epochs,
				Actions: []vpart.ScenarioAction{{Kind: vpart.ScenarioDriftBurst, Epoch: 3, Steps: burst}},
			},
		} {
			var fp [2]string
			var res *vpart.ScenarioResult
			for r := range fp {
				var err error
				res, err = vpart.RunScenario(context.Background(), spec, vpart.Options{Solver: "sa", Seed: spec.Seed})
				if err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
				fp[r] = res.Fingerprint()
			}
			if fp[0] != fp[1] {
				t.Errorf("%s (full=%v): two runs fingerprint %s and %s", spec.Name, full, fp[0], fp[1])
			}
			if res.FirstActionEpoch >= 0 && res.CumAdvisorPost > res.CumStalePost {
				t.Errorf("%s (full=%v): advisor realized %.6g bytes after the failure, stale layout %.6g",
					spec.Name, full, res.CumAdvisorPost, res.CumStalePost)
			}
		}
	}
}
