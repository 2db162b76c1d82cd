package ingest_test

import (
	"reflect"
	"runtime"
	"testing"

	"vpart/internal/core"
	"vpart/internal/ingest"
	"vpart/internal/randgen"
)

// ycsbEvents generates n events from a small fixed-seed YCSB stream.
func ycsbEvents(t testing.TB, shapes, n int, seed int64) (*randgen.EventStream, []ingest.Event) {
	t.Helper()
	stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: shapes, HotShapes: 4096}, seed)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	events := make([]ingest.Event, n)
	stream.Fill(events)
	return stream, events
}

// TestPipelineDeterministicAcrossGOMAXPROCS ingests the same event sequence
// through a 4-shard pipeline at GOMAXPROCS 1 and 4 (and twice at 1): the
// epoch deltas must be identical, op for op and factor for factor.
func TestPipelineDeterministicAcrossGOMAXPROCS(t *testing.T) {
	stream, events := ycsbEvents(t, 50_000, 300_000, 11)
	cfg := ingest.Config{
		Shards: 4, EpochEvents: 64_000, TopK: 256,
		SketchWidth: 1 << 13, SketchDepth: 4, ScaleTol: 0.2,
	}
	run := func(procs int) []ingest.Epoch {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pipe, err := ingest.New(stream.Base(), cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer pipe.Close()
		var epochs []ingest.Epoch
		for off := 0; off < len(events); off += 8192 {
			end := off + 8192
			if end > len(events) {
				end = len(events)
			}
			eps, err := pipe.Ingest(events[off:end])
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			epochs = append(epochs, eps...)
		}
		if ep, err := pipe.FlushEpoch(); err != nil {
			t.Fatalf("FlushEpoch: %v", err)
		} else if ep != nil {
			epochs = append(epochs, *ep)
		}
		return epochs
	}
	base := run(1)
	if len(base) != len(events)/64_000+1 {
		t.Fatalf("epoch count = %d, want %d", len(base), len(events)/64_000+1)
	}
	for _, procs := range []int{1, 4} {
		got := run(procs)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("epoch deltas diverge at GOMAXPROCS=%d", procs)
		}
	}
}

// TestPipelineFoldsValidInstances applies every epoch delta of both stream
// families to the base instance and checks the folded instance stays valid
// with the heavy hitters installed.
func TestPipelineFoldsValidInstances(t *testing.T) {
	for _, mk := range []struct {
		name   string
		stream func() (*randgen.EventStream, error)
	}{
		{"ycsb", func() (*randgen.EventStream, error) {
			return randgen.NewYCSB(randgen.YCSBParams{Shapes: 20_000}, 3)
		}},
		{"social", func() (*randgen.EventStream, error) {
			return randgen.NewSocial(randgen.SocialParams{Shapes: 20_000}, 3)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			stream, err := mk.stream()
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			pipe, err := ingest.New(stream.Base(), ingest.Config{
				Shards: 2, EpochEvents: 40_000, TopK: 128,
				SketchWidth: 1 << 13, SketchDepth: 4, ScaleTol: 0.2,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer pipe.Close()
			events := make([]ingest.Event, 120_000)
			stream.Fill(events)
			epochs, err := pipe.Ingest(events)
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			inst := stream.Base()
			for _, ep := range epochs {
				if inst, err = core.ApplyDelta(inst, ep.Delta); err != nil {
					t.Fatalf("epoch %d delta does not apply: %v", ep.Seq, err)
				}
			}
			if err := inst.Validate(); err != nil {
				t.Fatalf("folded instance invalid: %v", err)
			}
			stats := pipe.Stats()
			if stats.Events != 120_000 || stats.Epochs != 3 {
				t.Fatalf("stats = %+v, want 120000 events / 3 epochs", stats)
			}
			if stats.Tracked == 0 || stats.Adds == 0 {
				t.Fatalf("nothing tracked/added: %+v", stats)
			}
			if stats.StateBytes <= 0 || stats.SketchFill <= 0 {
				t.Fatalf("gauges not populated: %+v", stats)
			}
			nq := 0
			for _, tx := range inst.Workload.Transactions {
				nq += len(tx.Queries)
			}
			seed := 0
			for _, tx := range stream.Base().Workload.Transactions {
				seed += len(tx.Queries)
			}
			if nq <= seed {
				t.Fatalf("folded instance has %d queries, seed had %d — no heavy hitters installed", nq, seed)
			}
		})
	}
}

// TestPipelineLastQueryScalesToFloor builds the dropout-of-a-last-query
// scenario by hand: when every tracked query of a transaction falls out of
// the top-k, the last one is scaled to frequency 1 instead of removed.
func TestPipelineLastQueryScalesToFloor(t *testing.T) {
	base := &core.Instance{Name: "floor"}
	base.Schema.Tables = []core.Table{{Name: "x", Attributes: []core.Attribute{{Name: "a", Width: 4}}}}
	base.Workload.Transactions = []core.Transaction{{
		Name: "seedtx",
		Queries: []core.Query{{
			Name: "q", Kind: core.Read, Frequency: 1,
			Accesses: []core.TableAccess{{Table: "x", Attributes: []string{"a"}, Rows: 1}},
		}},
	}}
	if err := base.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	pipe, err := ingest.New(base, ingest.Config{
		Shards: 1, EpochEvents: 1 << 20, TopK: 2,
		SketchWidth: 1 << 10, SketchDepth: 4, ScaleTol: 0.1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mk := func(txn, q string) ingest.Event {
		return ingest.Event{Txn: txn, Query: q, Kind: core.Read,
			Accesses: []core.TableAccess{{Table: "x", Attributes: []string{"a"}, Rows: 1}}}
	}
	feed := func(txn, q string, n int) {
		t.Helper()
		batch := make([]ingest.Event, n)
		for i := range batch {
			batch[i] = mk(txn, q)
		}
		if _, err := pipe.Ingest(batch); err != nil {
			t.Fatalf("Ingest %s/%s: %v", txn, q, err)
		}
	}
	// Epoch 1: A and B dominate (both land in transaction "s").
	feed("s", "A", 600)
	feed("s", "B", 400)
	ep1, err := pipe.FlushEpoch()
	if err != nil || ep1 == nil {
		t.Fatalf("epoch 1: %v (%v)", err, ep1)
	}
	inst, err := core.ApplyDelta(base, ep1.Delta)
	if err != nil {
		t.Fatalf("apply epoch 1: %v", err)
	}
	// Epoch 2: C and D (other transactions) grow past both and displace them
	// from the 2-entry top-k.
	feed("o1", "C", 700)
	feed("o2", "D", 700)
	ep2, err := pipe.FlushEpoch()
	if err != nil || ep2 == nil {
		t.Fatalf("epoch 2: %v (%v)", err, ep2)
	}
	if inst, err = core.ApplyDelta(inst, ep2.Delta); err != nil {
		t.Fatalf("apply epoch 2: %v", err)
	}
	var s *core.Transaction
	for i := range inst.Workload.Transactions {
		if inst.Workload.Transactions[i].Name == "s" {
			s = &inst.Workload.Transactions[i]
		}
	}
	if s == nil {
		t.Fatal("transaction s vanished")
	}
	if len(s.Queries) != 1 {
		t.Fatalf("transaction s has %d queries, want 1 (one removed, one floored)", len(s.Queries))
	}
	if got := s.Queries[0].Frequency; got != 1 {
		t.Fatalf("floored query frequency = %g, want 1", got)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("instance invalid after floor: %v", err)
	}
}

// TestIngestSteadyStateNoAllocs is the satellite 0-alloc guard: once every
// shape is tracked, the per-event path (route + fold) performs zero
// allocations — for the single-shard inline fold and the multi-shard
// persistent-worker fold alike.
func TestIngestSteadyStateNoAllocs(t *testing.T) {
	stream, err := randgen.NewYCSB(randgen.YCSBParams{
		Shapes: 256, HotShapes: 256,
	}, 5)
	if err != nil {
		t.Fatalf("NewYCSB: %v", err)
	}
	batch := make([]ingest.Event, 4096)
	stream.Fill(batch)
	for _, shards := range []int{1, 4} {
		pipe, err := ingest.New(stream.Base(), ingest.Config{
			Shards: shards, EpochEvents: 1 << 30, TopK: 512,
			SketchWidth: 1 << 12, SketchDepth: 4, ScaleTol: 0.2,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for i := 0; i < 8; i++ { // warm up: admit all 256 shapes, grow buffers
			if _, err := pipe.Ingest(batch); err != nil {
				t.Fatalf("warmup: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := pipe.Ingest(batch); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		})
		pipe.Close()
		if allocs != 0 {
			t.Errorf("shards=%d: steady-state Ingest allocates %.1f times per batch, want 0", shards, allocs)
		}
	}
}

// TestStateSmallerThanExactCounting folds 2M zipfian events over 2^20 YCSB
// shapes through the default pipeline and into an exact map retaining every
// distinct shape (sized on the heap); the pipeline state must be ≥10× smaller.
func TestStateSmallerThanExactCounting(t *testing.T) {
	if testing.Short() {
		t.Skip("2M-event fold")
	}
	fold := func(each func([]ingest.Event)) *randgen.EventStream {
		stream, err := randgen.NewYCSB(randgen.YCSBParams{Shapes: 1 << 20}, 11)
		if err != nil {
			t.Fatalf("NewYCSB: %v", err)
		}
		batch := make([]ingest.Event, 8192)
		for done := 0; each != nil && done < 2_000_000; done += len(batch) {
			stream.Fill(batch)
			each(batch)
		}
		return stream
	}
	pipe, err := ingest.New(fold(nil).Base(), ingest.DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer pipe.Close()
	fold(func(b []ingest.Event) {
		if _, err := pipe.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	})

	type exactShape struct {
		ev    ingest.Event
		count uint64
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	exact := make(map[string]*exactShape)
	fold(func(b []ingest.Event) {
		for i := range b {
			key := b[i].Txn + "\x00" + b[i].Query
			if e := exact[key]; e != nil {
				e.count++
				continue
			}
			ev := b[i]
			ev.Accesses = append([]core.TableAccess(nil), ev.Accesses...)
			for j := range ev.Accesses {
				ev.Accesses[j].Attributes = append([]string(nil), ev.Accesses[j].Attributes...)
			}
			exact[key] = &exactShape{ev: ev, count: 1}
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	exactBytes := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	runtime.KeepAlive(exact)
	if state := int64(pipe.Stats().StateBytes); exactBytes < 10*state {
		t.Fatalf("ingest state %d bytes, exact counting of %d shapes %d bytes: ratio %.1f < 10",
			state, len(exact), exactBytes, float64(exactBytes)/float64(state))
	}
}
