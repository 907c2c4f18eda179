package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
)

// testEnvBatch is testEnvParallel with probe batching enabled on both
// links.
func testEnvBatch(t *testing.T, robjs, sobjs []geom.Object, buffer, parallelism, batch int, opts ...server.Option) *Env {
	t.Helper()
	workers := parallelism
	if workers < 1 {
		workers = 1
	}
	var copts []client.Option
	if batch > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: batch}))
	}
	trR := netsim.ServeParallel(server.New("R", robjs, opts...), workers)
	trS := netsim.ServeParallel(server.New("S", sobjs, opts...), workers)
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1, copts...)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1, copts...)
	t.Cleanup(func() { r.Close(); s.Close() })
	env := NewEnv(r, s, client.Device{BufferObjects: buffer}, costmodel.Default(), geom.Rect{})
	env.Parallelism = parallelism
	env.BatchSize = batch
	return env
}

// TestBatchedMatchesOracle is the batching correctness guarantee: for
// every algorithm × join kind × BatchSize ∈ {1, 4, 16} × Parallelism ∈
// {1, 4}, the result set is identical to the local oracle. Batching
// changes framing only, never the query answers that reach the device.
func TestBatchedMatchesOracle(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 61)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 62)
	window := dataset.Bounds(robjs).Union(dataset.Bounds(sobjs))

	specs := map[string]Spec{
		"intersection": {Kind: Intersection},
		"distance":     {Kind: Distance, Eps: 90},
		"iceberg":      {Kind: IcebergSemi, Eps: 90, MinMatches: 2},
	}
	algs := []Algorithm{Naive{}, Grid{}, MobiJoin{}, UpJoin{}, SrJoin{}}

	for specName, spec := range specs {
		want := Oracle(robjs, sobjs, spec, window)
		for _, alg := range algs {
			for _, batch := range []int{1, 4, 16} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/batch%d/par%d", alg.Name(), specName, batch, par)
					t.Run(name, func(t *testing.T) {
						env := testEnvBatch(t, robjs, sobjs, 300, par, batch)
						env.Seed = 5
						got, err := alg.Run(context.Background(), env, spec)
						if err != nil {
							t.Fatal(err)
						}
						assertSameResult(t, name, spec, got, want)
					})
				}
			}
		}
	}
}

// TestBatchedSemiJoinMatchesOracle covers the cooperative comparator: its
// three round trips are dependent (each consumes the previous answer), so
// nothing coalesces, but a batching environment must not disturb it.
func TestBatchedSemiJoinMatchesOracle(t *testing.T) {
	robjs := dataset.GaussianClusters(300, 3, 300, dataset.World, 63)
	sobjs := dataset.GaussianClusters(500, 3, 300, dataset.World, 64)
	window := dataset.Bounds(robjs).Union(dataset.Bounds(sobjs))
	spec := Spec{Kind: Distance, Eps: 90}
	want := Oracle(robjs, sobjs, spec, window)

	env := testEnvBatch(t, robjs, sobjs, 300, 1, 16, server.PublishIndex())
	got, err := SemiJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "semiJoin/batch16", spec, got, want)
}

// TestBatchSizeOneIsBitIdentical: BatchSize 1 (and 0) must produce the
// exact frame sequence — and therefore byte totals — of a pre-batching
// run. This is the compatibility half of the golden guarantee.
func TestBatchSizeOneIsBitIdentical(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 65)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 66)
	spec := Spec{Kind: Distance, Eps: 90}

	run := func(batch int) Stats {
		env := testEnvBatch(t, robjs, sobjs, 300, 1, batch)
		env.Seed = 5
		res, err := UpJoin{}.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	plain, one := run(0), run(1)
	if plain.R != one.R || plain.S != one.S {
		t.Errorf("BatchSize 1 changed accounting:\n  0: R %+v S %+v\n  1: R %+v S %+v",
			plain.R, plain.S, one.R, one.S)
	}
}

// TestBatchingReducesFrames pins the tentpole target: at BatchSize 16 a
// probe-heavy run must cross the wire in at most half the frames of the
// unbatched run, for both UpJoin and Grid. (Latency gains on RTT-bearing
// links follow directly: fewer frames = fewer sequential round trips.)
func TestBatchingReducesFrames(t *testing.T) {
	robjs := dataset.GaussianClusters(500, 2, 200, dataset.World, 67)
	sobjs := dataset.GaussianClusters(500, 2, 200, dataset.World, 68)
	spec := Spec{Kind: Distance, Eps: 90}

	for _, alg := range []Algorithm{UpJoin{}, Grid{}} {
		t.Run(alg.Name(), func(t *testing.T) {
			frames := func(batch int) (int, *Result) {
				env := testEnvBatch(t, robjs, sobjs, 250, 1, batch)
				env.Seed = 5
				res, err := alg.Run(context.Background(), env, spec)
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats.R.Messages + res.Stats.S.Messages, res
			}
			plain, resPlain := frames(1)
			batched, resBatched := frames(16)
			if 2*batched > plain {
				t.Errorf("frames: %d unbatched vs %d at BatchSize 16 — want at least 2× fewer", plain, batched)
			}
			assertSameResult(t, alg.Name(), spec, resBatched, resPlain)
			t.Logf("%s: %d frames → %d frames (%.1f×)", alg.Name(), plain, batched, float64(plain)/float64(batched))
		})
	}
}

// TestBatchedSequentialFramingDeterministic: at Parallelism 1 the framing
// (and hence every meter counter) of a batched run must be reproducible —
// the property the batched golden pins.
func TestBatchedSequentialFramingDeterministic(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 69)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 70)
	spec := Spec{Kind: Distance, Eps: 90}

	run := func() (netsim.Usage, netsim.Usage) {
		env := testEnvBatch(t, robjs, sobjs, 300, 1, 4)
		env.Seed = 5
		res, err := UpJoin{}.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.R, res.Stats.S
	}
	r1, s1 := run()
	for i := 0; i < 3; i++ {
		r2, s2 := run()
		if r1 != r2 || s1 != s2 {
			t.Fatalf("run %d metered differently:\n  first R %+v S %+v\n  now   R %+v S %+v", i+2, r1, s1, r2, s2)
		}
	}
}

// TestBatchedMultiwayMatchesOracle: the chain join hands BatchSize to
// every link's environment; the tuples must match the oracle chain.
func TestBatchedMultiwayMatchesOracle(t *testing.T) {
	datasets := [][]geom.Object{
		dataset.GaussianClusters(150, 3, 300, dataset.World, 201),
		dataset.GaussianClusters(200, 3, 300, dataset.World, 201),
		dataset.GaussianClusters(150, 3, 300, dataset.World, 201),
	}
	eps := []float64{150, 150}
	remotes := make([]Probe, len(datasets))
	for i, objs := range datasets {
		tr := netsim.Serve(server.New("D", objs))
		r := mustRemote(t, "D", tr, netsim.DefaultLink(), 1,
			client.WithBatch(client.BatchConfig{MaxBatch: 8}))
		t.Cleanup(func() { r.Close() })
		remotes[i] = r
	}
	res, err := Multiway{BatchSize: 8}.RunChain(context.Background(), remotes,
		client.Device{BufferObjects: 500}, costmodel.Default(), dataset.World, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := MultiwayOracle(datasets, eps, dataset.World)
	if len(want) == 0 {
		t.Fatal("vacuous: oracle chain empty")
	}
	if !tuplesEqual(res.Tuples, want) {
		t.Fatalf("got %d tuples, oracle %d", len(res.Tuples), len(want))
	}
}

// assertSameResult compares two results under the spec's semantics.
func assertSameResult(t *testing.T, name string, spec Spec, got, want *Result) {
	t.Helper()
	if spec.Kind == IcebergSemi {
		if len(got.Objects) != len(want.Objects) {
			t.Fatalf("%s: %d objects, want %d", name, len(got.Objects), len(want.Objects))
		}
		for i := range got.Objects {
			if got.Objects[i].ID != want.Objects[i].ID {
				t.Fatalf("%s: object %d = id %d, want %d", name, i, got.Objects[i].ID, want.Objects[i].ID)
			}
		}
		return
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// TestGridPhasesSameInBothFramings: batching decides how a probe group is
// framed, never which phases a run has — the grid's observe → transfer
// sequence (kind and name of every PhaseEvent) is the same with BatchSize
// 1 and 8, and the batched run still meters fewer messages.
func TestGridPhasesSameInBothFramings(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 61)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 62)
	spec := Spec{Kind: Distance, Eps: 90}
	run := func(batch int) (phases []string, messages int) {
		env := testEnvBatch(t, robjs, sobjs, 300, 1, batch)
		env.Observer = func(ev PhaseEvent) { phases = append(phases, ev.Kind.String()+" "+ev.Name) }
		res, err := Grid{}.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatal(err)
		}
		return phases, res.Stats.R.Messages + res.Stats.S.Messages
	}
	plain, plainMsgs := run(1)
	batched, batchedMsgs := run(8)
	if !slices.Equal(plain, batched) {
		t.Errorf("phase sequence differs by framing:\n batch 1: %q\n batch 8: %q", plain, batched)
	}
	if !slices.Contains(plain, "observe observe/grid-counts-r") {
		t.Errorf("unbatched grid emitted no observation phase: %q", plain)
	}
	if batchedMsgs >= plainMsgs {
		t.Errorf("batched grid metered %d messages, unbatched %d: batching framed nothing", batchedMsgs, plainMsgs)
	}
}
