package bench

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// hedgeDelayProb and hedgeDelay shape the delay tail the hedged-read
// fixtures inject: ~5% of round trips stall for 200× the link RTT —
// the straggler regime hedging exists for, deep enough that the tail
// (not the serial RTT cost) dominates the unhedged join. The hedge
// threshold (p85 of the replica set's latency window) sits safely above
// the fast mode and below the stall, so delayed probes hedge and prompt
// ones do not.
const (
	hedgeDelayProb = 0.05
	hedgeDelay     = 20 * time.Millisecond
	hedgeRTT       = 100 * time.Microsecond
	hedgePct       = 85
)

// hedgedProbe serves objs from `replicas` identical servers, each behind
// its own independently-seeded delay-tail netsim.Faulty link. One
// replica returns the bare remote; several return a ReplicaSet, with
// percentile hedging armed when hedge is set.
func hedgedProbe(tb testing.TB, name string, objs []geom.Object, replicas int, hedge bool, seed int64) core.Probe {
	tb.Helper()
	link := netsim.DefaultLink()
	link.RTT = hedgeRTT
	rems := make([]*client.Remote, replicas)
	for j := range rems {
		rt := netsim.NewFaulty(netsim.Serve(server.New(name, objs)), netsim.FaultConfig{
			Seed:      seed + int64(j),
			DelayProb: hedgeDelayProb,
			Delay:     hedgeDelay,
		})
		rem, err := client.NewRemote(name, rt, link, 1)
		if err != nil {
			tb.Fatal(err)
		}
		rems[j] = rem
	}
	if replicas == 1 {
		return rems[0]
	}
	cfg := shard.ReplicaConfig{Seed: seed}
	if hedge {
		cfg.HedgePct = hedgePct
	}
	rs, err := shard.NewReplicaSet(name, rems, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// runHedgedJoins executes `runs` sequential UpJoins over fresh delay-tail
// fleets and returns the sorted per-join wall-clock durations plus the
// (identical) pair count of every run.
func runHedgedJoins(tb testing.TB, replicas int, hedge bool, runs int) ([]time.Duration, int) {
	tb.Helper()
	robjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 41)
	sobjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 42)
	r := hedgedProbe(tb, "R", robjs, replicas, hedge, 7)
	s := hedgedProbe(tb, "S", sobjs, replicas, hedge, 107)
	defer r.Close()
	defer s.Close()
	env := core.NewEnv(r, s, client.Device{BufferObjects: 300}, costmodel.Default(), dataset.World)
	spec := core.Spec{Kind: core.Distance, Eps: 75}
	// One untimed warmup join fills the replica sets' latency windows
	// (percentile hedging stays disarmed until MinSamples observations),
	// so every timed run measures the steady-state policy, not the
	// cold-start ramp.
	if _, err := (core.UpJoin{}).Run(context.Background(), env, spec); err != nil {
		tb.Fatal(err)
	}
	durs := make([]time.Duration, 0, runs)
	pairs := -1
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		res, err := core.UpJoin{}.Run(context.Background(), env, spec)
		if err != nil {
			tb.Fatal(err)
		}
		durs = append(durs, time.Since(t0))
		if pairs >= 0 && len(res.Pairs) != pairs {
			tb.Fatalf("run %d: %d pairs, previous runs %d — replication changed the result", i, len(res.Pairs), pairs)
		}
		pairs = len(res.Pairs)
	}
	slices.Sort(durs)
	return durs, pairs
}

// quantileDur returns the pct-th percentile of sorted durations by
// nearest rank.
func quantileDur(sorted []time.Duration, pct float64) time.Duration {
	rank := int(float64(len(sorted))*pct/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// benchHedgedUpJoin is one arm of BenchmarkHedgedUpJoin: a full UpJoin
// per iteration over the delay-tail link, reporting tail latency
// alongside the standard ns/op.
func benchHedgedUpJoin(b *testing.B, replicas int) {
	durs, pairs := runHedgedJoins(b, replicas, replicas > 1, b.N)
	b.ReportMetric(float64(quantileDur(durs, 99))/1e6, "p99-ms")
	b.ReportMetric(float64(quantileDur(durs, 50))/1e6, "p50-ms")
	sink += pairs
}

// BenchmarkHedgedUpJoin pins the hedged-read tail win: identical UpJoins
// over a link whose round trips stall 8% of the time, served by one
// replica (every stall is paid in full) versus two hedged replicas (a
// stalled probe races a sibling and the fastest answer wins). Compare
// the p99-ms metric across the two arms; the result pairs are identical
// by construction (asserted inside the loop).
func BenchmarkHedgedUpJoin(b *testing.B) {
	b.Run("replicas1", func(b *testing.B) { benchHedgedUpJoin(b, 1) })
	b.Run("replicas2-hedged", func(b *testing.B) { benchHedgedUpJoin(b, 2) })
}

// TestHedgedTailLatency is the non-benchmark guard on the same fixture:
// with the delay tail injected, two hedged replicas must cut the p99
// join latency to at most 75% of the same two replicas with hedging off
// — the arms differ in the hedge alone, so nothing that speeds up or
// slows down a bare remote's probe path can move the ratio (the observed
// cut is far deeper — the bound is generous so scheduler noise cannot
// flake it), at identical result pairs.
func TestHedgedTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("tail-latency measurement needs real wall-clock runs")
	}
	const runs = 8
	plain, plainPairs := runHedgedJoins(t, 2, false, runs)
	hedged, hedgedPairs := runHedgedJoins(t, 2, true, runs)
	if plainPairs != hedgedPairs {
		t.Fatalf("hedging changed the result: %d pairs unhedged, %d hedged", plainPairs, hedgedPairs)
	}
	p99Plain := quantileDur(plain, 99)
	p99Hedged := quantileDur(hedged, 99)
	t.Logf("p99 join latency over two replicas: unhedged %v, hedged %v (%.0f%% of baseline)",
		p99Plain, p99Hedged, 100*float64(p99Hedged)/float64(p99Plain))
	if float64(p99Hedged) > 0.75*float64(p99Plain) {
		t.Errorf("hedged p99 %v is not ≥25%% below unhedged p99 %v", p99Hedged, p99Plain)
	}
}
