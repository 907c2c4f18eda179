package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestReplicatedMatchesOracle is the replication correctness guarantee:
// with every shard served by a replica set (round-robin load balancing
// splitting probes across the replica links), every algorithm × dataset
// kind still returns exactly the local oracle's result, sharded or not.
func TestReplicatedMatchesOracle(t *testing.T) {
	spec := Spec{Kind: Distance, Eps: 200}
	algs := map[string]Algorithm{
		"naive":    Naive{},
		"grid":     Grid{},
		"mobiJoin": MobiJoin{},
		"upJoin":   UpJoin{},
		"srJoin":   SrJoin{},
		"semiJoin": SemiJoin{},
	}
	for kindName, ds := range shardedDatasets(t) {
		robjs, sobjs := ds[0], ds[1]
		want := Oracle(robjs, sobjs, spec, World)
		if len(want.Pairs) == 0 {
			t.Fatalf("%s: empty distance oracle makes the suite vacuous", kindName)
		}
		for algName, alg := range algs {
			for _, shards := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/shards%d/replicas2", kindName, algName, shards)
				t.Run(name, func(t *testing.T) {
					sess, err := NewSession(SessionConfig{
						R: robjs, S: sobjs, Buffer: 300, Window: World,
						Seed: 5, Shards: shards, Replicas: 2, Parallelism: 2,
						PublishIndexes: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					got, err := sess.Run(alg, spec)
					if err != nil {
						t.Fatal(err)
					}
					assertShardedResult(t, name, spec, got, want)
				})
			}
		}
	}
}

// killAfterRT lets a replica serve its first `after` round trips, then
// reroutes every subsequent one through a seeded netsim.Faulty that
// severs 100% of connections — the replica dying mid-join at a
// deterministic point in the request schedule (no sleeps, no races).
type killAfterRT struct {
	inner netsim.RoundTripper
	sever *netsim.Faulty
	after int64
	calls atomic.Int64
}

func newKillAfterRT(inner netsim.RoundTripper, after int64, seed int64) *killAfterRT {
	return &killAfterRT{
		inner: inner,
		after: after,
		sever: netsim.NewFaulty(inner, netsim.FaultConfig{
			Seed: seed, SeverProb: 1, MaxConsecutive: 1 << 30,
		}),
	}
}

func (k *killAfterRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if k.calls.Add(1) > k.after {
		return k.sever.RoundTrip(ctx, req)
	}
	return k.inner.RoundTrip(ctx, req)
}

func (k *killAfterRT) Close() error { return k.inner.Close() }

// replicatedChaosFleet wires one relation as 2 shards × 2 replicas where
// the *second* replica of every shard dies after its first round trip.
// The per-link retry policy is deliberately tight (2 attempts), so the
// dead replica exhausts its retries fast and recovery must come from the
// replica set's failover — the layer under test.
func replicatedChaosFleet(t *testing.T, name string, objs []Object, workers int, seed int64) (*shard.Router, []*shard.ReplicaSet) {
	t.Helper()
	retry := client.RetryPolicy{MaxAttempts: 2, Backoff: 50 * time.Microsecond}
	parts := shard.Assign(objs, 2)
	sets := make([]*shard.ReplicaSet, len(parts))
	eps := make([]shard.Endpoint, len(parts))
	for i, part := range parts {
		sname := fmt.Sprintf("%s%d/2", name, i+1)
		rems := make([]*client.Remote, 2)
		for j := range rems {
			rname := fmt.Sprintf("%s-r%d", sname, j+1)
			var rt netsim.RoundTripper = netsim.ServeParallel(
				server.New(rname, part, server.PublishIndex()), workers)
			if j == 1 {
				rt = newKillAfterRT(rt, 1, seed+int64(i))
			}
			rem, err := client.NewRemote(rname, rt, netsim.DefaultLink(), 1, client.WithRetry(retry))
			if err != nil {
				t.Fatal(err)
			}
			rems[j] = rem
		}
		rset, err := shard.NewReplicaSet(sname, rems, shard.ReplicaConfig{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = rset
		eps[i] = rset
	}
	router, err := shard.NewRouter(name, eps)
	if err != nil {
		t.Fatal(err)
	}
	return router, sets
}

// TestReplicatedKillReplicaMidJoin is the replica chaos battery: one
// replica of every shard of both relations dies after its first answer,
// for every algorithm × dataset kind × parallelism. The join must still
// complete with exactly the oracle's pairs (the sibling replica holds
// identical data), the failover path must actually be taken, and no
// goroutine may outlive the fleet.
func TestReplicatedKillReplicaMidJoin(t *testing.T) {
	spec := Spec{Kind: Distance, Eps: 200}
	algs := map[string]Algorithm{
		"naive":    Naive{},
		"grid":     Grid{},
		"mobiJoin": MobiJoin{},
		"upJoin":   UpJoin{},
		"srJoin":   SrJoin{},
		"semiJoin": SemiJoin{},
	}
	for kindName, ds := range shardedDatasets(t) {
		robjs, sobjs := ds[0], ds[1]
		want := Oracle(robjs, sobjs, spec, World)
		if len(want.Pairs) == 0 {
			t.Fatalf("%s: empty distance oracle makes the chaos suite vacuous", kindName)
		}
		for algName, alg := range algs {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/par%d", kindName, algName, par)
				t.Run(name, func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					workers := par
					if workers < 1 {
						workers = 1
					}
					seed := int64(len(algName))*100 + int64(par)
					routerR, setsR := replicatedChaosFleet(t, "R", robjs, workers, seed)
					routerS, setsS := replicatedChaosFleet(t, "S", sobjs, workers, seed+10)
					env := core.NewEnv(routerR, routerS,
						client.Device{BufferObjects: 300}, costmodel.Default(), World)
					env.Seed = 5
					env.Parallelism = par

					got, err := alg.Run(context.Background(), env, spec)
					if err != nil {
						t.Fatalf("join with killed replicas: %v", err)
					}
					assertShardedResult(t, name, spec, got, want)

					var failovers, hedges int64
					for _, rs := range append(append([]*shard.ReplicaSet{}, setsR...), setsS...) {
						st := rs.Stats()
						failovers += st.Failovers
						hedges += st.Hedges
					}
					if failovers == 0 {
						t.Fatal("every shard lost a replica mid-join, yet no probe failed over")
					}
					if hedges != 0 {
						t.Fatalf("hedging is off, yet %d hedges launched", hedges)
					}

					routerR.Close()
					routerS.Close()
					waitShardedGoroutines(t, baseline)
				})
			}
		}
	}
}
