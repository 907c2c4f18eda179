package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// shardedDatasets are the workload kinds the sharded oracle suite runs:
// clustered points (the paper's synthetic workload), uniform points (no
// skew for the tile assignment to exploit), and railway line segments
// (MBR data, so objects straddle shard-tile boundaries).
func shardedDatasets(t *testing.T) map[string][2][]Object {
	t.Helper()
	rail := dataset.RailwayConfig{Segments: 400, Stations: 20, Degree: 3, Bounds: World, Jitter: 25}
	return map[string][2][]Object{
		"clusters": {
			GaussianClusters(300, 4, 900, World, 81),
			GaussianClusters(300, 4, 900, World, 82),
		},
		"uniform": {
			Uniform(300, World, 83),
			Uniform(300, World, 84),
		},
		"railway": {
			Railway(rail, 85),
			GaussianClusters(300, 6, 400, World, 86),
		},
	}
}

// TestShardedMatchesOracle is the sharding correctness guarantee: every
// algorithm × dataset kind × shard count ∈ {1, 2, 4} × parallelism ∈
// {1, 4} returns exactly the local oracle's result. Sharding changes
// which servers hold which objects and how replies merge — never the
// logical answers the device computes from them. Run under -race this
// also exercises the router's scatter/gather synchronization.
func TestShardedMatchesOracle(t *testing.T) {
	specs := map[string]Spec{
		"intersection": {Kind: Intersection},
		"distance":     {Kind: Distance, Eps: 200},
		"iceberg":      {Kind: IcebergSemi, Eps: 200, MinMatches: 2},
	}
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
		for specName, spec := range specs {
			want := Oracle(robjs, sobjs, spec, World)
			// Guard against a vacuous suite: the distance oracle must be
			// non-trivial for every dataset kind (the seeds are fixed, so
			// an empty one means the workload regressed).
			if spec.Kind == Distance && len(want.Pairs) == 0 {
				t.Fatalf("%s/%s: empty distance oracle makes the suite vacuous", kindName, specName)
			}
			for algName, alg := range algs {
				if algName == "semiJoin" && spec.Kind == IcebergSemi {
					continue // semiJoin has no iceberg semantics
				}
				for _, shards := range []int{1, 2, 4} {
					for _, par := range []int{1, 4} {
						name := fmt.Sprintf("%s/%s/%s/shards%d/par%d", kindName, specName, algName, shards, par)
						t.Run(name, func(t *testing.T) {
							sess, err := NewSession(SessionConfig{
								R: robjs, S: sobjs, Buffer: 300, Window: World,
								Seed: 5, Shards: shards, Parallelism: par,
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
	}
}

// TestShardedBucketAndBatchMatchOracle covers the remaining probe paths
// through the router: bucket query submission (BucketRange /
// BucketRangeCount scatter with per-probe reassembly) and MsgBatch
// multiplexing (GoBatch routing through the per-shard-link batchers).
func TestShardedBucketAndBatchMatchOracle(t *testing.T) {
	robjs := GaussianClusters(300, 4, 900, World, 87)
	sobjs := GaussianClusters(300, 4, 900, World, 88)
	specs := map[string]Spec{
		"distance": {Kind: Distance, Eps: 200},
		"iceberg":  {Kind: IcebergSemi, Eps: 200, MinMatches: 2},
	}
	for specName, spec := range specs {
		want := Oracle(robjs, sobjs, spec, World)
		for _, mode := range []struct {
			name   string
			bucket bool
			batch  int
		}{
			{"bucket", true, 0},
			{"batch4", false, 4},
			{"bucket-batch8", true, 8},
		} {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/shards3/par%d", specName, mode.name, par)
				t.Run(name, func(t *testing.T) {
					sess, err := NewSession(SessionConfig{
						R: robjs, S: sobjs, Buffer: 300, Window: World,
						Seed: 5, Shards: 3, Parallelism: par,
						Bucket: mode.bucket, BatchSize: mode.batch,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer sess.Close()
					got, err := sess.Run(UpJoin{}, spec)
					if err != nil {
						t.Fatal(err)
					}
					assertShardedResult(t, name, spec, got, want)
				})
			}
		}
	}
}

// TestCountOnlyMatchesListAndOracle: a count-only run (Spec.CountOnly)
// is the listing run without the list. For every algorithm name
// ParseAlgorithm knows × {intersection, distance} × {unsharded, 4
// shards, 4 shards under a fanout-2 tree} × parallelism {1, 4} × batch
// size {1, 8} it returns no pairs, the listing run's and the oracle's
// count, and the listing run's Stats field for field — the same bytes,
// queries and decisions, so the same frames. At parallelism 4 × batch 8
// two listing runs already differ in frames (envelope membership follows
// timing), so there the decision counters alone must agree. Under -race
// the engine also lists a counting run's pairs and checks the count
// against them.
func TestCountOnlyMatchesListAndOracle(t *testing.T) {
	ds := shardedDatasets(t)
	// Intersection joins railway segments (extents) with points, distance
	// joins two point sets: the device's extent and point loops both count.
	specs := map[string]struct {
		spec Spec
		data [2][]Object
	}{
		"intersection": {Spec{Kind: Intersection}, ds["railway"]},
		"distance":     {Spec{Kind: Distance, Eps: 200}, ds["clusters"]},
	}
	topologies := []struct {
		name           string
		shards, fanout int
	}{{"unsharded", 0, 0}, {"shards4", 4, 0}, {"shards4/tree2", 4, 2}}
	for specName, c := range specs {
		spec, robjs, sobjs := c.spec, c.data[0], c.data[1]
		want := Oracle(robjs, sobjs, spec, World).Count
		if want == 0 {
			t.Fatalf("%s: empty oracle makes the matrix vacuous", specName)
		}
		for _, algName := range []string{"upjoin", "naive", "grid", "mobijoin", "srjoin", "semijoin", "auto"} {
			alg, err := core.ParseAlgorithm(algName)
			if err != nil {
				t.Fatal(err)
			}
			for _, topo := range topologies {
				for _, par := range []int{1, 4} {
					for _, batch := range []int{1, 8} {
						name := fmt.Sprintf("%s/%s/%s/par%d/batch%d", specName, algName, topo.name, par, batch)
						t.Run(name, func(t *testing.T) {
							run := func(countOnly bool) *Result {
								sess, err := NewSession(SessionConfig{
									R: robjs, S: sobjs, Buffer: 300, Window: World, Seed: 5,
									Shards: topo.shards, TreeFanout: topo.fanout,
									Parallelism: par, BatchSize: batch, PublishIndexes: true,
								})
								if err != nil {
									t.Fatal(err)
								}
								defer sess.Close()
								sp := spec
								sp.CountOnly = countOnly
								res, err := sess.Run(alg, sp)
								if err != nil {
									t.Fatal(err)
								}
								return res
							}
							list, count := run(false), run(true)
							if count.Pairs != nil {
								t.Errorf("count-only run returned %d pairs", len(count.Pairs))
							}
							if count.Count != len(list.Pairs) || list.Count != len(list.Pairs) || count.Count != want {
								t.Errorf("count-only run counts %d, listing run lists %d (Count %d), oracle %d",
									count.Count, len(list.Pairs), list.Count, want)
							}
							cs, ls := count.Stats, list.Stats
							if par > 1 && batch > 1 {
								// Which probes share an envelope depends on
								// timing here, so two listing runs differ in
								// frames too: compare what the plan decided.
								cs = Stats{AggQueries: cs.AggQueries, HBSJ: cs.HBSJ, NLSJ: cs.NLSJ, Repartitions: cs.Repartitions, Pruned: cs.Pruned}
								ls = Stats{AggQueries: ls.AggQueries, HBSJ: ls.HBSJ, NLSJ: ls.NLSJ, Repartitions: ls.Repartitions, Pruned: ls.Pruned}
							}
							if !reflect.DeepEqual(cs, ls) {
								t.Errorf("count-only stats differ:\n count %+v\n list  %+v", cs, ls)
							}
						})
					}
				}
			}
		}
	}
}

func assertShardedResult(t *testing.T, name string, spec Spec, got, want *core.Result) {
	t.Helper()
	if spec.Kind == IcebergSemi {
		if len(got.Objects) != len(want.Objects) {
			t.Fatalf("%s: %d iceberg objects, oracle %d", name, len(got.Objects), len(want.Objects))
		}
		for i := range got.Objects {
			if got.Objects[i].ID != want.Objects[i].ID {
				t.Fatalf("%s: iceberg object %d = id %d, oracle id %d",
					name, i, got.Objects[i].ID, want.Objects[i].ID)
			}
		}
		return
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, oracle %d", name, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d = %+v, oracle %+v", name, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// --- sharded chaos / failure-injection suite ------------------------------

// shardedChaosEnv wires a core.Env whose relations are 2-shard routers
// with seeded fault injection below every shard link's meter, plus a
// retry policy generous enough that every query eventually lands.
func shardedChaosEnv(t *testing.T, robjs, sobjs []Object, par int, seed int64) *core.Env {
	t.Helper()
	retry := client.RetryPolicy{MaxAttempts: 12, Backoff: 50 * time.Microsecond}
	build := func(name string, objs []Object, seed int64) *shard.Router {
		parts := shard.Assign(objs, 2)
		rems := make([]shard.Endpoint, len(parts))
		for i, part := range parts {
			sname := fmt.Sprintf("%s%d/2", name, i+1)
			cfg := netsim.FaultConfig{
				Seed:           seed + int64(i),
				DropProb:       0.12,
				SeverProb:      0.08,
				DelayProb:      0.02,
				Delay:          100 * time.Microsecond,
				MaxConsecutive: 3,
			}
			ft := netsim.NewFaulty(netsim.Serve(server.New(sname, part)), cfg)
			rem, err := client.NewRemote(sname, ft, netsim.DefaultLink(), 1, client.WithRetry(retry))
			if err != nil {
				t.Fatal(err)
			}
			rems[i] = rem
		}
		router, err := shard.NewRouter(name, rems)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { router.Close() })
		return router
	}
	env := core.NewEnv(build("R", robjs, seed), build("S", sobjs, seed+100),
		client.Device{BufferObjects: 500}, costmodel.Default(), geom.Rect{})
	env.Parallelism = par
	return env
}

// TestShardedChaosMatchesOracle extends the PR 3 chaos suite to sharded
// relations: with drops and severed responses injected independently on
// all four shard links, the retried scatter still produces the oracle
// result.
func TestShardedChaosMatchesOracle(t *testing.T) {
	robjs := GaussianClusters(250, 4, 900, World, 91)
	sobjs := GaussianClusters(250, 4, 900, World, 92)
	window := dataset.Bounds(robjs).Union(dataset.Bounds(sobjs))
	spec := Spec{Kind: Distance, Eps: 200}
	want := Oracle(robjs, sobjs, spec, window)
	if len(want.Pairs) == 0 {
		t.Fatal("empty distance oracle makes the chaos suite vacuous")
	}
	for _, alg := range []Algorithm{UpJoin{}, Grid{}, Naive{}} {
		for _, par := range []int{1, 4} {
			env := shardedChaosEnv(t, robjs, sobjs, par, int64(len(alg.Name()))*10+int64(par))
			got, err := alg.Run(context.Background(), env, spec)
			if err != nil {
				t.Fatalf("%s p=%d under faults: %v", alg.Name(), par, err)
			}
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("%s p=%d: %d pairs, oracle %d", alg.Name(), par, len(got.Pairs), len(want.Pairs))
			}
			for i := range got.Pairs {
				if got.Pairs[i] != want.Pairs[i] {
					t.Fatalf("%s p=%d: pair %d differs", alg.Name(), par, i)
				}
			}
		}
	}
}

// killableRT passes round trips through until killed, then fails every
// call — a shard server process dying mid-join.
type killableRT struct {
	inner  netsim.RoundTripper
	killed atomic.Bool
}

var errShardKilled = errors.New("shard server killed")

func (k *killableRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if k.killed.Load() {
		return nil, errShardKilled
	}
	return k.inner.RoundTrip(ctx, req)
}

func (k *killableRT) Close() error { return k.inner.Close() }

// frameLog records the request frames each wrapped replica link carries,
// in the order they reach its server.
type frameLog struct {
	mu     sync.Mutex
	frames map[string][][]byte
}

func (l *frameLog) wrap(name string, rt netsim.RoundTripper) netsim.RoundTripper {
	return &loggedRT{RoundTripper: rt, name: name, log: l}
}

type loggedRT struct {
	netsim.RoundTripper
	name string
	log  *frameLog
}

func (t *loggedRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	t.log.mu.Lock()
	t.log.frames[t.name] = append(t.log.frames[t.name], slices.Clone(req))
	t.log.mu.Unlock()
	return t.RoundTripper.RoundTrip(ctx, req)
}

// TestShardedLinkOrderIndependentOfTiming holds a sequential sharded run
// to one wire schedule: the router sends one request's sub-requests to
// its shards at once, so which shard answers first may vary, but the
// frames each link carries and their order may not. Two runs of the same
// join (no breakers, no hedging) must send every server link the
// identical frame sequence — over replica sets whose probe groups are
// batched and replica sets whose groups are not (each request's replica
// is picked when it is submitted, not when it is sent), over plain shard
// remotes, and through an aggregation tree.
func TestShardedLinkOrderIndependentOfTiming(t *testing.T) {
	robjs := GaussianClusters(400, 4, 600, World, 93)
	sobjs := GaussianClusters(400, 4, 600, World, 94)
	spec := core.Spec{Kind: core.Distance, Eps: 80}
	run := func(cfg fleet.Config, alg core.Algorithm) map[string][][]byte {
		log := &frameLog{frames: map[string][][]byte{}}
		cfg.R, cfg.S, cfg.Buffer, cfg.Parallelism = robjs, sobjs, 300, 1
		f, err := fleet.Serve(cfg, log.wrap)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := alg.Run(context.Background(), f.NewEnv(f.R, f.S), spec); err != nil {
			t.Fatal(err)
		}
		return log.frames
	}
	fleets := map[string]fleet.Config{
		"2x2-batch8": {Shards: 2, Replicas: 2, BatchSize: 8},
		"2x2":        {Shards: 2, Replicas: 2},
		"2x1":        {Shards: 2},
		"4-tree2":    {Shards: 4, TreeFanout: 2},
	}
	for fname, cfg := range fleets {
		for aname, alg := range map[string]core.Algorithm{"upJoin": core.UpJoin{}, "grid": core.Grid{}} {
			t.Run(fname+"/"+aname, func(t *testing.T) {
				first, second := run(cfg, alg), run(cfg, alg)
				if links := 2 * cfg.Shards * max(cfg.Replicas, 1); len(first) != links || len(second) != links {
					t.Fatalf("%d and %d links carried frames, want %d", len(first), len(second), links)
				}
				for link, want := range first {
					got := second[link]
					if len(got) != len(want) {
						t.Errorf("%s: %d frames, then %d", link, len(want), len(got))
						continue
					}
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Errorf("%s: frame %d of %d differs between runs (%v, then %v)",
								link, i, len(want), wire.Type(want[i]), wire.Type(got[i]))
							break
						}
					}
				}
			})
		}
	}
}

// TestShardedKillOneServerMidJoin kills one of four shard servers while a
// join is running: the run must fail promptly with an error naming the
// dead shard (not a generic cancellation), every worker goroutine must
// join, and nothing may leak once the session closes.
func TestShardedKillOneServerMidJoin(t *testing.T) {
	for _, par := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		robjs := GaussianClusters(400, 4, 300, World, 93)
		sobjs := GaussianClusters(400, 4, 300, World, 94)
		// A simulated RTT keeps the join in flight long enough to kill the
		// shard mid-run on any scheduler.
		link := netsim.DefaultLink()
		link.RTT = 2 * time.Millisecond
		var kill *killableRT
		build := func(name string, objs []Object, killable bool) *shard.Router {
			parts := shard.Assign(objs, 2)
			rems := make([]shard.Endpoint, len(parts))
			for i, part := range parts {
				sname := fmt.Sprintf("%s%d/2", name, i+1)
				var rt netsim.RoundTripper = netsim.Serve(server.New(sname, part))
				if killable && i == 1 {
					kill = &killableRT{inner: rt}
					rt = kill
				}
				rem, err := client.NewRemote(sname, rt, link, 1)
				if err != nil {
					t.Fatal(err)
				}
				rems[i] = rem
			}
			router, err := shard.NewRouter(name, rems)
			if err != nil {
				t.Fatal(err)
			}
			return router
		}
		routerR := build("R", robjs, false)
		routerS := build("S", sobjs, true)
		env := core.NewEnv(routerR, routerS, client.Device{BufferObjects: 200}, costmodel.Default(), geom.Rect{})
		env.Parallelism = par

		done := make(chan error, 1)
		go func() {
			_, err := UpJoin{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 120})
			done <- err
		}()
		time.Sleep(5 * time.Millisecond)
		kill.killed.Store(true)
		select {
		case err := <-done:
			// The join may have finished before the kill landed (small
			// workload, fast scheduler); a nil error is only acceptable in
			// that case.
			if err != nil {
				if !errors.Is(err, errShardKilled) {
					t.Fatalf("p=%d: err = %v, want the shard fault as root cause", par, err)
				}
				if !strings.Contains(err.Error(), "S2/2") {
					t.Fatalf("p=%d: err %q does not name the killed shard", par, err)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("p=%d: join did not return after shard kill", par)
		}
		routerR.Close()
		routerS.Close()
		waitShardedGoroutines(t, baseline)
	}
}

// waitShardedGoroutines polls until the goroutine count settles back to
// at most base.
func waitShardedGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}
