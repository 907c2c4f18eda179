package shard

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
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
)

// newLocalOracle serves objs from one plain unsharded in-process server —
// the reference every ServeLocal layout must agree with.
func newLocalOracle(t *testing.T, objs []geom.Object) *client.Remote {
	t.Helper()
	tr := netsim.Serve(server.New("D", objs, server.PublishIndex()))
	oracle, err := client.NewRemote("D", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.Close() })
	return oracle
}

func samePairs(t *testing.T, what string, got, want []geom.Pair) {
	t.Helper()
	order := func(a, b geom.Pair) int {
		if c := cmp.Compare(a.RID, b.RID); c != 0 {
			return c
		}
		return cmp.Compare(a.SID, b.SID)
	}
	slices.SortFunc(got, order)
	slices.SortFunc(want, order)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d pairs, want %d (or contents differ)", what, len(got), len(want))
	}
}

// TestServeLocalMatchesOracle drives the shared boot constructor across
// the shards × replicas grid and checks every probe type the device
// issues against a single unsharded server. This is the seam both the
// repro session and the experiment harness assemble their fleets
// through, so a divergence here breaks every replicated consumer at once.
func TestServeLocalMatchesOracle(t *testing.T) {
	objs := dataset.GaussianClusters(400, 4, 500, dataset.World, 21)
	oracle := newLocalOracle(t, objs)
	ctx := context.Background()
	w := geom.R(1000, 1000, 6000, 6000)
	p := geom.Pt(4000, 4000)
	const eps = 400

	for _, tc := range []struct{ shards, replicas int }{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 3},
	} {
		t.Run(fmt.Sprintf("shards%d-replicas%d", tc.shards, tc.replicas), func(t *testing.T) {
			router, err := ServeLocal("D", objs, LocalConfig{
				Shards: tc.shards, Replicas: tc.replicas, Workers: 2,
				Link: netsim.DefaultLink(), Price: 1,
				ServerOpts: []server.Option{server.PublishIndex()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			if router.Name() != "D" || router.NumShards() != max(tc.shards, 1) {
				t.Fatalf("router %q over %d shards, want D over %d",
					router.Name(), router.NumShards(), tc.shards)
			}

			info, err := router.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			oinfo, err := oracle.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if info.Count != oinfo.Count {
				t.Fatalf("INFO count %d, oracle %d", info.Count, oinfo.Count)
			}

			cnt, err := router.Count(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			ocnt, err := oracle.Count(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != ocnt {
				t.Fatalf("COUNT %d, oracle %d", cnt, ocnt)
			}

			win, err := router.Window(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			owin, err := oracle.Window(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			sameObjects(t, "WINDOW", win, owin)

			rng, err := router.Range(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			orng, err := oracle.Range(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameObjects(t, "RANGE", rng, orng)

			rc, err := router.RangeCount(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			if rc != len(orng) {
				t.Fatalf("RANGECOUNT %d, oracle %d", rc, len(orng))
			}

			pts := []geom.Point{p, geom.Pt(2000, 2000), geom.Pt(6500, 1500)}
			bks, err := router.BucketRange(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			obks, err := oracle.BucketRange(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				sameObjects(t, fmt.Sprintf("BUCKETRANGE[%d]", i), bks[i], obks[i])
			}
			bcs, err := router.BucketRangeCount(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pts {
				if int(bcs[i]) != len(obks[i]) {
					t.Fatalf("BUCKETRANGECOUNT[%d] = %d, oracle %d", i, bcs[i], len(obks[i]))
				}
			}

			probe := objs[:50:50]
			pairs, err := router.UploadJoin(ctx, probe, eps)
			if err != nil {
				t.Fatal(err)
			}
			opairs, err := oracle.UploadJoin(ctx, probe, eps)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, "UPLOADJOIN", pairs, opairs)

			mbrs, err := router.LevelMBRs(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(mbrs) == 0 {
				t.Fatal("LEVELMBRS: published index answered no rectangles")
			}
			match, err := router.MBRMatch(ctx, mbrs[:1], eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(match) == 0 {
				t.Fatal("MBRMATCH against the root MBR matched nothing")
			}
			if _, err := router.AvgArea(ctx, w); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeLocalReplicaWiring pins the boot topology itself: shard and
// replica naming, the endpoint types behind the router, the shared
// tariff, and the usage/retry/latency plumbing the accounting and the
// hedging policy hang off.
func TestServeLocalReplicaWiring(t *testing.T) {
	objs := dataset.GaussianClusters(200, 4, 500, dataset.World, 23)
	router, err := ServeLocal("R", objs, LocalConfig{
		Shards: 2, Replicas: 2, Workers: 2, HedgePct: 95,
		Link: netsim.DefaultLink(), Price: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	eps := router.Shards()
	if len(eps) != 2 {
		t.Fatalf("%d endpoints, want 2", len(eps))
	}
	for i, ep := range eps {
		rs, ok := ep.(*ReplicaSet)
		if !ok {
			t.Fatalf("shard %d endpoint is %T, want *ReplicaSet", i, ep)
		}
		wantName := fmt.Sprintf("R%d/2", i+1)
		if rs.Name() != wantName {
			t.Errorf("shard %d named %q, want %q", i, rs.Name(), wantName)
		}
		reps := rs.replicas
		if len(reps) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", i, len(reps))
		}
		for j, rem := range reps {
			if want := fmt.Sprintf("%s-r%d", wantName, j+1); rem.Name() != want {
				t.Errorf("replica named %q, want %q", rem.Name(), want)
			}
		}
		if rs.PricePerByte() != 3 {
			t.Errorf("shard %d tariff %v, want 3", i, rs.PricePerByte())
		}
		if _, sampled := rs.lat.Quantile(50, 1); rs.Retries() != 0 || sampled {
			t.Errorf("shard %d booted with stale counters: retries %d, latency samples %v",
				i, rs.Retries(), sampled)
		}
	}

	// One probe must meter traffic on exactly one replica link of the
	// selected shard, and the set's Usage must be the per-replica sum.
	if _, err := router.Count(context.Background(), dataset.World); err != nil {
		t.Fatal(err)
	}
	for i, ep := range eps {
		rs := ep.(*ReplicaSet)
		var sum int
		for _, rem := range rs.replicas {
			sum += rem.Usage().WireBytes
		}
		if got := rs.Usage().WireBytes; got != sum || got == 0 {
			t.Errorf("shard %d usage %d, per-replica sum %d (both must be positive and equal)",
				i, got, sum)
		}
	}

	// ServeLocal with one replica wires bare remotes — the bit-identical
	// pass-through layout the byte goldens compare against.
	plain, err := ServeLocal("R", objs, LocalConfig{
		Shards: 2, Workers: 1, Link: netsim.DefaultLink(), Price: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	for i, ep := range plain.Shards() {
		if _, ok := ep.(*client.Remote); !ok {
			t.Fatalf("unreplicated shard %d endpoint is %T, want *client.Remote", i, ep)
		}
	}
}

// TestReplicaHedgeDelayResolution covers the threshold policy table of
// hedgeDelay: fixed override, unconditional hedge, disabled, and the
// percentile path gated on hedgeMinSamples.
func TestReplicaHedgeDelayResolution(t *testing.T) {
	objs := dataset.GaussianClusters(50, 2, 300, dataset.World, 29)
	boot := func(cfg ReplicaConfig) *ReplicaSet {
		t.Helper()
		rems := make([]*client.Remote, 2)
		for j := range rems {
			tr := netsim.Serve(server.New("D", objs))
			rem, err := client.NewRemote("D", tr, netsim.DefaultLink(), 1)
			if err != nil {
				t.Fatal(err)
			}
			rems[j] = rem
		}
		rs, err := NewReplicaSet("D", rems, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		return rs
	}

	if d, ok := boot(ReplicaConfig{HedgeAfter: time.Second}).hedgeDelay(); !ok || d != time.Second {
		t.Errorf("fixed override: (%v, %v), want (1s, true)", d, ok)
	}
	if d, ok := boot(ReplicaConfig{HedgeAfter: -1}).hedgeDelay(); !ok || d != 0 {
		t.Errorf("always-hedge: (%v, %v), want (0, true)", d, ok)
	}
	if _, ok := boot(ReplicaConfig{}).hedgeDelay(); ok {
		t.Error("hedging disabled, yet hedgeDelay armed")
	}

	pctl := boot(ReplicaConfig{HedgePct: 90})
	for i := 1; i < hedgeMinSamples; i++ {
		pctl.lat.Add(time.Duration(i) * time.Millisecond)
	}
	if _, ok := pctl.hedgeDelay(); ok {
		t.Errorf("percentile threshold armed at %d observations, before hedgeMinSamples", hedgeMinSamples-1)
	}
	pctl.lat.Add(hedgeMinSamples * time.Millisecond)
	// p90 by nearest rank over 1..16 ms: rank ⌊16 × 0.9 + 0.5⌋ = 14.
	if d, ok := pctl.hedgeDelay(); !ok || d != 14*time.Millisecond {
		t.Errorf("percentile threshold (%v, %v), want (14ms, true)", d, ok)
	}
}

// TestServeLocalJoinLeavesNoGoroutines boots two 4-shard × 2-replica
// in-process fleets and runs a join: the dataset servers are answered on
// their callers' goroutines, so neither the boot nor the join leaves a
// goroutine behind while the fleets are still up.
func TestServeLocalJoinLeavesNoGoroutines(t *testing.T) {
	robjs := dataset.GaussianClusters(600, 4, 300, dataset.World, 31)
	sobjs := dataset.GaussianClusters(600, 4, 300, dataset.World, 32)
	base := runtime.NumGoroutine()
	cfg := LocalConfig{Shards: 4, Replicas: 2, Workers: 4, Link: netsim.DefaultLink(), Price: 1}
	r, err := ServeLocal("R", robjs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := ServeLocal("S", sobjs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	env := core.NewEnv(r, s, client.Device{BufferObjects: 200}, costmodel.Default(), dataset.World)
	res, err := core.UpJoin{}.Run(context.Background(), env, core.Spec{Kind: core.Distance, Eps: 75})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("the join found no pairs")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before the boot, %d after the join", base, n)
	}
}
