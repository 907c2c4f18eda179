package bench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/wire"
)

// BenchmarkRouterMerge measures the router's list merge on the gather
// hot path: 16 OBJECTS replies of 256 objects each (IDs shuffled across
// shards, as Assign leaves them) concatenated into one reply frame in a
// reused destination — the bytes a routed WINDOW answer is built from.
// The zero-allocation property is pinned by TestListMergesZeroAlloc.
func BenchmarkRouterMerge(b *testing.B) {
	const parts, per = 16, 256
	rng := rand.New(rand.NewSource(3))
	ids := rng.Perm(parts * per)
	replies := make([][]byte, parts)
	for i := range replies {
		objs := make([]geom.Object, per)
		for j := range objs {
			id := uint32(ids[i*per+j] + 1)
			objs[j] = geom.Object{ID: id, MBR: geom.R(float64(id), 0, float64(id)+1, 1)}
		}
		replies[i] = wire.AppendObjects(nil, objs)
	}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = wire.AppendList(dst[:0], wire.MsgObjects, replies); err != nil {
			b.Fatal(err)
		}
		sink = len(dst)
	}
}

// BenchmarkTreeScatter measures the aggregate-query scatter–gather
// against fleet size under the hierarchical aggregation tree (fanout 8):
// one COUNT plus one RANGE-COUNT over the whole space per iteration, the
// workload whose flat fan-in grows linearly with the shard count. The
// rootB/op metric reports wire bytes on the root links per iteration —
// the headline table in README.md: near-constant under the tree while
// the flat scatter's root bytes grow with N.
func BenchmarkTreeScatter(b *testing.B) {
	for _, shards := range []int{8, 64, 256} {
		for _, mode := range []struct {
			name   string
			fanout int
		}{{"tree", 8}, {"flat", 0}} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mode.name), func(b *testing.B) {
				objs := dataset.Uniform(4096, dataset.World, 21)
				router, err := shard.ServeLocal("D", objs, shard.LocalConfig{
					Shards: shards, TreeFanout: mode.fanout, Workers: 8,
					Link: netsim.DefaultLink(), Price: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer router.Close()
				ctx := context.Background()
				if _, err := router.Info(ctx); err != nil {
					b.Fatal(err)
				}
				root0 := router.LevelUsages()[0].WireBytes
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := router.Count(ctx, dataset.World)
					if err != nil {
						b.Fatal(err)
					}
					m, err := router.RangeCount(ctx, geom.Pt(5000, 5000), 8000)
					if err != nil {
						b.Fatal(err)
					}
					sink = n + m
				}
				b.StopTimer()
				rootBytes := router.LevelUsages()[0].WireBytes - root0
				b.ReportMetric(float64(rootBytes)/float64(b.N), "rootB/op")
			})
		}
	}
}

// BenchmarkTreeScatterClustered is BenchmarkTreeScatter's opposite
// regime, the one the paper's algorithms live in: clustered data and
// ε-scale requests — one small-window COUNT plus one RANGE probe at a
// data point per iteration, over 16 shards × 2 replicas under a fanout-4
// tree. leafRT/op reports the leaf round trips those two requests cost:
// 2 when each reaches exactly one leaf, 32 when shard bounds prune
// nothing; rootB/op is the wire bytes on the root's own links, which
// fall too when the root can tell its subtrees apart.
func BenchmarkTreeScatterClustered(b *testing.B) {
	objs := dataset.GaussianClusters(8000, 8, 250, dataset.World, 22)
	router, err := shard.ServeLocal("D", objs, shard.LocalConfig{
		Shards: 16, Replicas: 2, TreeFanout: 4, Workers: 2,
		Link: netsim.DefaultLink(), Price: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	if _, err := router.Info(ctx); err != nil {
		b.Fatal(err)
	}
	const eps = 75.0
	rng := rand.New(rand.NewSource(22))
	levels := router.LevelUsages()
	root0, leaf0 := levels[0].WireBytes, levels[len(levels)-1].Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := objs[rng.Intn(len(objs))].MBR.Center()
		n, err := router.Count(ctx, geom.R(c.X-eps, c.Y-eps, c.X+eps, c.Y+eps))
		if err != nil {
			b.Fatal(err)
		}
		near, err := router.Range(ctx, objs[rng.Intn(len(objs))].MBR.Center(), eps)
		if err != nil {
			b.Fatal(err)
		}
		sink = n + len(near)
	}
	b.StopTimer()
	levels = router.LevelUsages()
	b.ReportMetric(float64(levels[0].WireBytes-root0)/float64(b.N), "rootB/op")
	b.ReportMetric(float64(levels[len(levels)-1].Queries-leaf0)/float64(b.N), "leafRT/op")
}

// BenchmarkAssign measures partitioning one benchmark-sized relation
// (8000 clustered objects) into 16 shards — paid once per relation at
// fleet set-up and by every spatialserve -shard i/N process at boot.
func BenchmarkAssign(b *testing.B) {
	objs := dataset.GaussianClusters(8000, 8, 250, dataset.World, 23)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(shard.Assign(objs, 16))
	}
}
