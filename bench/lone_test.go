package bench

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// The lone batched probe: what one COUNT submitted with GoBatch costs
// when nothing else is queued beside it — the common case of a parallel
// run's countRemote, and the number a linger timer would hide inside its
// wait.

// BenchmarkBatcherIdleProbe is one GoBatch-ed COUNT, submitted and waited
// for, on an idle in-process link.
func BenchmarkBatcherIdleProbe(b *testing.B) {
	objs := dataset.Uniform(2000, dataset.World, 23)
	r, err := client.NewRemote("B", netsim.Serve(server.New("B", objs)), netsim.DefaultLink(), 1,
		client.WithBatch(client.BatchConfig{MaxBatch: 16}))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ctx, w := context.Background(), geom.R(4000, 4000, 4200, 4200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := r.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count()
		if err != nil {
			b.Fatal(err)
		}
		sink = n
	}
}

// leafGoroutines sums, over the round trips that reach a leaf server,
// how many goroutines were alive at that moment.
type leafGoroutines struct {
	netsim.RoundTripper
	sum, trips *atomic.Int64
}

func (l leafGoroutines) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	l.sum.Add(int64(runtime.NumGoroutine()))
	l.trips.Add(1)
	return l.RoundTripper.RoundTrip(ctx, req)
}

// BenchmarkTreeLoneCount is the same lone COUNT through the fleet-tree
// shape: 16 shards × 2 replicas under a fanout-4 tree, every link
// batched, ε-scale windows at data points (most reach one leaf).
// goroutines/leafRT reports how many goroutines beyond the idle fleet's
// are alive when a probe reaches a leaf — the hops it took off its
// caller's stack: 0 when the whole tree is crossed on the stack of the
// goroutine that waits for the reply.
func BenchmarkTreeLoneCount(b *testing.B) {
	objs := dataset.GaussianClusters(8000, 8, 250, dataset.World, 22)
	var sum, trips atomic.Int64
	router, err := shard.ServeLocal("D", objs, shard.LocalConfig{
		Shards: 16, Replicas: 2, TreeFanout: 4, Workers: 2,
		Link: netsim.DefaultLink(), Price: 1,
		ClientOpts: []client.Option{client.WithBatch(client.BatchConfig{MaxBatch: 16})},
		WrapTransport: func(_ string, rt netsim.RoundTripper) netsim.RoundTripper {
			return leafGoroutines{rt, &sum, &trips}
		},
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
	sum.Store(0)
	trips.Store(0)
	idle := int64(runtime.NumGoroutine())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := objs[rng.Intn(len(objs))].MBR.Center()
		w := geom.R(c.X-eps, c.Y-eps, c.X+eps, c.Y+eps)
		n, err := router.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count()
		if err != nil {
			b.Fatal(err)
		}
		sink = n
	}
	b.StopTimer()
	b.ReportMetric(float64(trips.Load())/float64(b.N), "leafRT/op")
	b.ReportMetric(float64(sum.Load())/float64(trips.Load())-float64(idle), "goroutines/leafRT")
}
