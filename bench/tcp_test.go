package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// tcpRemote serves objs from a loopback TCPServer and returns an
// unbatched remote to it over a pool of conns connections — one is the
// paper's device, one link per server.
func tcpRemote(b *testing.B, name string, objs []geom.Object, conns int) *client.Remote {
	b.Helper()
	srv, err := netsim.ListenAndServe("127.0.0.1:0", server.New(name, objs))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	rt, err := netsim.DialTCPPool(srv.Addr(), conns)
	if err != nil {
		b.Fatal(err)
	}
	r := mustRemote(b, name, rt, netsim.DefaultLink(), 1)
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkTCPProbeGroup is where a pipelined probe group's saving sits:
// n independent ε-RANGE probes on one loopback link, as n typed calls
// (n dependent round trips) and as one GoBatch group (the same n bare
// frames, a chunk's replies awaited together). n = 3 is a quadrant
// group, n = 25 an NLSJ probe group of the device-probe workload.
func BenchmarkTCPProbeGroup(b *testing.B) {
	objs := dataset.GaussianClusters(1500, 6, 300, dataset.World, 31)
	ctx := context.Background()
	for _, n := range []int{3, 25} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = objs[i*7].Center()
		}
		run := func(b *testing.B, group func(r *client.Remote) int) {
			r := tcpRemote(b, "S", objs, 1)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += group(r)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			probes := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/probes, "ns/probe")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/probes, "allocs/probe")
		}
		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) {
			run(b, func(r *client.Remote) (got int) {
				for _, p := range pts {
					objs, err := r.Range(ctx, p, 75)
					if err != nil {
						b.Fatal(err)
					}
					got += len(objs)
				}
				return got
			})
		})
		b.Run(fmt.Sprintf("grouped/n=%d", n), func(b *testing.B) {
			run(b, func(r *client.Remote) (got int) {
				reqs := make([][]byte, n)
				for i, p := range pts {
					reqs[i] = wire.AppendRange(bufpool.Get(), p, 75)
				}
				for _, c := range r.GoBatch(ctx, reqs) {
					objs, err := c.Objects()
					if err != nil {
						b.Fatal(err)
					}
					got += len(objs)
				}
				return got
			})
		})
	}
}

// BenchmarkSessionUpJoinTCP is BenchmarkSessionUpJoin on the paper's own
// topology: unbatched UpJoin over two loopback TCP links under a small
// device buffer, so the join is thousands of tiny probes and the
// transport's per-message cost is most of it. par1 is the paper's
// device, one connection per server; par4 is the concurrent engine at
// Parallelism 4 over a pool of four connections per server — the one
// place the parallel unbatched engine meets a transport that pipelines.
func BenchmarkSessionUpJoinTCP(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			r := tcpRemote(b, "R", dataset.GaussianClusters(1500, 6, 300, dataset.World, 31), par)
			s := tcpRemote(b, "S", dataset.GaussianClusters(1500, 6, 300, dataset.World, 32), par)
			env := core.NewEnv(r, s, client.Device{BufferObjects: 60}, costmodel.Default(), dataset.World)
			env.Parallelism = par
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.UpJoin{}.Run(context.Background(), env, core.Spec{Kind: core.Distance, Eps: 75})
				if err != nil {
					b.Fatal(err)
				}
				sink += len(res.Pairs)
			}
			b.StopTimer()
			u := r.Usage().Add(s.Usage())
			b.ReportMetric(float64(u.Messages)/float64(b.N), "frames/op")
		})
	}
}
