// Package bench holds the repository's micro and macro benchmarks for the
// request→index→reply hot path: the wire codec, the server's query
// handlers, the device-side grid join, and a full UpJoin session. make
// bench records their medians as BENCH_<date>.json, and make
// bench-compare gates them: the working tree's binary against the parent
// commit's, in ten alternated pairs on one machine (scripts/abgate.sh,
// docs/PERFORMANCE.md). Run them with
//
//	go test -run '^$' -bench . -benchmem ./bench
//
// and compare two runs with benchstat.
package bench

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/memjoin"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// mustRemote wraps client.NewRemote for benchmarks over known-valid links.
func mustRemote(tb testing.TB, name string, rt netsim.RoundTripper, link netsim.LinkConfig, price float64) *client.Remote {
	tb.Helper()
	r, err := client.NewRemote(name, rt, link, price)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// sink defeats dead-code elimination across benchmark iterations.
var sink int

// BenchmarkWireRoundTrip measures one request/response codec cycle as the
// transports execute it: encode a WINDOW request, decode it server-side,
// encode a 64-object OBJECTS reply, decode it client-side. Since the
// zero-allocation refactor, that path runs through the pooled append
// codec and scratch-reusing decoders, exactly as Remote and the serving
// loops drive it.
func BenchmarkWireRoundTrip(b *testing.B) {
	w := geom.R(1000, 1000, 5000, 5000)
	objs := dataset.GaussianClusters(64, 2, 300, dataset.World, 9)
	var scratch []geom.Object
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.AppendWindow(bufpool.Get(), w)
		dw, err := wire.DecodeWindowLike(req, wire.MsgWindow)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(req)
		resp := wire.AppendObjects(bufpool.Get(), objs)
		scratch, err = wire.DecodeObjectsAppend(resp, scratch[:0])
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(resp)
		sink += len(scratch) + int(dw.MinX)
	}
}

// BenchmarkServerCount measures the server's aggregate-query handlers —
// COUNT windows and RANGE-COUNT probes — end to end through Handle, the
// entry point the transports drive. Aggregates are the paper's pruning
// workhorse: a dense iceberg run issues thousands of them per join.
func BenchmarkServerCount(b *testing.B) {
	objs := dataset.GaussianClusters(20000, 8, 400, dataset.World, 11)
	srv := server.New("R", objs)
	bounds := srv.Tree().Bounds()
	var reqs [][]byte
	for _, q := range bounds.Grid(4) {
		reqs = append(reqs, wire.AppendCount(nil, q))
		reqs = append(reqs, wire.AppendRangeCount(nil, q.Center(), 300))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The serving-loop body both transports run for an AppendHandler:
		// reply into a pooled buffer, recycle once delivered.
		resp := srv.HandleAppend(reqs[i%len(reqs)], bufpool.Get())
		sink += len(resp)
		bufpool.Put(resp)
	}
}

// BenchmarkServerWindow measures the reply path of the object-returning
// handlers over the relations of the end-to-end benchmark (12 000
// clustered points): the whole-relation WINDOW device-bulk downloads,
// the four quadrant WINDOWs of a partitioned download, and ε = 75 RANGE
// probes around the other relation's points as device-probe issues them.
// Replies are spans of the server's pre-encoded packed array.
func BenchmarkServerWindow(b *testing.B) {
	srv := server.New("S", ledgerClusters(12000, []geom.Point{
		{X: 1568, Y: 1851}, {X: 7962, Y: 1049}, {X: 3999, Y: 4653}, {X: 2900, Y: 6500},
		{X: 8800, Y: 5600}, {X: 6500, Y: 6900}, {X: 3600, Y: 900}, {X: 400, Y: 4700},
	}, 2))
	bounds := srv.Tree().Bounds()
	quads := bounds.Quadrants()
	var probes [][]byte
	for _, o := range ledgerClusters(256, []geom.Point{
		{X: 1800, Y: 2100}, {X: 7600, Y: 1500}, {X: 4700, Y: 5200}, {X: 1500, Y: 7900},
		{X: 8300, Y: 8200}, {X: 6100, Y: 3400}, {X: 3300, Y: 3900}, {X: 5600, Y: 8800},
	}, 1) {
		probes = append(probes, wire.AppendRange(nil, o.Center(), 75))
	}
	for _, bc := range []struct {
		name string
		reqs [][]byte
	}{
		{"whole", [][]byte{wire.AppendWindow(nil, bounds)}},
		{"quadrants", [][]byte{
			wire.AppendWindow(nil, quads[0]), wire.AppendWindow(nil, quads[1]),
			wire.AppendWindow(nil, quads[2]), wire.AppendWindow(nil, quads[3]),
		}},
		{"range75", probes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp := srv.HandleAppend(bc.reqs[i%len(bc.reqs)], bufpool.Get())
				sink += len(resp)
				bufpool.Put(resp)
			}
		})
	}
}

// BenchmarkGridJoin measures the device-side spatial-hash join that HBSJ
// runs on every downloaded partition pair.
func BenchmarkGridJoin(b *testing.B) {
	r := dataset.GaussianClusters(2000, 4, 300, dataset.World, 21)
	s := dataset.GaussianClusters(2000, 4, 300, dataset.World, 22)
	pred := memjoin.WithinDist(75)
	var dst []geom.Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = memjoin.GridJoin(r, s, pred, memjoin.Options{}, dst[:0])
		sink += len(dst)
	}
}

// ledgerClusters reproduces the relations of the end-to-end benchmark
// (benchmark/workload.go, seed 1): n points round-robin around eight
// fixed centres, N(0, 250²) spread, coordinates clamped to the world and
// snapped to float32 as the wire carries them. The nested benchmark
// module cannot be imported from here, so the layout is restated.
func ledgerClusters(n int, centres []geom.Point, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	w := dataset.World
	coord := func(c, lo, hi float64) float64 {
		return float64(float32(min(max(c+rng.NormFloat64()*250, lo), hi)))
	}
	objs := make([]geom.Object, n)
	for i := range objs {
		c := centres[i%len(centres)]
		objs[i] = geom.PointObject(uint32(i), geom.Pt(coord(c.X, w.MinX, w.MaxX), coord(c.Y, w.MinY, w.MaxY)))
	}
	return objs
}

// clusteredJoin is the device-side join of the device-bulk workload in
// isolation: 12000 × 12000 clustered points, ε = 75, some 47 000 result
// pairs.
func clusteredJoin() (r, s []geom.Object, pred memjoin.Pred) {
	r = ledgerClusters(12000, []geom.Point{
		{X: 1800, Y: 2100}, {X: 7600, Y: 1500}, {X: 4700, Y: 5200}, {X: 1500, Y: 7900},
		{X: 8300, Y: 8200}, {X: 6100, Y: 3400}, {X: 3300, Y: 3900}, {X: 5600, Y: 8800},
	}, 1)
	s = ledgerClusters(12000, []geom.Point{
		{X: 1568, Y: 1851}, {X: 7962, Y: 1049}, {X: 3999, Y: 4653}, {X: 2900, Y: 6500},
		{X: 8800, Y: 5600}, {X: 6500, Y: 6900}, {X: 3600, Y: 900}, {X: 400, Y: 4700},
	}, 2)
	return r, s, memjoin.WithinDist(75)
}

// BenchmarkGridJoinClustered lists the pairs of clusteredJoin.
func BenchmarkGridJoinClustered(b *testing.B) {
	r, s, pred := clusteredJoin()
	var dst []geom.Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = memjoin.GridJoin(r, s, pred, memjoin.Options{}, dst[:0])
		sink += len(dst)
	}
	b.ReportMetric(float64(len(dst)), "pairs/op")
}

// BenchmarkGridCountClustered counts the pairs of clusteredJoin, as a
// count-only join does (core.Spec.CountOnly).
func BenchmarkGridCountClustered(b *testing.B) {
	r, s, pred := clusteredJoin()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = memjoin.GridCount(r, s, pred, memjoin.Options{})
		sink += n
	}
	b.ReportMetric(float64(n), "pairs/op")
}

// BenchmarkDedupPairs measures sorting and compacting a pair list — the
// radix sort result assembly runs, plus the compaction the server's
// upload join adds — over 50 000 pairs over 12 000 ids per side, a
// quarter of them duplicates, in a shuffled order.
func BenchmarkDedupPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	src := make([]geom.Pair, n)
	for i := range src {
		if i >= n*3/4 {
			src[i] = src[rng.Intn(n*3/4)]
			continue
		}
		src[i] = geom.Pair{RID: uint32(rng.Intn(12000)), SID: uint32(rng.Intn(12000))}
	}
	rng.Shuffle(n, func(i, j int) { src[i], src[j] = src[j], src[i] })
	buf := make([]geom.Pair, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		sink += len(memjoin.DedupPairs(buf))
	}
}

// BenchmarkSessionUpJoin measures a full UpJoin execution — the paper's
// headline algorithm — against in-process servers with no simulated
// latency, so the measured time is pure compute: tree traversal, codec,
// transport plumbing, and device-side joins.
func BenchmarkSessionUpJoin(b *testing.B) {
	robjs := dataset.GaussianClusters(1500, 6, 300, dataset.World, 31)
	sobjs := dataset.GaussianClusters(1500, 6, 300, dataset.World, 32)
	trR := netsim.Serve(server.New("R", robjs))
	trS := netsim.Serve(server.New("S", sobjs))
	defer trR.Close()
	defer trS.Close()
	r := mustRemote(b, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(b, "S", trS, netsim.DefaultLink(), 1)
	env := core.NewEnv(r, s, client.Device{BufferObjects: 500}, costmodel.Default(), dataset.World)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.UpJoin{}.Run(context.Background(), env, core.Spec{Kind: core.Distance, Eps: 75})
		if err != nil {
			b.Fatal(err)
		}
		sink += len(res.Pairs)
	}
}

// benchSessionRTT runs one full join per iteration against in-process
// servers behind a simulated 300µs-RTT link — the regime the batching
// layer targets: with Parallelism 1 every round trip — a lone frame, an
// envelope, or a chunk of an unbatched probe group, which pays the RTT
// once — is sequential, so wall-clock time tracks round trips; with
// Parallelism > 1 it tracks the dependent rounds, which shrink as more
// partitions are live to share an envelope. The "frames" metric reports
// the metered message total per op so the reduction is visible next to
// the latency.
func benchSessionRTT(b *testing.B, alg core.Algorithm, batch, parallelism int) {
	robjs := dataset.GaussianClusters(1500, 6, 300, dataset.World, 31)
	sobjs := dataset.GaussianClusters(1500, 6, 300, dataset.World, 32)
	link := netsim.DefaultLink()
	link.RTT = 300 * time.Microsecond
	trR := netsim.Serve(server.New("R", robjs))
	trS := netsim.Serve(server.New("S", sobjs))
	defer trR.Close()
	defer trS.Close()
	var copts []client.Option
	if batch > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: batch}))
	}
	r, err := client.NewRemote("R", trR, link, 1, copts...)
	if err != nil {
		b.Fatal(err)
	}
	s, err := client.NewRemote("S", trS, link, 1, copts...)
	if err != nil {
		b.Fatal(err)
	}
	model := costmodel.Default()
	model.Link = link
	env := core.NewEnv(r, s, client.Device{BufferObjects: 500}, model, dataset.World)
	env.BatchSize, env.Parallelism = batch, parallelism
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := alg.Run(context.Background(), env, core.Spec{Kind: core.Distance, Eps: 75})
		if err != nil {
			b.Fatal(err)
		}
		sink += len(res.Pairs)
	}
	b.StopTimer()
	u := r.Usage().Add(s.Usage())
	b.ReportMetric(float64(u.Messages)/float64(b.N), "frames/op")
}

// BenchmarkSessionUpJoinRTT pins the batching win on the paper's
// headline algorithm over a latency-bearing link, sequentially and — the
// par4 legs — with the concurrent engine: unbatched, its probe groups
// overlap Parallelism ways; batched, its pool of live partitions is
// widened by the link's latency.
func BenchmarkSessionUpJoinRTT(b *testing.B) {
	b.Run("batch1", func(b *testing.B) { benchSessionRTT(b, core.UpJoin{}, 1, 1) })
	b.Run("batch1/par4", func(b *testing.B) { benchSessionRTT(b, core.UpJoin{}, 1, 4) })
	b.Run("batch16", func(b *testing.B) { benchSessionRTT(b, core.UpJoin{}, 16, 1) })
	b.Run("batch16/par4", func(b *testing.B) { benchSessionRTT(b, core.UpJoin{}, 16, 4) })
}

// BenchmarkSessionGridRTT does the same for the grid baseline, whose
// COUNT phases batch almost perfectly.
func BenchmarkSessionGridRTT(b *testing.B) {
	b.Run("batch1", func(b *testing.B) { benchSessionRTT(b, core.Grid{}, 1, 1) })
	b.Run("batch16", func(b *testing.B) { benchSessionRTT(b, core.Grid{}, 16, 1) })
}

// BenchmarkWireBatchCodec measures the batch envelope codec itself:
// wrap 16 COUNT requests, decode the envelope, and demultiplex —
// the extra work a batched round trip performs over a bare one.
func BenchmarkWireBatchCodec(b *testing.B) {
	w := geom.R(1000, 1000, 5000, 5000)
	subs := make([][]byte, 16)
	for i := range subs {
		subs[i] = wire.AppendCount(nil, w)
	}
	var views [][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := wire.AppendBatch(bufpool.Get(), subs)
		var err error
		views, err = wire.DecodeBatchAppend(frame, wire.MsgBatch, views[:0])
		if err != nil {
			b.Fatal(err)
		}
		sink += len(views)
		bufpool.Put(frame)
	}
}
