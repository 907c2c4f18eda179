package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/server"
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

// The benchmarks below regenerate the paper's figures (DESIGN.md §6).
// Each iteration executes the full experiment once with a reduced run
// count (benchmarks measure harness throughput; cmd/figures produces the
// paper-grade averaged tables) and reports the headline metric —
// transferred bytes — via b.ReportMetric, so `go test -bench` output
// doubles as a compact reproduction record.

func benchFigure(b *testing.B, id string, fn func(harness.Config) (*harness.Table, error)) {
	b.Helper()
	cfg := harness.Defaults()
	cfg.Runs = 2
	b.ResetTimer()
	var last *harness.Table
	for i := 0; i < b.N; i++ {
		t, err := fn(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = t
	}
	b.StopTimer()
	if last != nil {
		var total, n float64
		for _, c := range last.Cells {
			total += c.Bytes
			n++
		}
		b.ReportMetric(total/n, "meanBytes")
	}
}

// BenchmarkFig6aAlphaUpJoin regenerates Figure 6(a): the α sweep for
// UpJoin across cluster counts.
func BenchmarkFig6aAlphaUpJoin(b *testing.B) { benchFigure(b, "6a", harness.Fig6a) }

// BenchmarkFig6bRhoSrJoin regenerates Figure 6(b): the ρ sweep for
// SrJoin across cluster counts.
func BenchmarkFig6bRhoSrJoin(b *testing.B) { benchFigure(b, "6b", harness.Fig6b) }

// BenchmarkFig7aBuffer100 regenerates Figure 7(a): the three algorithms
// with a 100-object device buffer.
func BenchmarkFig7aBuffer100(b *testing.B) { benchFigure(b, "7a", harness.Fig7a) }

// BenchmarkFig7bBuffer800 regenerates Figure 7(b): the three algorithms
// with an 800-object device buffer.
func BenchmarkFig7bBuffer800(b *testing.B) { benchFigure(b, "7b", harness.Fig7b) }

// BenchmarkFig8aRealData regenerates Figure 8(a): bucket versions of the
// three algorithms over railway ⋈ synthetic.
func BenchmarkFig8aRealData(b *testing.B) { benchFigure(b, "8a", harness.Fig8a) }

// BenchmarkFig8bSemiJoin regenerates Figure 8(b): UpJoin and SrJoin
// against the index-publishing SemiJoin comparator.
func BenchmarkFig8bSemiJoin(b *testing.B) { benchFigure(b, "8b", harness.Fig8b) }

// --- §3.2 pathology ablations (DESIGN.md X1-X3) --------------------------

// fig2aData builds the Figure 2(a) layout: R clustered in two opposite
// corners, S in the two other corners — NLSJ looks attractive to
// MobiJoin, yet one more split prunes everything.
func fig2aData() (r, s []geom.Object) {
	id := uint32(0)
	put := func(dst []geom.Object, cx, cy float64, n int) []geom.Object {
		for i := 0; i < n; i++ {
			dst = append(dst, geom.PointObject(id, geom.Pt(
				cx+float64(i%20)*10, cy+float64(i/20)*10)))
			id++
		}
		return dst
	}
	r = put(r, 1000, 1000, 400)
	r = put(r, 8000, 8000, 400)
	s = put(s, 1000, 8000, 40)
	s = put(s, 8000, 1000, 40)
	return r, s
}

// fig2bData builds the Figure 2(b) layout: four 500-point clusters on
// the diagonal in R and the anti-diagonal in S inside distinct
// quadrants, so HBSJ on any window covering two clusters transfers twice
// what pruning achieves.
func fig2bData() (r, s []geom.Object) {
	id := uint32(0)
	cluster := func(dst []geom.Object, cx, cy float64) []geom.Object {
		for i := 0; i < 500; i++ {
			dst = append(dst, geom.PointObject(id, geom.Pt(
				cx+float64(i%25)*8, cy+float64(i/25)*8)))
			id++
		}
		return dst
	}
	r = cluster(r, 1200, 1200)
	r = cluster(r, 6200, 6200)
	s = cluster(s, 1200, 6200)
	s = cluster(s, 6200, 1200)
	return r, s
}

func runPathology(b *testing.B, r, s []geom.Object, buffer int, alg Algorithm) int {
	b.Helper()
	sess, err := NewSession(SessionConfig{R: r, S: s, Buffer: buffer, Window: World})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Run(alg, Spec{Kind: Distance, Eps: 75})
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats.TotalBytes()
}

// BenchmarkX1Fig2aPathology measures the Figure 2(a) layout: MobiJoin's
// uniformity assumption must make it spend visibly more than UpJoin,
// which prunes the space after one more split.
func BenchmarkX1Fig2aPathology(b *testing.B) {
	r, s := fig2aData()
	var mobi, up int
	for i := 0; i < b.N; i++ {
		mobi = runPathology(b, r, s, 800, MobiJoin{})
		up = runPathology(b, r, s, 800, UpJoin{})
	}
	b.ReportMetric(float64(mobi), "mobiBytes")
	b.ReportMetric(float64(up), "upBytes")
}

// BenchmarkX2Fig2bBufferParadox measures the Figure 2(b) layout at two
// buffer sizes: under MobiJoin, more device memory must *increase* the
// transfer (the buffer paradox of §3.2), while UpJoin stays flat.
func BenchmarkX2Fig2bBufferParadox(b *testing.B) {
	r, s := fig2bData()
	var mobiSmall, mobiBig, upBig int
	for i := 0; i < b.N; i++ {
		mobiSmall = runPathology(b, r, s, 999, MobiJoin{})
		mobiBig = runPathology(b, r, s, 2000, MobiJoin{})
		upBig = runPathology(b, r, s, 2000, UpJoin{})
	}
	b.ReportMetric(float64(mobiSmall), "mobiBuf999Bytes")
	b.ReportMetric(float64(mobiBig), "mobiBuf2000Bytes")
	b.ReportMetric(float64(upBig), "upBuf2000Bytes")
}

// BenchmarkX3Fig4SimilarSkew measures the Figure 4 layout (matched
// 3-cluster skew in both datasets), where the paper's UpJoin keeps
// repartitioning windows it labels skewed even though the distributions
// match, while SrJoin's bitmap comparison applies physical operators
// immediately. (Our UpJoin's lookahead rule — DESIGN.md §9.2 — already
// neutralizes most of this pathology, so the two come out close.)
func BenchmarkX3Fig4SimilarSkew(b *testing.B) {
	id := uint32(0)
	cluster := func(dst []geom.Object, cx, cy float64, n int, seedStep float64) []geom.Object {
		for i := 0; i < n; i++ {
			dst = append(dst, geom.PointObject(id, geom.Pt(
				cx+float64(i%20)*seedStep, cy+float64(i/20)*seedStep)))
			id++
		}
		return dst
	}
	var r, s []geom.Object
	for _, c := range [][2]float64{{2000, 2000}, {7000, 2000}, {2000, 7000}} {
		r = cluster(r, c[0], c[1], 300, 9)
		s = cluster(s, c[0]+40, c[1]+40, 300, 9)
	}
	var up, sr int
	for i := 0; i < b.N; i++ {
		up = runPathology(b, r, s, 2000, UpJoin{})
		sr = runPathology(b, r, s, 2000, SrJoin{})
	}
	b.ReportMetric(float64(up), "upBytes")
	b.ReportMetric(float64(sr), "srBytes")
}

// BenchmarkAblationBucketVsSingle quantifies §3.1's bucket submission
// end to end: enabling buckets both amortizes per-probe headers (Eq. 6)
// and changes the optimizer's NLSJ estimates, so the net effect is
// plan-dependent — occasionally negative, when cheaper-looking NLSJ
// displaces plans that would have pruned more.
func BenchmarkAblationBucketVsSingle(b *testing.B) {
	robjs := dataset.Railway(dataset.RailwayConfig{
		Segments: 8000, Stations: 60, Degree: 2, Bounds: dataset.World, Jitter: 20}, 3)
	sobjs := GaussianClusters(500, 4, 250, World, 4)
	run := func(bucket bool) int {
		sess, err := NewSession(SessionConfig{R: robjs, S: sobjs, Buffer: 800, Window: World, Bucket: bucket})
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Run(UpJoin{}, Spec{Kind: Distance, Eps: 75})
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.TotalBytes()
	}
	var single, bucket int
	for i := 0; i < b.N; i++ {
		single = run(false)
		bucket = run(true)
	}
	b.ReportMetric(float64(single), "singleBytes")
	b.ReportMetric(float64(bucket), "bucketBytes")
}

// BenchmarkAblationMTU contrasts the WiFi link (MTU 1500) with the
// paper's dial-up alternative (MTU 576): the smaller MTU multiplies the
// per-packet header overhead of every large transfer (Eq. 1), raising
// the value of pruning.
func BenchmarkAblationMTU(b *testing.B) {
	robjs := GaussianClusters(1000, 4, 250, World, 17)
	sobjs := GaussianClusters(1000, 4, 250, World, 18)
	run := func(link netsim.LinkConfig) int {
		srvR := server.New("R", robjs)
		srvS := server.New("S", sobjs)
		trR := netsim.Serve(srvR)
		trS := netsim.Serve(srvS)
		defer trR.Close()
		defer trS.Close()
		r := mustRemote(b, "R", trR, link, 1)
		s := mustRemote(b, "S", trS, link, 1)
		model := costmodel.Default()
		model.Link = link
		env := core.NewEnv(r, s, client.Device{BufferObjects: 800}, model, World)
		// Naive moves whole datasets in large frames, where the MTU
		// difference is visible; adaptive algorithms mostly move frames
		// below both MTUs on this workload.
		res, err := core.Naive{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 75})
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.TotalBytes()
	}
	var wifi, dialup int
	for i := 0; i < b.N; i++ {
		wifi = run(netsim.DefaultLink())
		dialup = run(netsim.DialupLink())
	}
	b.ReportMetric(float64(wifi), "wifiBytes")
	b.ReportMetric(float64(dialup), "dialupBytes")
}

// --- concurrent execution engine ------------------------------------------

// benchParallel measures one algorithm at the given parallelism on the
// paper's clustered workload over a link with realistic wireless latency
// (RTT 300µs): the dominant cost of a join is waiting on round trips, so
// the engine's dual-server overlap and sibling fan-out translate directly
// into wall-clock time. Byte counts are reported as a metric and are
// identical across parallelism levels (the equivalence tests enforce it);
// only the time/op column should move.
func benchParallel(b *testing.B, alg core.Algorithm, spec core.Spec, parallelism int) {
	b.Helper()
	robjs := GaussianClusters(1000, 8, 250, World, 55)
	sobjs := GaussianClusters(1000, 8, 250, World, 56)
	// Servers (R-tree builds included) are constructed once outside the
	// timed loop: the benchmark isolates execution time, and only the
	// transports are per-iteration state.
	srvR := server.New("R", robjs)
	srvS := server.New("S", sobjs)
	link := netsim.DefaultLink()
	link.RTT = 300 * time.Microsecond
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trR := netsim.Serve(srvR)
		trS := netsim.Serve(srvS)
		r := mustRemote(b, "R", trR, link, 1)
		s := mustRemote(b, "S", trS, link, 1)
		env := core.NewEnv(r, s, client.Device{BufferObjects: 400}, costmodel.Default(), World)
		env.Parallelism = parallelism
		res, err := alg.Run(context.Background(), env, spec)
		r.Close()
		s.Close()
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Stats.TotalBytes()
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes), "bytes")
}

// BenchmarkParallelUpJoin sweeps the Parallelism knob for UpJoin — the
// paper's headline algorithm — on the clustered workload. Expect
// time/op to drop substantially from p=1 to p=4 while the bytes metric
// stays constant.
func BenchmarkParallelUpJoin(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchParallel(b, core.UpJoin{}, core.Spec{Kind: core.Distance, Eps: 75}, p)
		})
	}
}

// BenchmarkParallelGrid sweeps the knob for the Grid baseline, whose 16
// independent cells are an ideal fan-out shape.
func BenchmarkParallelGrid(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchParallel(b, core.Grid{}, core.Spec{Kind: core.Distance, Eps: 75}, p)
		})
	}
}

// BenchmarkParallelNaive sweeps the knob for Naive, where the win is the
// downloads of sibling partitions overlapping each other and the
// device-side joins (the prefetch pipeline).
func BenchmarkParallelNaive(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchParallel(b, core.Naive{}, core.Spec{Kind: core.Distance, Eps: 75}, p)
		})
	}
}

// BenchmarkMultiwayChain measures the future-work three-dataset chain
// (examples/multiway) end to end.
func BenchmarkMultiwayChain(b *testing.B) {
	sets := [][]geom.Object{
		GaussianClusters(300, 4, 300, World, 11),
		GaussianClusters(500, 4, 300, World, 11),
		GaussianClusters(120, 4, 300, World, 11),
	}
	var total int
	for i := 0; i < b.N; i++ {
		remotes := make([]core.Probe, len(sets))
		for j, objs := range sets {
			tr := netsim.Serve(server.New("D", objs))
			remotes[j] = mustRemote(b, "D", tr, netsim.DefaultLink(), 1)
		}
		res, err := core.Multiway{}.RunChain(context.Background(), remotes, client.Device{BufferObjects: 800},
			costmodel.Default(), World, []float64{200, 400})
		for _, r := range remotes {
			r.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalBytes()
	}
	b.ReportMetric(float64(total), "chainBytes")
}

// BenchmarkAblationGridK sweeps the Grid baseline's grid dimension,
// the k-vs-overhead trade-off discussed at the end of §3.2.
func BenchmarkAblationGridK(b *testing.B) {
	robjs := GaussianClusters(1000, 4, 250, World, 7)
	sobjs := GaussianClusters(1000, 4, 250, World, 8)
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				sess, err := NewSession(SessionConfig{R: robjs, S: sobjs, Buffer: 800, Window: World})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sess.Run(core.Grid{K: k}, Spec{Kind: Distance, Eps: 75})
				sess.Close()
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Stats.TotalBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}
