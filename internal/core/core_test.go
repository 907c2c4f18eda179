package core

import (
	"context"
	"testing"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
)

// mustRemote wraps client.NewRemote for links known valid at test time.
func mustRemote(t testing.TB, name string, rt netsim.RoundTripper, link netsim.LinkConfig, price float64, opts ...client.Option) *client.Remote {
	t.Helper()
	r, err := client.NewRemote(name, rt, link, price, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testEnv spins up two in-process servers over the given objects and
// returns an environment with the requested buffer size.
func testEnv(t *testing.T, robjs, sobjs []geom.Object, buffer int, opts ...server.Option) *Env {
	t.Helper()
	srvR := server.New("R", robjs, opts...)
	srvS := server.New("S", sobjs, opts...)
	trR := netsim.Serve(srvR)
	trS := netsim.Serve(srvS)
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	t.Cleanup(func() { r.Close(); s.Close() })
	dev := client.Device{BufferObjects: buffer}
	return NewEnv(r, s, dev, costmodel.Default(), geom.Rect{})
}

func pairSetsEqual(a, b []geom.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allAlgorithms() []Algorithm {
	return []Algorithm{Naive{}, Grid{}, MobiJoin{}, UpJoin{}, SrJoin{}}
}

func TestAllAlgorithmsMatchOracleDistanceJoin(t *testing.T) {
	totalPairs := 0
	for _, k := range []int{1, 4, 128} {
		for _, buffer := range []int{100, 800, 5000} {
			robjs := dataset.GaussianClusters(300, k, 300, dataset.World, int64(k)*10+1)
			sobjs := dataset.GaussianClusters(300, k, 300, dataset.World, int64(k)*10+2)
			spec := Spec{Kind: Distance, Eps: 120}
			want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
			totalPairs += len(want.Pairs)
			for _, alg := range allAlgorithms() {
				env := testEnv(t, robjs, sobjs, buffer)
				got, err := alg.Run(context.Background(), env, spec)
				if err != nil {
					t.Fatalf("k=%d buffer=%d %s: %v", k, buffer, alg.Name(), err)
				}
				if !pairSetsEqual(got.Pairs, want.Pairs) {
					t.Fatalf("k=%d buffer=%d %s: %d pairs, oracle %d",
						k, buffer, alg.Name(), len(got.Pairs), len(want.Pairs))
				}
				if got.Stats.TotalBytes() == 0 {
					t.Fatalf("%s: no traffic metered", alg.Name())
				}
			}
		}
	}
	// With independent cluster centers some k values legitimately join
	// empty (that is the pruning scenario); the suite as a whole must
	// still exercise non-empty results.
	if totalPairs == 0 {
		t.Fatal("vacuous suite: no oracle pairs in any configuration")
	}
}

func TestAllAlgorithmsMatchOracleIntersectionJoin(t *testing.T) {
	robjs := dataset.ClusteredRects(300, 4, 400, 150, dataset.World, 31)
	sobjs := dataset.ClusteredRects(300, 4, 400, 150, dataset.World, 32)
	spec := Spec{Kind: Intersection}
	want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
	if len(want.Pairs) == 0 {
		t.Fatal("vacuous: oracle found nothing")
	}
	for _, alg := range allAlgorithms() {
		env := testEnv(t, robjs, sobjs, 400)
		got, err := alg.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !pairSetsEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s: %d pairs, oracle %d", alg.Name(), len(got.Pairs), len(want.Pairs))
		}
	}
}

func TestAlgorithmsWithBucketSubmission(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 2, 250, dataset.World, 41)
	sobjs := dataset.GaussianClusters(400, 8, 250, dataset.World, 42)
	spec := Spec{Kind: Distance, Eps: 150}
	want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
	for _, alg := range allAlgorithms() {
		env := testEnv(t, robjs, sobjs, 300)
		env.Model.Bucket = true
		got, err := alg.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatalf("%s bucket: %v", alg.Name(), err)
		}
		if !pairSetsEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s bucket: %d pairs, oracle %d", alg.Name(), len(got.Pairs), len(want.Pairs))
		}
	}
}

func TestSemiJoinMatchesOracle(t *testing.T) {
	robjs := dataset.Railway(dataset.RailwayConfig{
		Segments: 3000, Stations: 40, Degree: 2, Bounds: dataset.World, Jitter: 20}, 51)
	sobjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 52)
	spec := Spec{Kind: Distance, Eps: 100}
	want := Oracle(robjs, sobjs, spec, dataset.World)
	if len(want.Pairs) == 0 {
		t.Fatal("vacuous: oracle found nothing")
	}
	env := testEnv(t, robjs, sobjs, 800, server.PublishIndex())
	env.Window = dataset.World
	got, err := SemiJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetsEqual(got.Pairs, want.Pairs) {
		t.Fatalf("semiJoin: %d pairs, oracle %d", len(got.Pairs), len(want.Pairs))
	}
}

func TestSemiJoinRequiresPublishedIndex(t *testing.T) {
	robjs := dataset.Uniform(100, dataset.World, 61)
	sobjs := dataset.Uniform(100, dataset.World, 62)
	env := testEnv(t, robjs, sobjs, 800) // no PublishIndex
	if _, err := (SemiJoin{}).Run(context.Background(), env, Spec{Kind: Distance, Eps: 100}); err == nil {
		t.Fatal("semiJoin without published indexes should fail")
	}
}

func TestIcebergSemiJoin(t *testing.T) {
	robjs := dataset.GaussianClusters(200, 4, 200, dataset.World, 71)
	sobjs := dataset.GaussianClusters(600, 4, 200, dataset.World, 72)
	for _, m := range []int{1, 3, 10} {
		spec := Spec{Kind: IcebergSemi, Eps: 300, MinMatches: m}
		want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
		for _, alg := range allAlgorithms() {
			env := testEnv(t, robjs, sobjs, 400)
			got, err := alg.Run(context.Background(), env, spec)
			if err != nil {
				t.Fatalf("%s m=%d: %v", alg.Name(), m, err)
			}
			if len(got.Objects) != len(want.Objects) {
				t.Fatalf("%s m=%d: %d objects, oracle %d",
					alg.Name(), m, len(got.Objects), len(want.Objects))
			}
			for i := range want.Objects {
				if got.Objects[i].ID != want.Objects[i].ID {
					t.Fatalf("%s m=%d: object %d id %d, oracle %d",
						alg.Name(), m, i, got.Objects[i].ID, want.Objects[i].ID)
				}
			}
		}
	}
}

func TestEmptyDatasetsPruneEverything(t *testing.T) {
	sobjs := dataset.Uniform(100, dataset.World, 81)
	for _, alg := range allAlgorithms() {
		env := testEnv(t, nil, sobjs, 800)
		env.Window = dataset.World
		got, err := alg.Run(context.Background(), env, Spec{Kind: Distance, Eps: 100})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(got.Pairs) != 0 {
			t.Fatalf("%s: %d pairs from empty R", alg.Name(), len(got.Pairs))
		}
	}
}

func TestWindowedJoinRestrictsResults(t *testing.T) {
	robjs := dataset.Uniform(400, dataset.World, 91)
	sobjs := dataset.Uniform(400, dataset.World, 92)
	spec := Spec{Kind: Distance, Eps: 200}
	full := Oracle(robjs, sobjs, spec, dataset.World)
	for _, window := range []geom.Rect{
		geom.R(0, 0, 5000, 5000),       // bottom-left quarter
		geom.R(2500, 2500, 7500, 7500), // interior: data on every side
	} {
		want := Oracle(robjs, sobjs, spec, window)
		if len(want.Pairs) == 0 || len(want.Pairs) >= len(full.Pairs) {
			t.Fatalf("vacuous window test: %d vs %d pairs", len(want.Pairs), len(full.Pairs))
		}
		for _, buffer := range []int{100, 800, 5000} {
			for _, alg := range allAlgorithms() {
				env := testEnv(t, robjs, sobjs, buffer)
				env.Window = window
				got, err := alg.Run(context.Background(), env, spec)
				if err != nil {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
				if !pairSetsEqual(got.Pairs, want.Pairs) {
					t.Fatalf("%s windowed %v, buffer %d: %d pairs, oracle %d",
						alg.Name(), window, buffer, len(got.Pairs), len(want.Pairs))
				}
			}
		}
	}
}

func TestCoincidentPointsOverflowingBufferTerminate(t *testing.T) {
	// 50 identical points on each side with a buffer of 10: no split can
	// separate them, so algorithms must hit the depth guard and still
	// terminate (NLSJ streams, HBSJ errors out or is avoided).
	var robjs, sobjs []geom.Object
	for i := 0; i < 50; i++ {
		robjs = append(robjs, geom.PointObject(uint32(i), geom.Pt(5000, 5000)))
		sobjs = append(sobjs, geom.PointObject(uint32(i), geom.Pt(5000, 5000)))
	}
	spec := Spec{Kind: Distance, Eps: 10}
	for _, alg := range []Algorithm{MobiJoin{}, UpJoin{}, SrJoin{}} {
		env := testEnv(t, robjs, sobjs, 10)
		env.Window = dataset.World
		got, err := alg.Run(context.Background(), env, spec)
		if err != nil {
			// An explicit depth-guard error is acceptable; a hang is not.
			t.Logf("%s: %v", alg.Name(), err)
			continue
		}
		if len(got.Pairs) != 2500 {
			t.Fatalf("%s: %d pairs, want 2500", alg.Name(), len(got.Pairs))
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: Intersection, Eps: 5},
		{Kind: Distance, Eps: -1},
		{Kind: IcebergSemi, Eps: 5, MinMatches: 0},
		{Kind: Kind(99)},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("spec %+v should be invalid", sp)
		}
	}
	good := []Spec{
		{Kind: Intersection},
		{Kind: Distance, Eps: 0},
		{Kind: Distance, Eps: 10},
		{Kind: IcebergSemi, Eps: 10, MinMatches: 1},
	}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %+v should be valid: %v", sp, err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	// Same seed on both sides: overlapping clusters guarantee that some
	// partition reaches a physical operator.
	robjs := dataset.GaussianClusters(300, 2, 200, dataset.World, 101)
	sobjs := dataset.GaussianClusters(300, 2, 200, dataset.World, 101)
	env := testEnv(t, robjs, sobjs, 200)
	got, err := UpJoin{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	if st.TotalBytes() != st.R.WireBytes+st.S.WireBytes {
		t.Fatal("TotalBytes mismatch")
	}
	if st.TotalBytes() <= 0 || st.TotalQueries() <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.AggQueries == 0 {
		t.Fatal("UpJoin must issue aggregate queries")
	}
	if st.HBSJ+st.NLSJ == 0 {
		t.Fatal("no physical operator was ever applied")
	}
	if st.MoneyCost != float64(st.TotalBytes()) {
		t.Fatalf("unit tariffs: money %v != bytes %d", st.MoneyCost, st.TotalBytes())
	}
}

func TestPrunedCounterOnSkewedData(t *testing.T) {
	// Anti-correlated clusters (Fig. 2a): R in two corners, S in the two
	// other corners; UpJoin should prune aggressively.
	var robjs, sobjs []geom.Object
	id := uint32(0)
	for i := 0; i < 250; i++ {
		robjs = append(robjs, geom.PointObject(id, geom.Pt(1000+float64(i%50), 1000+float64(i/50))))
		robjs = append(robjs, geom.PointObject(id+1, geom.Pt(9000+float64(i%50), 9000+float64(i/50))))
		sobjs = append(sobjs, geom.PointObject(id+2, geom.Pt(1000+float64(i%50), 9000+float64(i/50))))
		sobjs = append(sobjs, geom.PointObject(id+3, geom.Pt(9000+float64(i%50), 1000+float64(i/50))))
		id += 4
	}
	env := testEnv(t, robjs, sobjs, 800)
	env.Window = dataset.World
	got, err := UpJoin{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != 0 {
		t.Fatalf("anti-correlated data should join empty, got %d pairs", len(got.Pairs))
	}
	if got.Stats.Pruned == 0 {
		t.Fatal("expected pruning on anti-correlated clusters")
	}
	// UpJoin must beat Naive by a wide margin here.
	envN := testEnv(t, robjs, sobjs, 800)
	envN.Window = dataset.World
	naive, err := Naive{}.Run(context.Background(), envN, Spec{Kind: Distance, Eps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TotalBytes()*2 >= naive.Stats.TotalBytes() {
		t.Fatalf("UpJoin (%d bytes) should be far cheaper than Naive (%d bytes)",
			got.Stats.TotalBytes(), naive.Stats.TotalBytes())
	}
}

func TestAlgorithmsOverTCP(t *testing.T) {
	robjs := dataset.GaussianClusters(200, 4, 200, dataset.World, 111)
	sobjs := dataset.GaussianClusters(200, 4, 200, dataset.World, 112)
	spec := Spec{Kind: Distance, Eps: 150}
	want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))

	srvR, err := netsim.ListenAndServe("127.0.0.1:0", server.New("R", robjs))
	if err != nil {
		t.Fatal(err)
	}
	defer srvR.Close()
	srvS, err := netsim.ListenAndServe("127.0.0.1:0", server.New("S", sobjs))
	if err != nil {
		t.Fatal(err)
	}
	defer srvS.Close()
	trR, err := netsim.DialTCP(srvR.Addr())
	if err != nil {
		t.Fatal(err)
	}
	trS, err := netsim.DialTCP(srvS.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	defer r.Close()
	defer s.Close()
	env := NewEnv(r, s, client.Device{BufferObjects: 300}, costmodel.Default(), geom.Rect{})
	got, err := UpJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetsEqual(got.Pairs, want.Pairs) {
		t.Fatalf("TCP upJoin: %d pairs, oracle %d", len(got.Pairs), len(want.Pairs))
	}
}

func TestChannelAndTCPSameByteCounts(t *testing.T) {
	robjs := dataset.GaussianClusters(150, 2, 200, dataset.World, 121)
	sobjs := dataset.GaussianClusters(150, 2, 200, dataset.World, 122)
	spec := Spec{Kind: Distance, Eps: 100}

	envCh := testEnv(t, robjs, sobjs, 200)
	envCh.Seed = 7
	a, err := UpJoin{}.Run(context.Background(), envCh, spec)
	if err != nil {
		t.Fatal(err)
	}

	srvR, _ := netsim.ListenAndServe("127.0.0.1:0", server.New("R", robjs))
	defer srvR.Close()
	srvS, _ := netsim.ListenAndServe("127.0.0.1:0", server.New("S", sobjs))
	defer srvS.Close()
	trR, _ := netsim.DialTCP(srvR.Addr())
	trS, _ := netsim.DialTCP(srvS.Addr())
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	defer r.Close()
	defer s.Close()
	envTCP := NewEnv(r, s, client.Device{BufferObjects: 200}, costmodel.Default(), geom.Rect{})
	envTCP.Seed = 7
	b, err := UpJoin{}.Run(context.Background(), envTCP, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.TotalBytes() != b.Stats.TotalBytes() {
		t.Fatalf("transport changed accounting: channel %d vs TCP %d",
			a.Stats.TotalBytes(), b.Stats.TotalBytes())
	}
}

func TestOracleWindowSemantics(t *testing.T) {
	r := []geom.Object{geom.PointObject(1, geom.Pt(10, 10)), geom.PointObject(2, geom.Pt(90, 90))}
	s := []geom.Object{geom.PointObject(5, geom.Pt(12, 10)), geom.PointObject(6, geom.Pt(88, 90))}
	spec := Spec{Kind: Distance, Eps: 5}
	full := Oracle(r, s, spec, geom.R(0, 0, 100, 100))
	if len(full.Pairs) != 2 {
		t.Fatalf("full oracle: %d pairs", len(full.Pairs))
	}
	half := Oracle(r, s, spec, geom.R(0, 0, 50, 50))
	if len(half.Pairs) != 1 || half.Pairs[0] != (geom.Pair{RID: 1, SID: 5}) {
		t.Fatalf("half oracle: %v", half.Pairs)
	}
}

func TestKindString(t *testing.T) {
	if Intersection.String() != "intersection" || Distance.String() != "distance" ||
		IcebergSemi.String() != "iceberg-semi" {
		t.Fatal("kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}
