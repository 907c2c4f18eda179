package core

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// --- UpJoin internals -----------------------------------------------------

func upStateForTest(t *testing.T, alpha float64) *upState {
	t.Helper()
	env := testEnv(t, dataset.Uniform(10, dataset.World, 1), dataset.Uniform(10, dataset.World, 2), 100)
	x, err := newExec(context.Background(), env, Spec{Kind: Distance, Eps: 10}, "test")
	if err != nil {
		t.Fatal(err)
	}
	return &upState{exec: x, alpha: alpha}
}

func TestUniformTestAcceptsBalancedQuadrants(t *testing.T) {
	u := upStateForTest(t, 0.25)
	qs := [4]cnt{exact(250), exact(251), exact(249), exact(250)}
	if !u.uniformTest(1000, qs) {
		t.Fatal("balanced quadrants should pass")
	}
}

func TestUniformTestRejectsConcentration(t *testing.T) {
	u := upStateForTest(t, 0.25)
	qs := [4]cnt{exact(1000), exact(0), exact(0), exact(0)}
	if u.uniformTest(1000, qs) {
		t.Fatal("fully concentrated quadrants should fail")
	}
}

func TestUniformTestAlphaMonotonic(t *testing.T) {
	// A distribution rejected at small α may pass at large α, never the
	// reverse.
	qs := [4]cnt{exact(400), exact(200), exact(200), exact(200)}
	strict := upStateForTest(t, 0.05)
	loose := upStateForTest(t, 0.9)
	if strict.uniformTest(1000, qs) && !loose.uniformTest(1000, qs) {
		t.Fatal("loosening alpha must not reject a previously accepted window")
	}
	if !loose.uniformTest(1000, qs) {
		t.Fatal("α=0.9 should accept a mild 40/20/20/20 imbalance")
	}
}

func TestEstQuadsConservesCount(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 1000} {
		qs := estQuads(n)
		sum := 0
		for _, q := range qs {
			if q.exact {
				t.Fatalf("estimated quadrants must be approximate")
			}
			sum += q.n
		}
		if sum != n {
			t.Fatalf("estQuads(%d) sums to %d", n, sum)
		}
	}
}

func TestRandomQuadrantWindowInsideParent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := geom.R(100, 200, 900, 1000)
	for i := 0; i < 200; i++ {
		probe := randomQuadrantWindow(rng, w)
		if !w.Contains(probe) {
			t.Fatalf("probe %v escapes parent %v", probe, w)
		}
		if dw := probe.Width() - w.Width()/2; dw > 1e-9 || dw < -1e-9 {
			t.Fatalf("probe %v is not quadrant-sized (width %v)", probe, probe.Width())
		}
		if dh := probe.Height() - w.Height()/2; dh > 1e-9 || dh < -1e-9 {
			t.Fatalf("probe %v is not quadrant-sized (height %v)", probe, probe.Height())
		}
	}
}

// --- SrJoin internals -----------------------------------------------------

func TestSrJoinBitmap(t *testing.T) {
	env := testEnv(t, dataset.Uniform(10, dataset.World, 1), dataset.Uniform(10, dataset.World, 2), 100)
	x, err := newExec(context.Background(), env, Spec{Kind: Distance, Eps: 10}, "test")
	if err != nil {
		t.Fatal(err)
	}
	s := &srState{exec: x, rho: 0.3}
	// Threshold is ρ·n/4 = 0.3·100/4 = 7.5: bits set for counts > 7.5.
	bm := s.bitmap(100, [4]cnt{exact(8), exact(7), exact(0), exact(50)})
	want := [4]bool{true, false, false, true}
	if bm != want {
		t.Fatalf("bitmap = %v, want %v", bm, want)
	}
}

// --- exec internals --------------------------------------------------------

func TestSplittableStopsAtEpsScale(t *testing.T) {
	env := testEnv(t, dataset.Uniform(10, dataset.World, 1), dataset.Uniform(10, dataset.World, 2), 100)
	x, err := newExec(context.Background(), env, Spec{Kind: Distance, Eps: 100}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if !x.splittable(geom.R(0, 0, 1000, 1000), 0) {
		t.Fatal("large cell should be splittable")
	}
	if x.splittable(geom.R(0, 0, 150, 150), 0) {
		t.Fatal("cell below 2ε should not be splittable")
	}
	if x.splittable(geom.R(0, 0, 1000, 1000), maxDepth) {
		t.Fatal("depth bound must stop splitting")
	}
	// ε = 0: only the depth bound applies.
	x0, err := newExec(context.Background(), env, Spec{Kind: Intersection}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if !x0.splittable(geom.R(0, 0, 0.001, 0.001), 5) {
		t.Fatal("intersection joins split regardless of cell size")
	}
}

func TestQuadrantCountDerivation(t *testing.T) {
	objs := dataset.Uniform(400, dataset.World, 31)
	env := testEnv(t, objs, objs, 100)
	// ε = 0: derivation is exact and costs 3 queries per side.
	x, err := newExec(context.Background(), env, Spec{Kind: Intersection}, "test")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := x.count(sideR, dataset.World)
	if err != nil {
		t.Fatal(err)
	}
	before := x.dec.agg.Load()
	qs, err := x.quadrantCounts(sideR, dataset.World, exact(parent))
	if err != nil {
		t.Fatal(err)
	}
	if got := x.dec.agg.Load() - before; got != 3 {
		t.Fatalf("expected 3 aggregate queries, got %d", got)
	}
	sum := 0
	for _, q := range qs {
		if !q.exact {
			t.Fatal("ε=0 derivation must be exact")
		}
		sum += q.n
	}
	if sum != parent {
		t.Fatalf("quadrants sum to %d, parent %d", sum, parent)
	}

	// ε > 0: the derived fourth count is approximate.
	xd, err := newExec(context.Background(), env, Spec{Kind: Distance, Eps: 50}, "test")
	if err != nil {
		t.Fatal(err)
	}
	parentD, err := xd.count(sideR, dataset.World)
	if err != nil {
		t.Fatal(err)
	}
	qsD, err := xd.quadrantCounts(sideR, dataset.World, exact(parentD))
	if err != nil {
		t.Fatal(err)
	}
	if qsD[3].exact {
		t.Fatal("ε>0 derived count must be approximate")
	}
}

// --- Auto internals ---------------------------------------------------------

// TestShardSkewReadsDensity: shards are balanced by count, so the
// planner's query-free prior has to come from how tightly each shard's
// bounds pack that count — clustered data reads far above 1, evenly
// spread data about 1, and layouts with nothing to measure exactly 1.
func TestShardSkewReadsDensity(t *testing.T) {
	coincident := make([]geom.Object, 64)
	for i := range coincident {
		coincident[i] = geom.PointObject(uint32(i), geom.Pt(42, 42))
	}
	skew := func(objs []geom.Object, shards int) float64 {
		t.Helper()
		router, err := shard.ServeLocal("D", objs, shard.LocalConfig{Shards: shards, Link: netsim.DefaultLink(), Price: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		return shardSkew(context.Background(), router)
	}
	uniform := skew(dataset.Uniform(4000, dataset.World, 7), 16)
	clustered := skew(dataset.GaussianClusters(4000, 8, 250, dataset.World, 7), 16)
	t.Logf("16 shards: uniform %.2f, clustered %.2f", uniform, clustered)
	if uniform < 1 || uniform > 1.5 {
		t.Errorf("uniform data reads skew %.2f, want about 1", uniform)
	}
	if clustered < 3 || clustered > 16 {
		t.Errorf("8 clusters over 16 shards read skew %.2f, want well above 1 and at most the shard count", clustered)
	}
	for name, got := range map[string]float64{
		"unsharded":                skew(dataset.Uniform(100, dataset.World, 7), 1),
		"zero-area shards":         skew(coincident, 4),
		"more shards than objects": skew(dataset.Uniform(3, dataset.World, 7), 4),
	} {
		if got != 1 {
			t.Errorf("%s: skew %v, want 1", name, got)
		}
	}
}

// --- failure injection ------------------------------------------------------

// faultyHandler answers the first okUntil requests normally, then returns
// protocol garbage. Like every handler it may be called concurrently.
type faultyHandler struct {
	inner   netsim.Handler
	okUntil int32
	n       atomic.Int32
}

func (f *faultyHandler) Handle(req []byte) []byte {
	if f.n.Add(1) > f.okUntil {
		return []byte{0xFF, 0x01, 0x02} // not a valid frame type
	}
	return f.inner.Handle(req)
}

func TestAlgorithmsSurfaceMidJoinFailures(t *testing.T) {
	robjs := dataset.GaussianClusters(300, 4, 250, dataset.World, 41)
	sobjs := dataset.GaussianClusters(300, 4, 250, dataset.World, 41)
	for _, alg := range allAlgorithms() {
		srvR := server.New("R", robjs)
		srvS := server.New("S", sobjs)
		trR := netsim.Serve(&faultyHandler{inner: srvR, okUntil: 5})
		trS := netsim.Serve(srvS)
		r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
		s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
		env := NewEnv(r, s, client.Device{BufferObjects: 400}, costmodel.Default(), dataset.World)
		_, err := alg.Run(context.Background(), env, Spec{Kind: Distance, Eps: 100})
		r.Close()
		s.Close()
		if err == nil {
			t.Errorf("%s: garbage frames mid-join must surface an error", alg.Name())
		}
	}
}

// refusingHandler refuses every request with a server error.
type refusingHandler struct{}

func (refusingHandler) Handle(req []byte) []byte {
	return wire.AppendError(nil, "service unavailable")
}

func TestAlgorithmsSurfaceServerRefusal(t *testing.T) {
	trR := netsim.Serve(refusingHandler{})
	trS := netsim.Serve(refusingHandler{})
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	defer r.Close()
	defer s.Close()
	env := NewEnv(r, s, client.Device{BufferObjects: 400}, costmodel.Default(), dataset.World)
	_, err := UpJoin{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 100})
	if err == nil || !strings.Contains(err.Error(), "service unavailable") {
		t.Fatalf("err = %v, want surfaced refusal", err)
	}
}

func TestTraceHookReceivesDecisions(t *testing.T) {
	robjs := dataset.GaussianClusters(200, 2, 250, dataset.World, 51)
	sobjs := dataset.GaussianClusters(200, 2, 250, dataset.World, 51)
	env := testEnv(t, robjs, sobjs, 300)
	lines := 0
	env.Trace = func(format string, args ...any) { lines++ }
	if _, err := (UpJoin{}).Run(context.Background(), env, Spec{Kind: Distance, Eps: 100}); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace hook never fired")
	}
}
