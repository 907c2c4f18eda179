package memjoin

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randPoints(rnd *rand.Rand, n int, idBase uint32) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.PointObject(idBase+uint32(i), geom.Pt(rnd.Float64()*100, rnd.Float64()*100))
	}
	return objs
}

func randRects(rnd *rand.Rand, n int, idBase uint32) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		x, y := rnd.Float64()*100, rnd.Float64()*100
		objs[i] = geom.Object{ID: idBase + uint32(i), MBR: geom.R(x, y, x+rnd.Float64()*5, y+rnd.Float64()*5)}
	}
	return objs
}

func pairsEqual(a, b []geom.Pair) bool {
	a = DedupPairs(append([]geom.Pair(nil), a...))
	b = DedupPairs(append([]geom.Pair(nil), b...))
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

func TestPredMatch(t *testing.T) {
	a, b := geom.R(0, 0, 1, 1), geom.R(2, 0, 3, 1)
	if Intersection().Match(a, b) {
		t.Error("disjoint rects should not intersect")
	}
	if !WithinDist(1).Match(a, b) {
		t.Error("rects at distance 1 should match eps=1")
	}
	if WithinDist(0.5).Match(a, b) {
		t.Error("rects at distance 1 should not match eps=0.5")
	}
	if !Intersection().Match(a, geom.R(1, 1, 2, 2)) {
		t.Error("touching rects intersect")
	}
}

func TestAllAlgorithmsAgreeIntersection(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	r := randRects(rnd, 300, 0)
	s := randRects(rnd, 250, 10000)
	opt := Options{}
	pred := Intersection()
	nl := NestedLoop(r, s, pred, opt, nil)
	gj := GridJoin(r, s, pred, opt, nil)
	ps := PlaneSweep(r, s, pred, opt, nil)
	if !pairsEqual(nl, gj) {
		t.Fatalf("grid join disagrees with nested loop: %d vs %d", len(gj), len(nl))
	}
	if !pairsEqual(nl, ps) {
		t.Fatalf("plane sweep disagrees with nested loop: %d vs %d", len(ps), len(nl))
	}
	if len(nl) == 0 {
		t.Fatal("workload produced no pairs; test is vacuous")
	}
}

func TestAllAlgorithmsAgreeDistance(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	r := randPoints(rnd, 400, 0)
	s := randPoints(rnd, 350, 10000)
	for _, eps := range []float64{0.5, 2, 10} {
		pred := WithinDist(eps)
		opt := Options{}
		nl := NestedLoop(r, s, pred, opt, nil)
		gj := GridJoin(r, s, pred, opt, nil)
		ps := PlaneSweep(r, s, pred, opt, nil)
		if !pairsEqual(nl, gj) {
			t.Fatalf("eps=%v: grid join %d vs nested loop %d", eps, len(gj), len(nl))
		}
		if !pairsEqual(nl, ps) {
			t.Fatalf("eps=%v: plane sweep %d vs nested loop %d", eps, len(ps), len(nl))
		}
		if len(nl) == 0 {
			t.Fatalf("eps=%v produced no pairs; test is vacuous", eps)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	r := randPoints(rnd, 10, 0)
	opt := Options{}
	if got := GridJoin(nil, r, Intersection(), opt, nil); len(got) != 0 {
		t.Fatal("empty R should give empty result")
	}
	if got := GridJoin(r, nil, Intersection(), opt, nil); len(got) != 0 {
		t.Fatal("empty S should give empty result")
	}
	if got := PlaneSweep(nil, nil, Intersection(), opt, nil); len(got) != 0 {
		t.Fatal("empty join should be empty")
	}
}

func TestDedupAcrossPartitionsExactlyOnce(t *testing.T) {
	// Objects near the boundary of two partitions; running the join per
	// partition, each owning its cell, must produce each qualifying pair
	// exactly once.
	rnd := rand.New(rand.NewSource(4))
	r := randPoints(rnd, 200, 0)
	s := randPoints(rnd, 200, 10000)
	eps := 5.0
	pred := WithinDist(eps)

	// Oracle without partitioning.
	oracle := NestedLoop(r, s, pred, Options{}, nil)
	oracle = DedupPairs(oracle)

	// The root region is expanded by eps/2 before partitioning, exactly
	// as the distributed engine treats its root window: reference points
	// of edge pairs can fall up to eps/2 outside the data space.
	world := geom.R(0, 0, 100, 100).Expand(eps / 2)
	var got []geom.Pair
	for _, cell := range world.Grid(4) {
		// Each partition sees objects within eps/2-expanded cell, as the
		// paper prescribes for distance joins (§3).
		ext := cell.Expand(eps)
		var rp, sp []geom.Object
		for _, o := range r {
			if o.MBR.Intersects(ext) {
				rp = append(rp, o)
			}
		}
		for _, o := range s {
			if o.MBR.Intersects(ext) {
				sp = append(sp, o)
			}
		}
		got = GridJoin(rp, sp, pred, Options{Window: cell}, got)
	}
	// No duplicates even before dedup.
	before := len(got)
	got = DedupPairs(got)
	if len(got) != before {
		t.Fatalf("partitioned join emitted %d duplicates", before-len(got))
	}
	if !pairsEqual(oracle, got) {
		t.Fatalf("partitioned join found %d pairs, oracle %d", len(got), len(oracle))
	}
	if len(oracle) == 0 {
		t.Fatal("vacuous test: no pairs")
	}
}

func TestGridJoinDegenerateExtent(t *testing.T) {
	// All build objects at the same point: the grid collapses to one cell.
	r := []geom.Object{geom.PointObject(1, geom.Pt(5, 5)), geom.PointObject(2, geom.Pt(5, 5))}
	s := []geom.Object{geom.PointObject(10, geom.Pt(5, 5))}
	got := GridJoin(r, s, Intersection(), Options{}, nil)
	if len(got) != 2 {
		t.Fatalf("got %d pairs, want 2", len(got))
	}
}

func TestGridJoinSwapsToSmallerBuildSide(t *testing.T) {
	// Correctness must hold regardless of which side is larger.
	rnd := rand.New(rand.NewSource(5))
	small := randPoints(rnd, 20, 0)
	large := randPoints(rnd, 400, 10000)
	pred := WithinDist(3)
	a := GridJoin(small, large, pred, Options{}, nil)
	b := NestedLoop(small, large, pred, Options{}, nil)
	if !pairsEqual(a, b) {
		t.Fatalf("small-R: %d vs %d", len(a), len(b))
	}
	c := GridJoin(large, small, pred, Options{}, nil)
	d := NestedLoop(large, small, pred, Options{}, nil)
	if !pairsEqual(c, d) {
		t.Fatalf("large-R: %d vs %d", len(c), len(d))
	}
}

func TestDedupPairs(t *testing.T) {
	ps := []geom.Pair{{RID: 2, SID: 1}, {RID: 1, SID: 1}, {RID: 2, SID: 1}, {RID: 1, SID: 2}}
	out := DedupPairs(ps)
	want := []geom.Pair{{RID: 1, SID: 1}, {RID: 1, SID: 2}, {RID: 2, SID: 1}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	if got := DedupPairs(nil); len(got) != 0 {
		t.Fatal("nil input should stay empty")
	}
	single := []geom.Pair{{RID: 5, SID: 6}}
	if got := DedupPairs(single); len(got) != 1 || got[0] != single[0] {
		t.Fatal("single pair should be unchanged")
	}
}

func BenchmarkGridJoin1000x1000(b *testing.B) {
	rnd := rand.New(rand.NewSource(6))
	r := randPoints(rnd, 1000, 0)
	s := randPoints(rnd, 1000, 100000)
	pred := WithinDist(2)
	opt := Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GridJoin(r, s, pred, opt, nil)
	}
}

func BenchmarkPlaneSweep1000x1000(b *testing.B) {
	rnd := rand.New(rand.NewSource(7))
	r := randPoints(rnd, 1000, 0)
	s := randPoints(rnd, 1000, 100000)
	pred := WithinDist(2)
	opt := Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlaneSweep(r, s, pred, opt, nil)
	}
}
