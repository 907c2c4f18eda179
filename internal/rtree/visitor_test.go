package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomObjects(n int, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geom.Object, n)
	for i := range objs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		objs[i] = geom.Object{
			ID:  uint32(i),
			MBR: geom.R(x, y, x+rng.Float64()*20, y+rng.Float64()*20),
		}
	}
	return objs
}

// TestSearchFuncMatchesSearch checks that the visitor traversal yields
// exactly the objects of Search, in the same order — the property that
// keeps response frames bit-identical after the visitor rewrite.
func TestSearchFuncMatchesSearch(t *testing.T) {
	tr := Bulk(randomObjects(3000, 1))
	for _, w := range []geom.Rect{
		geom.R(0, 0, 1000, 1000),
		geom.R(100, 100, 400, 300),
		geom.R(990, 990, 999, 999),
		geom.R(-50, -50, -1, -1),
	} {
		want := tr.Search(w, nil)
		var got []geom.Object
		done := tr.SearchFunc(w, func(o geom.Object) bool {
			got = append(got, o)
			return true
		})
		if !done {
			t.Fatalf("window %v: traversal reported early stop", w)
		}
		if len(got) != len(want) {
			t.Fatalf("window %v: visitor saw %d objects, Search %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %v: order diverges at %d: %+v vs %+v", w, i, got[i], want[i])
			}
		}
	}
}

// TestSearchFuncEarlyStop checks that returning false halts the
// traversal immediately.
func TestSearchFuncEarlyStop(t *testing.T) {
	tr := Bulk(randomObjects(500, 2))
	seen := 0
	done := tr.SearchFunc(geom.R(0, 0, 1000, 1000), func(geom.Object) bool {
		seen++
		return seen < 10
	})
	if done {
		t.Fatal("expected early stop")
	}
	if seen != 10 {
		t.Fatalf("visited %d objects after stop at 10", seen)
	}
}

// TestCountDistMatchesMaterialized checks the aggregate distance count —
// including its fully-within-eps subtree shortcut — against the
// materializing oracle, across probes chosen so that many subtrees fall
// entirely inside the radius.
func TestCountDistMatchesMaterialized(t *testing.T) {
	tr := Bulk(randomObjects(5000, 5))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100)
		eps := rng.Float64() * 600 // large radii exercise the count shortcut
		want := len(tr.SearchDist(p, eps, nil))
		if got := tr.CountDist(p, eps); got != want {
			t.Fatalf("probe %v eps %v: CountDist %d, oracle %d", p, eps, got, want)
		}
	}
	if got := tr.CountDist(geom.Pt(500, 500), 1e6); got != tr.Len() {
		t.Fatalf("all-covering radius: CountDist %d, want %d", got, tr.Len())
	}
}

// TestAvgAreaMatchesSliceOracle pins the visitor-fold AvgArea against
// the slice-based computation it replaced.
func TestAvgAreaMatchesSliceOracle(t *testing.T) {
	tr := Bulk(randomObjects(2000, 7))
	for _, w := range []geom.Rect{
		geom.R(0, 0, 1000, 1000),
		geom.R(250, 250, 600, 700),
		geom.R(-10, -10, -1, -1),
	} {
		var sum float64
		var n int
		for _, o := range tr.Search(w, nil) {
			sum += o.MBR.Area()
			n++
		}
		want := 0.0
		if n > 0 {
			want = sum / float64(n)
		}
		if got := tr.AvgArea(w); got != want {
			t.Fatalf("window %v: AvgArea %v, oracle %v", w, got, want)
		}
	}
}

// TestVisitorEmptyTree checks the visitors and aggregates on the zero
// tree.
func TestVisitorEmptyTree(t *testing.T) {
	var tr Tree
	if !tr.SearchFunc(geom.R(0, 0, 1, 1), func(geom.Object) bool { t.Fatal("visited"); return true }) {
		t.Fatal("empty SearchFunc reported early stop")
	}
	if n := tr.CountDist(geom.Pt(0, 0), 5); n != 0 {
		t.Fatalf("empty CountDist = %d", n)
	}
}
