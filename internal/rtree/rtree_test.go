package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func randObjects(rnd *rand.Rand, n int) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		x := rnd.Float64() * 1000
		y := rnd.Float64() * 1000
		w := rnd.Float64() * 20
		h := rnd.Float64() * 20
		objs[i] = geom.Object{ID: uint32(i), MBR: geom.R(x, y, x+w, y+h)}
	}
	return objs
}

func randPoints(rnd *rand.Rand, n int) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		objs[i] = geom.PointObject(uint32(i), geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000))
	}
	return objs
}

// bruteSearch is the oracle for window queries.
func bruteSearch(objs []geom.Object, w geom.Rect) []uint32 {
	var ids []uint32
	for _, o := range objs {
		if o.MBR.Intersects(w) {
			ids = append(ids, o.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func idsOf(objs []geom.Object) []uint32 {
	ids := make([]uint32, len(objs))
	for i, o := range objs {
		ids[i] = o.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint32) bool {
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

func TestEmptyTree(t *testing.T) {
	tr := Bulk(nil)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if got := tr.Search(geom.R(0, 0, 1, 1), nil); len(got) != 0 {
		t.Fatal("search on empty tree should be empty")
	}
	if tr.Count(geom.R(0, 0, 1, 1)) != 0 {
		t.Fatal("count on empty tree should be 0")
	}
	if _, err := tr.LevelMBRs(0); err == nil {
		t.Fatal("LevelMBRs on empty tree should error")
	}
	var zero Tree
	if zero.Len() != 0 {
		t.Fatal("zero tree should be empty")
	}
}

func TestBulkSingleObject(t *testing.T) {
	o := geom.PointObject(9, geom.Pt(5, 5))
	tr := Bulk([]geom.Object{o})
	if tr.Len() != 1 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	got := tr.Search(geom.R(0, 0, 10, 10), nil)
	if len(got) != 1 || got[0] != o {
		t.Fatalf("got %v", got)
	}
}

func TestBulkSearchMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	objs := randObjects(rnd, 2000)
	tr := Bulk(objs)
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		w := geom.R(rnd.Float64()*1000, rnd.Float64()*1000,
			rnd.Float64()*1000, rnd.Float64()*1000)
		got := idsOf(tr.Search(w, nil))
		want := bruteSearch(objs, w)
		if !equalIDs(got, want) {
			t.Fatalf("window %v: got %d ids, want %d", w, len(got), len(want))
		}
	}
}

func TestCountMatchesSearch(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	objs := randObjects(rnd, 3000)
	tr := Bulk(objs)
	for i := 0; i < 200; i++ {
		w := geom.R(rnd.Float64()*1000, rnd.Float64()*1000,
			rnd.Float64()*1000, rnd.Float64()*1000)
		if got, want := tr.Count(w), len(tr.Search(w, nil)); got != want {
			t.Fatalf("window %v: Count=%d Search=%d", w, got, want)
		}
	}
	// Whole-space count uses the root aggregate.
	if got := tr.Count(geom.R(-1, -1, 2000, 2000)); got != 3000 {
		t.Fatalf("full count = %d", got)
	}
}

func TestSearchDistMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	objs := randPoints(rnd, 1500)
	tr := Bulk(objs)
	for i := 0; i < 100; i++ {
		p := geom.Pt(rnd.Float64()*1000, rnd.Float64()*1000)
		eps := rnd.Float64() * 50
		got := idsOf(tr.SearchDist(p, eps, nil))
		var want []uint32
		for _, o := range objs {
			if o.MBR.DistToPoint(p) <= eps {
				want = append(want, o.ID)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if !equalIDs(got, want) {
			t.Fatalf("p=%v eps=%v: got %d, want %d", p, eps, len(got), len(want))
		}
		if tr.CountDist(p, eps) != len(want) {
			t.Fatalf("CountDist mismatch")
		}
	}
}

// checkInvariants walks the tree verifying MBR containment, aggregate
// counts, and fill bounds.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		return
	}
	var walk func(nd *node, depth int) int
	walk = func(nd *node, depth int) int {
		if nd.leaf {
			if depth != tr.height-1 {
				t.Fatalf("leaf at depth %d, height %d (unbalanced)", depth, tr.height)
			}
			if nd.count != len(nd.objects) {
				t.Fatalf("leaf count %d != %d objects", nd.count, len(nd.objects))
			}
			for _, o := range nd.objects {
				if !nd.mbr.Contains(o.MBR) {
					t.Fatalf("leaf mbr %v does not contain object %v", nd.mbr, o.MBR)
				}
			}
			return nd.count
		}
		if len(nd.children) > MaxEntries {
			t.Fatalf("internal node with %d children", len(nd.children))
		}
		sum := 0
		for _, c := range nd.children {
			if !nd.mbr.Contains(c.mbr) {
				t.Fatalf("node mbr %v does not contain child %v", nd.mbr, c.mbr)
			}
			sum += walk(c, depth+1)
		}
		if nd.count != sum {
			t.Fatalf("aggregate count %d != children sum %d", nd.count, sum)
		}
		return sum
	}
	total := walk(tr.root, 0)
	if total != tr.Len() {
		t.Fatalf("walked %d objects, Len() = %d", total, tr.Len())
	}
}

func TestInvariantsBulk(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 16, 17, 100, 1000, 5000} {
		tr := Bulk(randObjects(rnd, n))
		checkInvariants(t, tr)
	}
}

func TestLevelMBRs(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	objs := randObjects(rnd, MaxEntries*MaxEntries*2) // guarantees >= 3 levels
	tr := Bulk(objs)
	if tr.Height() < 3 {
		t.Fatalf("height %d too small for the test", tr.Height())
	}
	// Leaf level covers all objects.
	leaves, err := tr.LevelMBRs(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		found := false
		for _, m := range leaves {
			if m.Contains(o.MBR) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("object %v not covered by any leaf MBR", o.MBR)
		}
	}
	// Root level is a single rect equal to bounds.
	top, err := tr.LevelMBRs(tr.Height() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0] != tr.Bounds() {
		t.Fatalf("root level = %v, bounds %v", top, tr.Bounds())
	}
	// Level sizes shrink as we go up.
	prev := len(leaves)
	for lvl := 1; lvl < tr.Height(); lvl++ {
		ms, err := tr.LevelMBRs(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) >= prev {
			t.Fatalf("level %d has %d MBRs, level below had %d", lvl, len(ms), prev)
		}
		prev = len(ms)
	}
	if _, err := tr.LevelMBRs(tr.Height()); err == nil {
		t.Fatal("out-of-range level should error")
	}
	if _, err := tr.LevelMBRs(-1); err == nil {
		t.Fatal("negative level should error")
	}
}

func TestAll(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	objs := randObjects(rnd, 700)
	tr := Bulk(objs)
	got := idsOf(tr.Objects())
	want := idsOf(objs)
	if !equalIDs(got, want) {
		t.Fatalf("Objects returned %d ids, want %d", len(got), len(want))
	}
}

func TestAvgArea(t *testing.T) {
	objs := []geom.Object{
		{ID: 1, MBR: geom.R(0, 0, 2, 2)},     // area 4
		{ID: 2, MBR: geom.R(10, 10, 14, 14)}, // area 16
	}
	tr := Bulk(objs)
	if got := tr.AvgArea(geom.R(-1, -1, 20, 20)); got != 10 {
		t.Fatalf("AvgArea = %v, want 10", got)
	}
	if got := tr.AvgArea(geom.R(0, 0, 3, 3)); got != 4 {
		t.Fatalf("AvgArea(partial) = %v, want 4", got)
	}
	if got := tr.AvgArea(geom.R(100, 100, 101, 101)); got != 0 {
		t.Fatalf("AvgArea(empty) = %v, want 0", got)
	}
}

func TestQuickCountEqualsBrute(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	objs := randObjects(rnd, 400)
	tr := Bulk(objs)
	f := func(x1, y1, x2, y2 uint16) bool {
		w := geom.R(float64(x1%1000), float64(y1%1000), float64(x2%1000), float64(y2%1000))
		return tr.Count(w) == len(bruteSearch(objs, w))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateObjectsAllowed(t *testing.T) {
	o := geom.PointObject(1, geom.Pt(5, 5))
	tr := Bulk([]geom.Object{o, o, o})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates kept)", tr.Len())
	}
	if got := tr.Count(geom.R(4, 4, 6, 6)); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}
