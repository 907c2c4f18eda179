package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNormalizesCorners(t *testing.T) {
	r := R(5, 7, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 7}
	if r != want {
		t.Fatalf("R(5,7,1,2) = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 2)
	if got := r.Width(); got != 4 {
		t.Errorf("Width = %v, want 4", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %v, want 2", got)
	}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %v, want 8", got)
	}
	if got := r.Center(); got != Pt(2, 1) {
		t.Errorf("Center = %v, want (2,1)", got)
	}
}

func TestIntersectsClosedSemantics(t *testing.T) {
	a := R(0, 0, 1, 1)
	cases := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlapping", R(0.5, 0.5, 2, 2), true},
		{"edge touching", R(1, 0, 2, 1), true},
		{"corner touching", R(1, 1, 2, 2), true},
		{"disjoint", R(1.1, 1.1, 2, 2), false},
		{"contained", R(0.25, 0.25, 0.75, 0.75), true},
		{"containing", R(-1, -1, 2, 2), true},
		{"degenerate point inside", RectFromPoint(Pt(0.5, 0.5)), true},
		{"degenerate point on edge", RectFromPoint(Pt(1, 0.5)), true},
		{"degenerate point outside", RectFromPoint(Pt(1.001, 0.5)), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s (swapped): Intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	a := R(0, 0, 10, 10)
	if !a.Contains(R(0, 0, 10, 10)) {
		t.Error("rect should contain itself")
	}
	if !a.Contains(R(2, 2, 8, 8)) {
		t.Error("rect should contain inner rect")
	}
	if a.Contains(R(2, 2, 11, 8)) {
		t.Error("rect should not contain overflowing rect")
	}
	if !a.ContainsPoint(Pt(10, 10)) {
		t.Error("corner point should be contained")
	}
	if a.ContainsPoint(Pt(10.0001, 10)) {
		t.Error("outside point should not be contained")
	}
}

func TestIntersection(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 6, 6)
	got, ok := a.Intersection(b)
	if !ok {
		t.Fatal("expected non-empty intersection")
	}
	if want := R(2, 2, 4, 4); got != want {
		t.Fatalf("Intersection = %v, want %v", got, want)
	}
	if _, ok := a.Intersection(R(5, 5, 6, 6)); ok {
		t.Fatal("expected empty intersection")
	}
	// Touching rectangles intersect in a degenerate rect.
	got, ok = a.Intersection(R(4, 0, 8, 4))
	if !ok || got.Area() != 0 || got.MinX != 4 {
		t.Fatalf("touching intersection = %v ok=%v, want degenerate at x=4", got, ok)
	}
}

func TestUnion(t *testing.T) {
	a := R(0, 0, 1, 1)
	b := R(2, 3, 4, 5)
	if got, want := a.Union(b), R(0, 0, 4, 5); got != want {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}

func TestExpand(t *testing.T) {
	r := R(2, 2, 4, 4)
	if got, want := r.Expand(1), R(1, 1, 5, 5); got != want {
		t.Fatalf("Expand(1) = %v, want %v", got, want)
	}
	// Over-shrinking clamps to the center.
	got := r.Expand(-5)
	if got.Width() != 0 || got.Height() != 0 || got.Center() != Pt(3, 3) {
		t.Fatalf("Expand(-5) = %v, want degenerate at (3,3)", got)
	}
}

func TestDistToPoint(t *testing.T) {
	r := R(0, 0, 2, 2)
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},
		{Pt(2, 2), 0},
		{Pt(3, 2), 1},
		{Pt(2, 5), 3},
		{Pt(5, 6), 5}, // 3-4-5 triangle from corner (2,2)
		{Pt(-3, -4), 5},
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMinDistAndWithinDist(t *testing.T) {
	a := R(0, 0, 1, 1)
	b := R(4, 5, 6, 7)
	if !a.WithinDist(b, 5) {
		t.Error("WithinDist(5) should hold at exactly distance 5")
	}
	if a.WithinDist(b, 4.999) {
		t.Error("WithinDist(4.999) should not hold")
	}
	if !a.WithinDist(R(0.5, 0.5, 2, 2), 0) {
		t.Error("intersecting rects are within distance 0")
	}
}

func TestQuadrants(t *testing.T) {
	r := R(0, 0, 4, 4)
	q := r.Quadrants()
	want := [4]Rect{R(0, 0, 2, 2), R(2, 0, 4, 2), R(0, 2, 2, 4), R(2, 2, 4, 4)}
	if q != want {
		t.Fatalf("Quadrants = %v, want %v", q, want)
	}
	var area float64
	for _, c := range q {
		area += c.Area()
	}
	if area != r.Area() {
		t.Fatalf("quadrant areas sum to %v, want %v", area, r.Area())
	}
}

func TestQuadrantPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for quadrant index 4")
		}
	}()
	R(0, 0, 1, 1).Quadrant(4)
}

func TestGrid(t *testing.T) {
	r := R(0, 0, 3, 3)
	cells := r.Grid(3)
	if len(cells) != 9 {
		t.Fatalf("Grid(3) returned %d cells, want 9", len(cells))
	}
	// First cell is bottom-left, last is top-right.
	if cells[0] != R(0, 0, 1, 1) {
		t.Errorf("first cell = %v, want [0,1]x[0,1]", cells[0])
	}
	if cells[8] != R(2, 2, 3, 3) {
		t.Errorf("last cell = %v, want [2,3]x[2,3]", cells[8])
	}
	var area float64
	for _, c := range cells {
		area += c.Area()
		if !r.Contains(c) {
			t.Errorf("cell %v not contained in %v", c, r)
		}
	}
	if math.Abs(area-r.Area()) > 1e-9 {
		t.Errorf("cell areas sum to %v, want %v", area, r.Area())
	}
}

func TestGridPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Grid(0)")
		}
	}()
	R(0, 0, 1, 1).Grid(0)
}

func TestGridOneIsIdentity(t *testing.T) {
	r := R(-3, 2, 7, 9)
	cells := r.Grid(1)
	if len(cells) != 1 || cells[0] != r {
		t.Fatalf("Grid(1) = %v, want [%v]", cells, r)
	}
}

func TestPointDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if got := p.DistTo(q); got != 5 {
		t.Errorf("DistTo = %v, want 5", got)
	}
	if got := p.DistSqTo(q); got != 25 {
		t.Errorf("DistSqTo = %v, want 25", got)
	}
}

// randomRect produces a modest-range valid rectangle from a rand source.
func randomRect(rnd *rand.Rand) Rect {
	x := rnd.Float64()*200 - 100
	y := rnd.Float64()*200 - 100
	return R(x, y, x+rnd.Float64()*50, y+rnd.Float64()*50)
}

func TestQuickIntersectionSymmetricAndContained(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomRect(rnd), randomRect(rnd)
		i1, ok1 := a.Intersection(b)
		i2, ok2 := b.Intersection(a)
		if ok1 != ok2 || i1 != i2 {
			return false
		}
		if ok1 && (!a.Contains(i1) || !b.Contains(i1)) {
			return false
		}
		return ok1 == a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomRect(rnd), randomRect(rnd)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinDistConsistentWithIntersects(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randomRect(rnd), randomRect(rnd)
		return a.WithinDist(b, 0) == a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGridPartitionCoversWithoutOverlapCounting(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	f := func() bool {
		r := randomRect(rnd)
		if r.Area() == 0 {
			return true
		}
		k := 1 + rnd.Intn(5)
		cells := r.Grid(k)
		// Any interior sample point must fall in at least one cell, and
		// strictly interior points of cells in exactly one cell.
		for i := 0; i < 20; i++ {
			p := Pt(r.MinX+rnd.Float64()*r.Width(), r.MinY+rnd.Float64()*r.Height())
			n := 0
			for _, c := range cells {
				if c.ContainsPoint(p) {
					n++
				}
			}
			if n < 1 || n > 4 { // up to 4 on shared corners
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpandGrowsArea(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	f := func() bool {
		r := randomRect(rnd)
		d := rnd.Float64() * 10
		e := r.Expand(d)
		return e.Contains(r) && e.Width() >= r.Width() && e.Height() >= r.Height()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistToPointZeroIffInside(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	f := func() bool {
		r := randomRect(rnd)
		p := Pt(rnd.Float64()*400-200, rnd.Float64()*400-200)
		d := r.DistToPoint(p)
		if r.ContainsPoint(p) {
			return d == 0
		}
		return d > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectHelpers(t *testing.T) {
	o := PointObject(7, Pt(2, 3))
	if !o.IsPoint() {
		t.Error("PointObject should be a point")
	}
	if o.Center() != Pt(2, 3) {
		t.Errorf("Center = %v, want (2,3)", o.Center())
	}
	box := Object{ID: 8, MBR: R(0, 0, 2, 2)}
	if box.IsPoint() {
		t.Error("box object should not be a point")
	}
}

func TestRefPoint(t *testing.T) {
	a := R(0, 0, 2, 2)
	b := R(1, 1, 3, 3)
	if p := RefPointEps(a, b, 0); p != Pt(1, 1) {
		t.Fatalf("RefPointEps = %v, want (1,1)", p)
	}
	// Points at exactly ε (WithinDist holds) whose expansions by ε/2 miss
	// each other once rounded still have a reference point,
	// max(a, b) − ε/2 per axis.
	eps := 285.2484959329214
	a, b = RectFromPoint(Pt(184.04037976305605, 0)), RectFromPoint(Pt(469.2888756959775, 0))
	if !a.WithinDist(b, eps) || a.Expand(eps/2).Intersects(b.Expand(eps/2)) {
		t.Fatal("the pair no longer splits the distance test and the rounded expansions")
	}
	if p := RefPointEps(a, b, eps); p != Pt(469.2888756959775-eps/2, -eps/2) {
		t.Fatalf("RefPointEps = %v, want (%v, %v)", p, 469.2888756959775-eps/2, -eps/2)
	}
}

// TestOwnedTilesTheRoot is the property partitioned joins rely on to
// report each pair once. The tilings are random quadtrees up to depth 6
// and Grid(k) for k = 1..9, over roots expanded by ε/2 from the data's
// float32 bounds or from a float64 query window. Every cell corner and
// edge midpoint, and each of their ±1-ulp neighbours, has exactly one
// owning cell inside the root and none outside. A pair within ε whose
// reference point lies at or beside such a point is owned once, by a
// cell whose fetch window — the cell expanded by ε/2 — holds both
// objects (a float32 object inside it stays inside once the wire rounds
// the window to float32).
func TestOwnedTilesTheRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f32 := func(v float64) float64 { return float64(float32(v)) }
	pairs := 0
	check := func(name string, root Rect, cells []Rect, eps float64, extra ...[2]Rect) {
		t.Helper()
		owners := func(p Point) (n, want int, owner Rect) {
			for _, c := range cells {
				if c.Owned(root).ContainsPoint(p) {
					n, owner = n+1, c
				}
			}
			if root.ContainsPoint(p) {
				want = 1
			}
			return n, want, owner
		}
		reported := func(a, b Rect) {
			t.Helper()
			ref := RefPointEps(a, b, eps)
			n, want, owner := owners(ref)
			if n != want {
				t.Fatalf("%s, root %v: pair %v, %v has reference point %v owned by %d cells, want %d", name, root, a, b, ref, n, want)
			}
			if fw := owner.Expand(eps / 2); n == 1 && !(fw.Intersects(a) && fw.Intersects(b)) {
				t.Fatalf("%s, root %v: pair %v, %v is owned by %v, whose fetch window %v misses an object", name, root, a, b, owner, fw)
			}
			pairs += n
		}
		for _, ab := range extra {
			reported(ab[0], ab[1])
		}
		for _, c := range cells {
			mx, my := (c.MinX+c.MaxX)/2, (c.MinY+c.MaxY)/2
			for _, s := range []Point{{c.MinX, c.MinY}, {c.MaxX, c.MinY}, {c.MinX, c.MaxY}, {c.MaxX, c.MaxY},
				{mx, c.MinY}, {mx, c.MaxY}, {c.MinX, my}, {c.MaxX, my}} {
				for _, dx := range []float64{-1, 0, 1} {
					for _, dy := range []float64{-1, 0, 1} {
						p := Pt(math.Nextafter(s.X, s.X+dx), math.Nextafter(s.Y, s.Y+dy))
						if n, want, _ := owners(p); n != want {
							t.Fatalf("%s, root %v: %v is owned by %d cells, want %d", name, root, p, n, want)
						}
						// A float32 point ε/2 up and right of p, with a
						// partner within ε — mostly below and left, so that
						// the point's own corner is the reference point.
						a := Pt(f32(p.X+eps/2), f32(p.Y+eps/2))
						theta := math.Pi + rng.Float64()*math.Pi/2
						if rng.Intn(4) == 0 {
							theta = rng.Float64() * 2 * math.Pi
						}
						rho := rng.Float64() * eps
						b := Pt(f32(a.X+rho*math.Cos(theta)), f32(a.Y+rho*math.Sin(theta)))
						if RectFromPoint(a).WithinDist(RectFromPoint(b), eps) {
							reported(RectFromPoint(a), RectFromPoint(b))
						}
					}
				}
			}
		}
	}
	// A pair straddling the border of two cells is reported by one.
	check("two cells", R(0, 0, 2, 1), []Rect{R(0, 0, 1, 1), R(1, 0, 2, 1)}, 0,
		[2]Rect{R(0.9, 0.4, 1.1, 0.6), R(0.95, 0.45, 1.05, 0.55)})
	for trial := 0; trial < 20; trial++ {
		// Even trials join over the data's bounds, which are float32 like
		// the data; odd ones over a query window of any float64 corners,
		// where the last of Grid's fractions can miss the window's edge.
		snap := f32
		if trial%2 == 1 {
			snap = func(v float64) float64 { return v }
		}
		eps := snap(1 + rng.Float64()*300)
		x, y := snap(rng.Float64()*2e4-1e4), snap(rng.Float64()*2e4-1e4)
		root := R(x, y, snap(x+1+rng.Float64()*1e4), snap(y+1+rng.Float64()*1e4)).Expand(eps / 2)
		check("quadtree", root, quadtree(rng, root, 6), eps)
		for k := 1; k <= 9; k++ {
			check(fmt.Sprintf("grid %d", k), root, root.Grid(k), eps)
		}
	}
	if pairs < 100000 {
		t.Fatalf("only %d owned pairs checked; the test is thin", pairs)
	}
}

// quadtree returns the leaves of a random quadtree over r at most depth
// levels deep; r itself is always split.
func quadtree(rng *rand.Rand, r Rect, depth int) []Rect {
	var leaves []Rect
	for _, q := range r.Quadrants() {
		if depth > 1 && rng.Intn(5) < 2 {
			leaves = append(leaves, quadtree(rng, q, depth-1)...)
		} else {
			leaves = append(leaves, q)
		}
	}
	return leaves
}

// TestDistancesPinnedToMathMax pins WithinDist and DistToPoint, which
// clamp with the builtin max, bit for bit to the math.Max formulation
// they were written in — over every rectangle with corners from a value
// set holding −0, NaN and both infinities, valid or not. The two clamps
// differ on one input only, max(+Inf, NaN) (math.Max answers +Inf, the
// builtin NaN), which on one axis takes a rectangle with inverted or NaN
// extents; those inputs are counted and checked to be exactly that.
func TestDistancesPinnedToMathMax(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{negZero, 0, 1, -2.5, 3e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	var rects []Rect
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals[1:] {
				for _, d := range vals[:7] {
					rects = append(rects, Rect{MinX: a, MinY: b, MaxX: c, MaxY: d})
				}
			}
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	refGaps := func(r, s Rect) (dx, dy float64) {
		return math.Max(0, math.Max(s.MinX-r.MaxX, r.MinX-s.MaxX)), math.Max(0, math.Max(s.MinY-r.MaxY, r.MinY-s.MaxY))
	}
	// ordered is false for inverted or NaN extents.
	ordered := func(r Rect) bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }
	// infNaN reports the one input class on which the clamps differ.
	infNaN := func(u, v float64) bool { return (math.IsInf(u, 1) && v != v) || (math.IsInf(v, 1) && u != u) }
	epss := []float64{0, negZero, 1, 2.5, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(7))
	checked, skipped := 0, 0
	for i := 0; i < 400000; i++ {
		r, s := rects[rng.Intn(len(rects))], rects[rng.Intn(len(rects))]
		if infNaN(s.MinX-r.MaxX, r.MinX-s.MaxX) || infNaN(s.MinY-r.MaxY, r.MinY-s.MaxY) {
			if ordered(r) && ordered(s) {
				t.Fatalf("valid rectangles %v, %v reach max(+Inf, NaN)", r, s)
			}
			skipped++
			continue
		}
		checked++
		dx, dy := refGaps(r, s)
		for _, eps := range epss {
			if got, want := r.WithinDist(s, eps), dx*dx+dy*dy <= eps*eps; got != want {
				t.Fatalf("WithinDist(%v, %v, %v) = %v, math.Max formulation %v", r, s, eps, got, want)
			}
		}
		// DistToPoint is the distance to the degenerate rectangle at p.
		p := Pt(s.MinX, s.MinY)
		if infNaN(r.MinX-p.X, p.X-r.MaxX) || infNaN(r.MinY-p.Y, p.Y-r.MaxY) {
			continue
		}
		pdx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
		pdy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
		if got, want := r.DistToPoint(p), math.Hypot(pdx, pdy); !same(got, want) {
			t.Fatalf("DistToPoint(%v, %v) = %v, math.Max formulation %v", r, p, got, want)
		}
	}
	if checked < 100000 || skipped == 0 {
		t.Fatalf("checked %d pairs, skipped %d: the value set no longer covers both classes", checked, skipped)
	}
}

// TestWithinDistOfPointIsTheOneEpsTest pins the point form of the ε
// predicate to WithinDist against the degenerate rectangle at p, and to
// the squared comparison rather than DistToPoint's rounded square root:
// for the pair below math.Hypot rounds to exactly 75 while dx²+dy²
// exceeds 75², so a layer deciding with DistToPoint(p) <= eps would
// report a pair the device and the oracle reject.
func TestWithinDistOfPointIsTheOneEpsTest(t *testing.T) {
	p := Pt(75.28449185090612, 1534.7570862157847)
	q := RectFromPoint(Pt(150.2546572828652, 1536.872339180489))
	if q.DistToPoint(p) != 75 {
		t.Fatalf("DistToPoint = %v, the example needs Hypot to round to 75", q.DistToPoint(p))
	}
	if q.WithinDistOfPoint(p, 75) || q.WithinDist(RectFromPoint(p), 75) {
		t.Fatal("dx²+dy² > 75²: the pair is not within 75")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		r := R(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		p := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		eps := rng.Float64() * 60
		if got, want := r.WithinDistOfPoint(p, eps), r.WithinDist(RectFromPoint(p), eps); got != want {
			t.Fatalf("WithinDistOfPoint(%v, %v, %v) = %v, WithinDist %v", r, p, eps, got, want)
		}
	}
}

// TestInsideDistOfPointCoversExactly checks the covered-subtree test: a
// rectangle whose farthest corner lies within eps has every rectangle
// inside it within eps by WithinDistOfPoint, ties at exactly eps
// included, and the test fails one ulp below the farthest corner.
func TestInsideDistOfPointCoversExactly(t *testing.T) {
	r := R(2, 2, 5, 6)
	if !r.InsideDistOfPoint(Pt(2, 2), 5) || r.InsideDistOfPoint(Pt(2, 2), math.Nextafter(5, 0)) {
		t.Error("a 3-4-5 farthest corner is covered at 5 and not one ulp below")
	}
	if !r.InsideDistOfPoint(Pt(3, 3), 3.7) || r.InsideDistOfPoint(Pt(3, 3), 3.5) {
		t.Error("the farthest corner (5,6) of (3,3) lies at √13 ≈ 3.61")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		r := R(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		p := Pt(rng.Float64()*140-20, rng.Float64()*140-20)
		dx, dy := max(p.X-r.MinX, r.MaxX-p.X), max(p.Y-r.MinY, r.MaxY-p.Y)
		eps := math.Sqrt(dx*dx + dy*dy)
		for eps*eps < dx*dx+dy*dy {
			eps = math.Nextafter(eps, math.Inf(1))
		}
		if !r.InsideDistOfPoint(p, eps) || r.InsideDistOfPoint(p, math.Nextafter(eps, 0)) {
			t.Fatalf("%v from %v: covered must flip at eps %v", r, p, eps)
		}
		corners := []Rect{
			RectFromPoint(Pt(r.MinX, r.MinY)), RectFromPoint(Pt(r.MaxX, r.MinY)),
			RectFromPoint(Pt(r.MinX, r.MaxY)), RectFromPoint(Pt(r.MaxX, r.MaxY)),
			R(r.MinX+(r.MaxX-r.MinX)*rng.Float64(), r.MinY, r.MaxX, r.MinY+(r.MaxY-r.MinY)*rng.Float64()),
		}
		for _, s := range corners {
			if !s.WithinDistOfPoint(p, eps) {
				t.Fatalf("%v inside covered %v is not within %v of %v", s, r, eps, p)
			}
		}
	}
}
