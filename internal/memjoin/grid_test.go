package memjoin

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkGridJoin compares GridJoin with NestedLoop pair for pair — sorted
// but not deduplicated, so a pair emitted twice fails too — and GridCount
// with GridJoin's length, both ways round, so each input serves as build
// side and as probe side whenever the lengths differ, owning the whole
// plane and owning window.
func checkGridJoin(t *testing.T, name string, r, s []geom.Object, pred Pred, window geom.Rect) int {
	t.Helper()
	total := 0
	for _, opt := range []Options{{}, {Window: window}} {
		for _, in := range [][2][]geom.Object{{r, s}, {s, r}} {
			got := GridJoin(in[0], in[1], pred, opt, nil)
			want := NestedLoop(in[0], in[1], pred, opt, nil)
			if n := GridCount(in[0], in[1], pred, opt); n != len(got) {
				t.Fatalf("%s (window %v, |R|=%d, |S|=%d): grid count %d, grid join %d pairs",
					name, opt.Window, len(in[0]), len(in[1]), n, len(got))
			}
			SortPairs(got)
			SortPairs(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (window %v, |R|=%d, |S|=%d): grid join %d pairs, nested loop %d; first difference at %d",
					name, opt.Window, len(in[0]), len(in[1]), len(got), len(want), firstDiff(got, want))
			}
			total += len(want)
		}
	}
	return total
}

// snappedClusters draws n points around k centres on a 1/4-unit lattice
// (exactly representable in float32, like the wire's coordinates), so
// that many pairs sit at exactly a lattice distance such as 5 = |(3,4)|.
func snappedClusters(rng *rand.Rand, n, k int, idBase uint32) []geom.Object {
	centres := make([]geom.Point, k)
	for i := range centres {
		centres[i] = geom.Pt(float64(rng.Intn(400)), float64(rng.Intn(400)))
	}
	objs := make([]geom.Object, n)
	for i := range objs {
		c := centres[i%k]
		x := float64(float32(c.X + math.Round(rng.NormFloat64()*12*4)/4))
		y := float64(float32(c.Y + math.Round(rng.NormFloat64()*12*4)/4))
		objs[i] = geom.PointObject(idBase+uint32(i), geom.Pt(x, y))
	}
	return objs
}

// TestGridJoinPointsAtExactlyEps: the point fast path decides a pair
// straight off the coordinates; pairs at distance exactly ε must come
// out as Pred.Match decides them, whichever cell border lies between.
func TestGridJoinPointsAtExactlyEps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := snappedClusters(rng, 700, 5, 0)
	s := snappedClusters(rng, 500, 5, 100000)
	// S shares R's centres only by chance; plant copies so clusters overlap.
	for i := 0; i < 300; i++ {
		o := r[rng.Intn(len(r))]
		s = append(s, geom.PointObject(200000+uint32(i), geom.Pt(o.MBR.MinX+3, o.MBR.MinY-4)))
	}
	window := geom.R(-100, -100, 600, 600)
	at := make(map[uint32]geom.Object)
	for _, o := range append(r, s...) {
		at[o.ID] = o
	}
	for _, eps := range []float64{5, 1.25, 13, 0.25} {
		exact := 0
		for _, a := range r {
			for _, b := range s {
				dx, dy := a.MBR.MinX-b.MBR.MinX, a.MBR.MinY-b.MBR.MinY
				if dx*dx+dy*dy == eps*eps {
					exact++
				}
			}
		}
		if exact == 0 {
			t.Fatalf("eps=%v: no pair at exactly ε; the test is vacuous", eps)
		}
		if n := checkGridJoin(t, "snapped clusters", r, s, WithinDist(eps), window); n == 0 {
			t.Fatalf("eps=%v: no result pairs", eps)
		}
		// Windows spanned by the reference points of two result pairs:
		// reference points land exactly on every edge, and probes
		// straddle each one.
		pairs := NestedLoop(r, s, WithinDist(eps), Options{}, nil)
		ref := func(p geom.Pair) geom.Point {
			a, b := at[p.RID].MBR, at[p.SID].MBR
			return geom.Pt(max(a.MinX, b.MinX)-eps/2, max(a.MinY, b.MinY)-eps/2)
		}
		for k := 0; k < 8; k++ {
			p, q := ref(pairs[rng.Intn(len(pairs))]), ref(pairs[rng.Intn(len(pairs))])
			checkGridJoin(t, "snapped clusters, window spanned by reference points", r, s, WithinDist(eps), geom.R(p.X, p.Y, q.X, q.Y))
		}
	}
	// Coincident points under the intersection predicate take the
	// point-build path without the direct distance test.
	checkGridJoin(t, "snapped clusters, intersection", r, append(s, r[:50]...), Intersection(), window)
	// A pair at exactly ε whose expansions by ε/2 miss each other once
	// rounded still has a reference point, here on the window's lower
	// edge: the direct loop (whole plane) and the reference-point test
	// (the window) both report it.
	eps := 285.2484959329214
	a := geom.PointObject(1, geom.Pt(184.04037976305605, 0))
	b := geom.PointObject(2, geom.Pt(469.2888756959775, 0))
	if n := checkGridJoin(t, "pair at exactly ε, expansions apart", []geom.Object{a}, []geom.Object{b}, WithinDist(eps), geom.R(0, -eps/2, 400, 0)); n != 4 {
		t.Fatalf("pair at exactly ε, expansions apart: %d pairs over both windows and both sides, want 4", n)
	}
}

// TestGridJoinExtents covers build sides with extents: rectangles
// narrower than ε, wider than ε, and wider than a cell (replicated, so
// the stamp pass runs), joined with points and with each other.
func TestGridJoinExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rects := func(n int, maxSide float64, idBase uint32) []geom.Object {
		objs := make([]geom.Object, n)
		for i := range objs {
			x, y := rng.Float64()*300, rng.Float64()*300
			objs[i] = geom.Object{ID: idBase + uint32(i), MBR: geom.R(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide)}
		}
		return objs
	}
	window := geom.R(0, 0, 200, 200)
	pts := snappedClusters(rng, 400, 4, 500000)
	for _, tc := range []struct {
		name string
		r, s []geom.Object
		eps  float64
	}{
		{"small rects, eps 10", rects(300, 3, 0), rects(250, 3, 10000), 10},
		{"rects wider than eps", rects(300, 40, 0), rects(350, 40, 10000), 4},
		{"rects wider than a cell, intersection", rects(200, 120, 0), rects(400, 2, 10000), 0},
		{"a few world-sized rects among small ones", append(rects(5, 3000, 0), rects(300, 2, 100)...), rects(280, 2, 10000), 6},
		{"rect build, point probe", rects(150, 30, 0), pts, 8},
		{"point build, rect probe", pts[:120], rects(300, 30, 10000), 8},
		{"point build, rect probe, intersection", pts[:120], rects(300, 60, 10000), 0},
	} {
		pred := Intersection()
		if tc.eps > 0 {
			pred = WithinDist(tc.eps)
		}
		if n := checkGridJoin(t, tc.name, tc.r, tc.s, pred, window); n == 0 {
			t.Fatalf("%s: no result pairs; the case is vacuous", tc.name)
		}
	}
}

// TestGridJoinDegenerateExtents: a build side on one vertical or
// horizontal line, or at a single location, gets a one-column, one-row
// or one-cell grid instead of a fallback.
func TestGridJoinDegenerateExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	line := func(n int, vertical bool, idBase uint32) []geom.Object {
		objs := make([]geom.Object, n)
		for i := range objs {
			p := geom.Pt(float64(rng.Intn(2000))/4, 50)
			if vertical {
				p = geom.Pt(50, p.X)
			}
			objs[i] = geom.PointObject(idBase+uint32(i), p)
		}
		return objs
	}
	segments := func(n int, idBase uint32) []geom.Object { // zero-width rectangles on x = 50
		objs := make([]geom.Object, n)
		for i := range objs {
			y := rng.Float64() * 500
			objs[i] = geom.Object{ID: idBase + uint32(i), MBR: geom.R(50, y, 50, y+rng.Float64()*30)}
		}
		return objs
	}
	same := make([]geom.Object, 40)
	for i := range same {
		same[i] = geom.PointObject(uint32(900+i), geom.Pt(50, 50))
	}
	cloud := snappedClusters(rng, 600, 3, 50000)
	for i := range cloud[:200] { // bring part of the cloud next to the lines
		cloud[i].MBR = geom.RectFromPoint(geom.Pt(50+float64(rng.Intn(40)-20)/4, float64(rng.Intn(2000))/4))
	}
	window := geom.R(0, 0, 300, 300)
	for _, tc := range []struct {
		name  string
		build []geom.Object
	}{
		{"horizontal line", line(300, false, 0)},
		{"vertical line", line(300, true, 0)},
		{"zero-width rectangles", segments(200, 0)},
		{"single location", same},
		{"single object", same[:1]},
	} {
		for _, eps := range []float64{0, 2.5, 40} {
			pred := Intersection()
			if eps > 0 {
				pred = WithinDist(eps)
			}
			n := checkGridJoin(t, tc.name, tc.build, cloud, pred, window)
			n += checkGridJoin(t, tc.name+" with itself", tc.build, tc.build, pred, window)
			if n == 0 {
				t.Fatalf("%s, eps=%v: no result pairs", tc.name, eps)
			}
		}
	}
}

// TestGridJoinOddCoordinates: NaN and infinite coordinates match nothing
// under Pred.Match and must not disturb the grid (every index clamps).
func TestGridJoinOddCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	r := snappedClusters(rng, 200, 2, 0)
	s := snappedClusters(rng, 260, 2, 10000)
	nan, inf := math.NaN(), math.Inf(1)
	r = append(r, geom.PointObject(7001, geom.Pt(nan, 10)), geom.PointObject(7002, geom.Pt(inf, -inf)),
		geom.Object{ID: 7003, MBR: geom.Rect{MinX: 10, MinY: nan, MaxX: 20, MaxY: nan}})
	s = append(s, geom.PointObject(17001, geom.Pt(10, nan)), geom.PointObject(17002, geom.Pt(-inf, 5)))
	for _, eps := range []float64{0, 6} {
		pred := Intersection()
		if eps > 0 {
			pred = WithinDist(eps)
		}
		checkGridJoin(t, "odd coordinates", r, s, pred, geom.R(-1000, -1000, 1000, 1000))
		checkGridJoin(t, "odd coordinates, point build", r[:200], s, pred, geom.R(-1000, -1000, 1000, 1000))
	}
}

// TestGridStaysLinear pins the sizing rule's memory bound: whatever the
// extents and ε, the grid holds at most 2·cellsPerObject·n+1 cells and
// entriesPerObject·n bucket entries for a build side of n objects.
func TestGridStaysLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	mk := func(n int, w, h, side float64) []geom.Object {
		objs := make([]geom.Object, n)
		for i := range objs {
			x, y := rng.Float64()*w, rng.Float64()*h
			objs[i] = geom.Object{ID: uint32(i), MBR: geom.R(x, y, x+rng.Float64()*side, y+rng.Float64()*side)}
		}
		return objs
	}
	probe := mk(2000, 1000, 1000, 0)
	for _, tc := range []struct {
		name  string
		build []geom.Object
		eps   float64
	}{
		{"points, tiny eps", mk(500, 1000, 1000, 0), 1e-6},
		{"points, intersection", mk(500, 1000, 1000, 0), 0},
		{"points on a sliver", mk(500, 1e6, 1e-3, 0), 1e-4},
		{"huge rects, tiny eps", mk(300, 1000, 1000, 900), 1e-3},
		{"mixed sizes", append(mk(20, 1000, 1000, 1000), mk(480, 1000, 1000, 1)...), 0.5},
	} {
		j := NewJoiner()
		pred := Intersection()
		if tc.eps > 0 {
			pred = WithinDist(tc.eps)
		}
		j.GridJoin(tc.build, probe, pred, Options{}, nil)
		n := len(tc.build)
		if cells := len(j.cellStart) - 2; cells > 2*cellsPerObject*n+1 {
			t.Errorf("%s: %d cells for %d build objects", tc.name, cells, n)
		}
		if len(j.items) > entriesPerObject*n || len(j.points) > n {
			t.Errorf("%s: %d entries, %d points for %d build objects", tc.name, len(j.items), len(j.points), n)
		}
	}
}

// TestGridJoinRoundingAcrossCellBorder is the case cellSlack exists for.
// The build point b and the probe point p are at distance exactly ε as
// the predicate computes it (p.x−b.x rounds to ε), yet p.x−ε rounds to
// just above b.x, and a cell border lies between the two: without the
// slack the probe's range starts one column to the right of b's cell.
func TestGridJoinRoundingAcrossCellBorder(t *testing.T) {
	const (
		eps  = 86.70360972460193
		minX = -49.164309765216466
		bx   = 37.53929995938545
		px   = 124.24290968398739
	)
	build := []geom.Object{
		geom.PointObject(1, geom.Pt(minX, 0)),
		geom.PointObject(2, geom.Pt(bx, 0)),
		geom.PointObject(3, geom.Pt(minX+5*eps, 0)), // six ε-wide columns
	}
	probe := []geom.Object{
		geom.PointObject(10, geom.Pt(px, 0)),
		geom.PointObject(11, geom.Pt(1e6, 0)), geom.PointObject(12, geom.Pt(2e6, 0)), geom.PointObject(13, geom.Pt(3e6, 0)),
	}
	pred := WithinDist(eps)
	if !pred.Match(build[1].MBR, probe[0].MBR) {
		t.Fatal("the pair no longer matches; the case is vacuous")
	}
	g := newGrid(geom.R(minX, 0, minX+5*eps, 0), len(build), eps)
	bcol, _, _, _ := g.cover(&build[1].MBR)
	if naive := cell((px-eps-g.minX)*g.inv, g.kx); naive <= bcol {
		t.Fatalf("unslacked range starts at column %d, b is in %d; the case is vacuous", naive, bcol)
	}
	got := GridJoin(build, probe, pred, Options{}, nil)
	want := NestedLoop(build, probe, pred, Options{}, nil)
	SortPairs(got)
	SortPairs(want)
	if !slices.Equal(got, want) {
		t.Fatalf("grid join %v, nested loop %v", got, want)
	}
}

// FuzzGridCountMatchesGridJoin: GridCount is GridJoin without the pair
// list, so it must count exactly the pairs GridJoin writes. Each three
// bytes of data are one object on an integer lattice, where pairs at
// exactly ε (3-4-5 triangles) are common; with extents set, a third of
// them get a width and a height. Objects alternate between the sides, so
// either may be the build side, and every join runs both ways round,
// owning the whole plane and owning a 16 × 16 window that cuts the data —
// which puts some probes inside Pred.interior and others outside it.
func FuzzGridCountMatchesGridJoin(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 4, 0, 6, 8, 0, 9, 12, 0, 20, 20, 0, 23, 24, 0}, uint8(3), false, uint8(0x33))
	f.Add([]byte{1, 2, 5, 4, 6, 9, 10, 11, 1, 12, 15, 30, 17, 18, 7, 29, 30, 13}, uint8(0), true, uint8(0x55))
	f.Add([]byte{5, 5, 0, 5, 10, 0, 8, 9, 0, 16, 16, 0, 16, 21, 0, 31, 0, 0}, uint8(1), true, uint8(0xa1))
	epss := []float64{0, 1, 2.5, 5, 13}
	f.Fuzz(func(t *testing.T, data []byte, epsSel uint8, extents bool, cut uint8) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		var r, s []geom.Object
		for i := 0; i+3 <= len(data); i += 3 {
			x, y, shape := float64(data[i]%32), float64(data[i+1]%32), data[i+2]
			o := geom.PointObject(uint32(i/3), geom.Pt(x, y))
			if extents && shape%3 == 0 {
				o.MBR = geom.R(x, y, x+float64(shape>>2&3), y+float64(shape>>4&3))
			}
			if i/3%2 == 0 {
				r = append(r, o)
			} else {
				s = append(s, o)
			}
		}
		pred := WithinDist(epss[int(epsSel)%len(epss)])
		x0, y0 := float64(cut&15), float64(cut>>4)
		for _, opt := range []Options{{}, {Window: geom.R(x0, y0, x0+16, y0+16)}} {
			for _, in := range [][2][]geom.Object{{r, s}, {s, r}} {
				want := len(GridJoin(in[0], in[1], pred, opt, nil))
				if got := GridCount(in[0], in[1], pred, opt); got != want {
					t.Fatalf("ε %v, window %v, |R|=%d, |S|=%d: grid count %d, grid join %d pairs",
						pred.Eps, opt.Window, len(in[0]), len(in[1]), got, want)
				}
			}
		}
	})
}
