package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// f32 snaps v to float32, as the wire carries coordinates, so windows
// taken from node MBRs survive encoding exactly.
func f32(v float64) float64 { return float64(float32(v)) }

// packedLayouts returns the property test's inputs: n objects laid out
// uniformly, in tight clusters, and as duplicates of a handful of MBRs.
func packedLayouts(n int, seed int64) map[string][]geom.Object {
	rng := rand.New(rand.NewSource(seed))
	rect := func(x, y, w, h float64) geom.Rect { return geom.R(f32(x), f32(y), f32(x+w), f32(y+h)) }
	uniform := make([]geom.Object, n)
	clustered := make([]geom.Object, n)
	dups := make([]geom.Object, n)
	centres := [][2]float64{{200, 300}, {700, 650}, {420, 900}}
	shapes := []geom.Rect{rect(100, 100, 0, 0), rect(500, 500, 12, 7), rect(500, 500, 12, 7), rect(900, 50, 0, 30)}
	for i := range n {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		w, h := 0.0, 0.0
		if i%3 == 0 {
			w, h = rng.Float64()*15, rng.Float64()*15
		}
		uniform[i] = geom.Object{ID: uint32(i), MBR: rect(x, y, w, h)}
		c := centres[i%len(centres)]
		clustered[i] = geom.Object{ID: uint32(i), MBR: rect(c[0]+rng.NormFloat64()*40, c[1]+rng.NormFloat64()*40, w, h)}
		dups[i] = geom.Object{ID: uint32(i), MBR: shapes[i%len(shapes)]}
	}
	return map[string][]geom.Object{"uniform": uniform, "clustered": clustered, "duplicates": dups}
}

// refWindow and refRange are the recursive reference traversals: depth
// first, children in stored order, every object tested on its own.
func refWindow(nd *node, w geom.Rect, dst []geom.Object) []geom.Object {
	if !nd.mbr.Intersects(w) {
		return dst
	}
	if nd.leaf {
		for _, o := range nd.objects {
			if o.MBR.Intersects(w) {
				dst = append(dst, o)
			}
		}
		return dst
	}
	for _, c := range nd.children {
		dst = refWindow(c, w, dst)
	}
	return dst
}

func refRange(nd *node, p geom.Point, eps float64, dst []geom.Object) []geom.Object {
	if !nd.mbr.WithinDistOfPoint(p, eps) {
		return dst
	}
	if nd.leaf {
		for _, o := range nd.objects {
			if o.MBR.WithinDistOfPoint(p, eps) {
				dst = append(dst, o)
			}
		}
		return dst
	}
	for _, c := range nd.children {
		dst = refRange(c, p, eps, dst)
	}
	return dst
}

type probe struct {
	p   geom.Point
	eps float64
}

// packedQueries returns windows exactly on every node MBR (where the
// closed Contains decides whether a subtree is one span), random
// windows, and ε-probes whose farthest corner of a node MBR lies at
// exactly eps — a 3-4-5 triangle scaled by a power of two, so the tie is
// exact — next to the same probe one ulp short.
func packedQueries(tr *Tree, rng *rand.Rand) ([]geom.Rect, []probe) {
	var windows []geom.Rect
	var probes []probe
	for level := 0; level < tr.Height(); level++ {
		mbrs, err := tr.LevelMBRs(level)
		if err != nil {
			panic(err)
		}
		for _, m := range mbrs {
			windows = append(windows, m)
			k := 1.0
			for 3*k < m.Width() || 4*k < m.Height() {
				k *= 2
			}
			p := geom.Pt(m.MaxX-3*k, m.MaxY-4*k)
			if m.MaxX-p.X != 3*k || m.MaxY-p.Y != 4*k {
				panic(fmt.Sprintf("corner of %v is not exact from %v", m, p))
			}
			probes = append(probes, probe{p, 5 * k}, probe{p, math.Nextafter(5*k, 0)})
		}
	}
	for range 60 {
		windows = append(windows, geom.R(rng.Float64()*1100-50, rng.Float64()*1100-50, rng.Float64()*1100-50, rng.Float64()*1100-50))
		probes = append(probes, probe{geom.Pt(rng.Float64()*1000, rng.Float64()*1000), rng.Float64() * 150})
	}
	return windows, probes
}

// checkSpans asserts that spans are the coalesced form of want: ordered,
// never adjacent, and concatenating to want.
func checkSpans(t *testing.T, tr *Tree, spans []Span, want []geom.Object, q any) {
	t.Helper()
	var got []geom.Object
	for i, sp := range spans {
		if sp.Lo >= sp.Hi || (i > 0 && sp.Lo <= spans[i-1].Hi) {
			t.Fatalf("%v: spans %v are not ordered, non-empty and coalesced", q, spans)
		}
		got = append(got, tr.Objects()[sp.Lo:sp.Hi]...)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v: spans yield %d objects, reference %d", q, len(got), len(want))
	}
}

// TestPackedTreeMatchesReferenceTraversal is the packed tree's property
// test: over every size and layout, each query's objects equal the
// recursive reference traversal in order, not just as a set, the
// aggregates equal their lengths, and the spans concatenate to them.
func TestPackedTreeMatchesReferenceTraversal(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4097} {
		for name, objs := range packedLayouts(n, int64(n)) {
			rng := rand.New(rand.NewSource(int64(n) + 7))
			tr := Bulk(objs)
			if got := tr.Objects(); !equalIDs(idsOf(got), idsOf(objs)) {
				t.Fatalf("n=%d %s: packed array holds %d objects, not the input's", n, name, len(got))
			}
			if n > 0 {
				if got := refWindow(tr.root, tr.Bounds(), nil); !slices.Equal(got, tr.Objects()) {
					t.Fatalf("n=%d %s: Objects() is not in traversal order", n, name)
				}
			}
			windows, probes := packedQueries(tr, rng)
			for _, w := range windows {
				var want []geom.Object
				if n > 0 {
					want = refWindow(tr.root, w, nil)
				}
				if got := tr.Search(w, nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d %s window %v: Search %d objects, reference %d (or order differs)", n, name, w, len(got), len(want))
				}
				if !equalIDs(idsOf(want), bruteSearch(objs, w)) {
					t.Fatalf("n=%d %s window %v: reference disagrees with brute force", n, name, w)
				}
				if got := tr.Count(w); got != len(want) {
					t.Fatalf("n=%d %s window %v: Count %d, want %d", n, name, w, got, len(want))
				}
				checkSpans(t, tr, tr.WindowSpans(w, nil), want, w)
			}
			for _, q := range probes {
				var want []geom.Object
				if n > 0 {
					want = refRange(tr.root, q.p, q.eps, nil)
				}
				if got := tr.SearchDist(q.p, q.eps, nil); !slices.Equal(got, want) {
					t.Fatalf("n=%d %s probe %v: SearchDist %d objects, reference %d (or order differs)", n, name, q, len(got), len(want))
				}
				if got := tr.CountDist(q.p, q.eps); got != len(want) {
					t.Fatalf("n=%d %s probe %v: CountDist %d, want %d", n, name, q, got, len(want))
				}
				checkSpans(t, tr, tr.RangeSpans(q.p, q.eps, nil), want, q)
			}
		}
	}
}
