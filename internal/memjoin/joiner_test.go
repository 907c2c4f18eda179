package memjoin

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/testenv"
)

func randObjs(n int, seed int64) []geom.Object {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]geom.Object, n)
	for i := range objs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		objs[i] = geom.Object{ID: uint32(i), MBR: geom.R(x, y, x+rng.Float64()*15, y+rng.Float64()*15)}
	}
	return objs
}

// TestJoinerMatchesNestedLoop checks the CSR-bucketed Joiner against the
// quadratic oracle, reusing one Joiner across many invocations of
// different sizes so stale buckets or stamps would surface.
func TestJoinerMatchesNestedLoop(t *testing.T) {
	j := NewJoiner()
	for i, tc := range []struct {
		nr, ns int
		eps    float64
	}{
		{200, 300, 0}, {300, 200, 25}, {50, 1000, 10}, {1000, 50, 0}, {1, 1, 5}, {400, 400, 60},
	} {
		r := randObjs(tc.nr, int64(100+i))
		s := randObjs(tc.ns, int64(200+i))
		pred := Intersection()
		if tc.eps > 0 {
			pred = WithinDist(tc.eps)
		}
		got := j.GridJoin(r, s, pred, Options{}, nil)
		want := NestedLoop(r, s, pred, Options{}, nil)
		SortPairs(got)
		SortPairs(want)
		if len(got) != len(want) {
			t.Fatalf("case %d: joiner %d pairs, oracle %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("case %d: pair %d: %v vs %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestJoinerEmissionOrderStable pins that the pooled package-level
// GridJoin and an owned Joiner emit identical pair sequences (the order
// the historical map-based implementation produced).
func TestJoinerEmissionOrderStable(t *testing.T) {
	r := randObjs(500, 1)
	s := randObjs(600, 2)
	pred := WithinDist(20)
	a := GridJoin(r, s, pred, Options{}, nil)
	b := NewJoiner().GridJoin(r, s, pred, Options{}, nil)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("emission order diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestJoinerSteadyStateAllocs verifies that repeated joins through the
// pooled GridJoin stop allocating once buffers reach their high-water
// mark (the destination slice is caller-reused here, as HBSJ does).
func TestJoinerSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	r := randObjs(800, 3)
	s := randObjs(800, 4)
	pred := WithinDist(15)
	dst := make([]geom.Pair, 0, 4096)
	for i := 0; i < 4; i++ { // warm the pool
		dst = GridJoin(r, s, pred, Options{}, dst[:0])
	}
	avg := testing.AllocsPerRun(100, func() {
		dst = GridJoin(r, s, pred, Options{}, dst[:0])
	})
	if avg > 0.05 {
		t.Fatalf("pooled GridJoin allocates %v times per join at steady state", avg)
	}
}
