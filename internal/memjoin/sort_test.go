package memjoin

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/testenv"
)

// referenceDedup is the comparison sort DedupPairs replaced.
func referenceDedup(ps []geom.Pair) []geom.Pair {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b geom.Pair) int {
		if c := cmp.Compare(a.RID, b.RID); c != 0 {
			return c
		}
		return cmp.Compare(a.SID, b.SID)
	})
	return slices.Compact(out)
}

// TestDedupPairsMatchesComparisonSort runs the radix sort against
// slices.SortFunc + slices.Compact: lengths on both sides of the
// small-input fallback, id ranges that need one to four byte passes per
// side (different ranges on the two sides, so skipped passes differ), and
// the input orders with their own code paths.
func TestDedupPairsMatchesComparisonSort(t *testing.T) {
	lengths := []int{0, 1, 2, 3, radixMin - 1, radixMin, radixMin + 1, 2*radixMin + 7, 1000, 20000}
	limits := []uint32{1 << 8, 1 << 16, 1 << 24, math.MaxUint32}
	shapes := map[string]func(ps []geom.Pair, rng *rand.Rand){
		"shuffled": func(ps []geom.Pair, rng *rand.Rand) {},
		"quarter duplicates": func(ps []geom.Pair, rng *rand.Rand) {
			for i := max(1, len(ps)*3/4); i < len(ps); i++ {
				ps[i] = ps[rng.Intn(i)]
			}
		},
		"all duplicates": func(ps []geom.Pair, rng *rand.Rand) {
			for i := range ps {
				ps[i] = ps[0]
			}
		},
		"sorted": func(ps []geom.Pair, rng *rand.Rand) { SortPairs(ps) },
		"reverse sorted": func(ps []geom.Pair, rng *rand.Rand) {
			SortPairs(ps)
			slices.Reverse(ps)
		},
		"one inversion at the end": func(ps []geom.Pair, rng *rand.Rand) {
			SortPairs(ps)
			if n := len(ps); n > 1 {
				ps[n-1], ps[n-2] = ps[n-2], ps[n-1]
			}
		},
	}
	draw := func(rng *rand.Rand, limit uint32) uint32 {
		if limit == math.MaxUint32 {
			// Top byte in use, and the extreme ids themselves present.
			switch rng.Intn(8) {
			case 0:
				return math.MaxUint32
			case 1:
				return 0
			}
			return rng.Uint32()
		}
		return uint32(rng.Int63n(int64(limit)))
	}
	for name, shape := range shapes {
		for _, n := range lengths {
			for li, limR := range limits {
				limS := limits[(li+1)%len(limits)]
				rng := rand.New(rand.NewSource(int64(n)*31 + int64(li)))
				ps := make([]geom.Pair, n)
				for i := range ps {
					ps[i] = geom.Pair{RID: draw(rng, limR), SID: draw(rng, limS)}
				}
				if n > 0 {
					shape(ps, rng)
				}
				want := referenceDedup(ps)
				got := DedupPairs(ps)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, n=%d, RID<%d, SID<%d: %d pairs, want %d; first difference at %d",
						name, n, limR, limS, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []geom.Pair) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSortPairsVaryingWidths is SortPairs' property test: the RID and
// SID vary in independently drawn widths of 0 to 32 bits, and every bit
// above a field's varying width is constant but set, so a digit that
// reached past the varying bits would count the constant ones too. Sizes
// straddle radixMin and the digit-width steps up to 10⁵; already sorted
// and all-equal inputs take their own exits.
func TestSortPairsVaryingWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	field := func(w int) func() uint32 {
		low := uint32(1<<w - 1)             // w = 32: all bits vary
		high := ^low &^ (rng.Uint32() >> 1) // constant, the top bit set
		return func() uint32 { return high | rng.Uint32()&low }
	}
	sizes := []int{radixMin - 1, radixMin, radixMin + 1, 511, 512, 1 << 12, 1<<14 + 3, 1 << 16, 100000}
	for trial := range 60 {
		n := sizes[trial%len(sizes)]
		wr, ws := rng.Intn(33), rng.Intn(33)
		rid, sid := field(wr), field(ws)
		ps := make([]geom.Pair, n)
		for i := range ps {
			ps[i] = geom.Pair{RID: rid(), SID: sid()}
		}
		switch trial % 6 {
		case 4:
			slices.SortFunc(ps, func(a, b geom.Pair) int { return cmp.Compare(key(a), key(b)) })
		case 5:
			for i := range ps {
				ps[i] = ps[0]
			}
		}
		want := slices.Clone(ps)
		slices.SortFunc(want, func(a, b geom.Pair) int { return cmp.Compare(key(a), key(b)) })
		SortPairs(ps)
		if !slices.Equal(ps, want) {
			t.Fatalf("trial %d, n=%d, RID width %d, SID width %d: differs from the comparison sort at %d",
				trial, n, wr, ws, firstDiff(ps, want))
		}
	}
}

// TestSortPairsKeepsDuplicates: sorting alone must not drop anything.
func TestSortPairsKeepsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := make([]geom.Pair, 5000)
	for i := range ps {
		ps[i] = geom.Pair{RID: uint32(rng.Intn(40)), SID: uint32(rng.Intn(40))}
	}
	want := slices.Clone(ps)
	slices.SortFunc(want, func(a, b geom.Pair) int { return cmp.Compare(key(a), key(b)) })
	SortPairs(ps)
	if !slices.Equal(ps, want) {
		t.Fatalf("SortPairs differs from the comparison sort at %d", firstDiff(ps, want))
	}
}

// TestDedupPairsSteadyStateAllocs is TestJoinerSteadyStateAllocs for
// result assembly: once the pooled scratch has reached the input's size,
// sorting allocates nothing.
func TestDedupPairsSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(10))
	src := make([]geom.Pair, 20000)
	for i := range src {
		src[i] = geom.Pair{RID: uint32(rng.Intn(3000)), SID: uint32(rng.Intn(1 << 20))}
	}
	buf := make([]geom.Pair, len(src))
	run := func() {
		copy(buf, src)
		DedupPairs(buf)
	}
	for i := 0; i < 4; i++ { // warm the pool
		run()
	}
	if avg := testing.AllocsPerRun(50, run); avg > 0.05 {
		t.Fatalf("DedupPairs allocates %v times per call at steady state", avg)
	}
}

func BenchmarkSortPairs(b *testing.B) {
	bench := func(name string, src []geom.Pair) {
		buf := make([]geom.Pair, len(src))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				SortPairs(buf)
			}
		})
	}
	for _, n := range []int{32, 64, 1000, 50000} {
		rng := rand.New(rand.NewSource(11))
		src := make([]geom.Pair, n)
		for i := range src {
			src[i] = geom.Pair{RID: uint32(rng.Intn(12000)), SID: uint32(rng.Intn(12000))}
		}
		bench(fmt.Sprint(n), src)
	}
	// The list result assembly really sorts on the device-bulk workload:
	// GridJoin's output, grouped by probe object, not uniformly shuffled.
	bench("clustered", GridJoin(clusteredPoints(1), clusteredPoints(2), WithinDist(75), Options{}, nil))
}

// clusteredPoints restates the device-bulk relations (benchmark/workload.go,
// bench.ledgerClusters): 12000 points round-robin around eight fixed
// centres — seed 1 the R layout, 2 the S layout — N(0, 250²) spread,
// snapped to float32.
func clusteredPoints(seed int64) []geom.Object {
	centres := [][]geom.Point{1: {
		{X: 1800, Y: 2100}, {X: 7600, Y: 1500}, {X: 4700, Y: 5200}, {X: 1500, Y: 7900},
		{X: 8300, Y: 8200}, {X: 6100, Y: 3400}, {X: 3300, Y: 3900}, {X: 5600, Y: 8800},
	}, 2: {
		{X: 1568, Y: 1851}, {X: 7962, Y: 1049}, {X: 3999, Y: 4653}, {X: 2900, Y: 6500},
		{X: 8800, Y: 5600}, {X: 6500, Y: 6900}, {X: 3600, Y: 900}, {X: 400, Y: 4700},
	}}[seed]
	rng := rand.New(rand.NewSource(seed))
	coord := func(c float64) float64 { return float64(float32(min(max(c+rng.NormFloat64()*250, 0), 10000))) }
	objs := make([]geom.Object, 12000)
	for i := range objs {
		c := centres[i%len(centres)]
		objs[i] = geom.PointObject(uint32(i), geom.Pt(coord(c.X), coord(c.Y)))
	}
	return objs
}
