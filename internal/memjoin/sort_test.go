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
	for _, n := range []int{32, 64, 1000, 50000} {
		rng := rand.New(rand.NewSource(11))
		src := make([]geom.Pair, n)
		for i := range src {
			src[i] = geom.Pair{RID: uint32(rng.Intn(12000)), SID: uint32(rng.Intn(12000))}
		}
		buf := make([]geom.Pair, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				SortPairs(buf)
			}
		})
	}
}
