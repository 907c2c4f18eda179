package shard

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// randomParts fabricates k per-shard object lists with globally unique
// IDs in shuffled arrival order — the shape a scatter gather sees.
func randomParts(rng *rand.Rand, k, perPart int) [][]geom.Object {
	total := k * perPart
	ids := rng.Perm(total)
	parts := make([][]geom.Object, k)
	at := 0
	for i := range parts {
		n := perPart
		if i%3 == 0 && i > 0 {
			n = rng.Intn(perPart + 1) // uneven parts, sometimes empty
		}
		for j := 0; j < n && at < total; j++ {
			id := uint32(ids[at] + 1)
			at++
			parts[i] = append(parts[i], geom.Object{
				ID:  id,
				MBR: geom.R(float64(id), float64(id), float64(id)+1, float64(id)+1),
			})
		}
	}
	return parts
}

// sortObjects puts an object list into ID order, for tests that compare
// answers as sets.
func sortObjects(objs []geom.Object) {
	slices.SortFunc(objs, func(a, b geom.Object) int { return cmp.Compare(a.ID, b.ID) })
}

// sortPairs puts a pair list into (RID, SID) order, for tests that
// compare answers as sets.
func sortPairs(pairs []geom.Pair) {
	slices.SortFunc(pairs, func(a, b geom.Pair) int {
		if a.RID != b.RID {
			return cmp.Compare(a.RID, b.RID)
		}
		return cmp.Compare(a.SID, b.SID)
	})
}

// concatenated is the reference merge: every part's objects, part after
// part, each in its own order.
func concatenated(parts [][]geom.Object) []geom.Object {
	var out []geom.Object
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestMergeObjectsMatchesReference drives the merge against the
// part-order reference over many random shapes: part counts from 0 to
// 16, uneven and empty parts, single contributors. Nothing is reordered
// within or across parts.
func TestMergeObjectsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(17)
		per := rng.Intn(40)
		parts := randomParts(rng, k, per)
		want := concatenated(slicesDeepClone(parts))
		got := MergeObjects(nil, parts)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (k=%d per=%d): merge diverges from reference\n got %v\nwant %v",
				trial, k, per, got, want)
		}
	}
}

func slicesDeepClone(parts [][]geom.Object) [][]geom.Object {
	out := make([][]geom.Object, len(parts))
	for i, p := range parts {
		out[i] = slices.Clone(p)
	}
	return out
}

// TestMergeObjectsAssociative pins the property the aggregation tree
// rests on: merging partial merges equals merging everything at once, so
// any tree shape gathers the exact flat result.
func TestMergeObjectsAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		parts := randomParts(rng, 2+rng.Intn(12), 1+rng.Intn(30))
		flat := MergeObjects(nil, slicesDeepClone(parts))
		// Random two-level tree: contiguous groups of random width,
		// each partially merged, then merged at the "root".
		var partials [][]geom.Object
		rest := slicesDeepClone(parts)
		for len(rest) > 0 {
			w := 1 + rng.Intn(4)
			if w > len(rest) {
				w = len(rest)
			}
			partials = append(partials, MergeObjects(nil, rest[:w]))
			rest = rest[w:]
		}
		tree := MergeObjects(nil, partials)
		if !slices.Equal(tree, flat) {
			t.Fatalf("trial %d: tree-of-merges diverges from flat merge", trial)
		}
	}
}

// TestMergeObjectsAppendsToDst pins the reuse contract: results append
// after dst's existing elements and reuse its capacity.
func TestMergeObjectsAppendsToDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parts := randomParts(rng, 4, 8)
	want := concatenated(slicesDeepClone(parts))
	prefix := geom.Object{ID: 999999}
	dst := append(make([]geom.Object, 0, 64), prefix)
	got := MergeObjects(dst, parts)
	if got[0] != prefix {
		t.Fatalf("merge clobbered dst prefix: %+v", got[0])
	}
	if !slices.Equal(got[1:], want) {
		t.Fatalf("merged tail diverges from reference")
	}
}

// TestMergeObjectsZeroAlloc pins the reuse contract's cost: with a warm
// dst, a merge allocates nothing.
func TestMergeObjectsZeroAlloc(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(17))
	parts := randomParts(rng, 8, 64)
	dst := MergeObjects(nil, parts) // warm dst capacity
	allocs := testing.AllocsPerRun(100, func() {
		dst = MergeObjects(dst[:0], parts)
	})
	if allocs != 0 {
		t.Fatalf("MergeObjects allocates %.1f times per merge, want 0", allocs)
	}
}

// TestListMergesZeroAlloc: with a warm destination, the WINDOW merge
// (the shards' records under one header) and the BUCKET-RANGE merge
// (probe by probe, groups in shard order) allocate nothing, gaps
// included.
func TestListMergesZeroAlloc(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(19))
	parts := randomParts(rng, 8, 64)
	const probes = 24
	windows := make([][]byte, len(parts))
	buckets := make([][]byte, len(parts))
	idx := make([][]int, len(parts))
	for k, p := range parts {
		windows[k] = wire.AppendObjects(nil, p)
		var groups [][]geom.Object
		for i := range probes {
			if (i+k)%3 != 0 {
				idx[k] = append(idx[k], i)
				groups = append(groups, p[:min(len(p), i)])
			}
		}
		buckets[k] = wire.AppendBucketObjects(nil, groups)
	}
	windows[3], buckets[3] = nil, nil // a partial-mode gap
	merges := []struct {
		name  string
		merge func(dst []byte) ([]byte, error)
	}{
		{"window", func(dst []byte) ([]byte, error) { return concat(wire.MsgObjects)(dst, windows) }},
		{"bucket", func(dst []byte) ([]byte, error) { return mergeBucketObjects(dst, buckets, idx, probes) }},
	}
	for _, m := range merges {
		dst, err := m.merge(nil) // warm dst capacity
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			dst, err = m.merge(dst[:0])
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("%s merge allocates %.1f times per merge, want 0", m.name, allocs)
		}
	}
}
