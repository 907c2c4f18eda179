package shard

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// randomObjects generates a mixed point/rectangle dataset inside bounds.
func randomObjects(rng *rand.Rand, n int, bounds geom.Rect) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		x := bounds.MinX + rng.Float64()*bounds.Width()
		y := bounds.MinY + rng.Float64()*bounds.Height()
		if rng.Intn(2) == 0 {
			objs[i] = geom.PointObject(uint32(i), geom.Pt(x, y))
		} else {
			objs[i] = geom.Object{
				ID:  uint32(i),
				MBR: geom.R(x, y, x+rng.Float64()*40, y+rng.Float64()*40),
			}
		}
	}
	return objs
}

// TestAssignExactlyOneShard is the assignment's core property: over many
// random datasets and shard counts, every object lands on exactly one
// shard — the partitions are disjoint and their union is the dataset.
// This is what makes per-shard COUNT answers disjoint, and so COUNT-sum
// exact.
func TestAssignExactlyOneShard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := geom.R(0, 0, 10000, 10000)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		size := rng.Intn(400)
		objs := randomObjects(rng, size, bounds)
		parts := Assign(objs, n)
		if len(parts) != n {
			t.Fatalf("trial %d: Assign returned %d partitions, want %d", trial, len(parts), n)
		}
		seen := make(map[uint32]int)
		total := 0
		for si, part := range parts {
			total += len(part)
			for _, o := range part {
				if prev, dup := seen[o.ID]; dup {
					t.Fatalf("trial %d: object %d on shards %d and %d", trial, o.ID, prev, si)
				}
				seen[o.ID] = si
			}
		}
		if total != len(objs) {
			t.Fatalf("trial %d: %d objects across shards, dataset has %d", trial, total, len(objs))
		}
		for _, o := range objs {
			if _, ok := seen[o.ID]; !ok {
				t.Fatalf("trial %d: object %d assigned to no shard", trial, o.ID)
			}
		}
	}
}

// TestAssignIsDeterministic: assignment is a pure function of (objs, n) —
// shard servers and the router must agree on the partitioning without
// coordination.
func TestAssignIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	objs := randomObjects(rng, 300, geom.R(0, 0, 10000, 10000))
	for _, n := range []int{1, 2, 3, 4, 7} {
		a, b := Assign(objs, n), Assign(objs, n)
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("n=%d: shard %d sized %d then %d", n, i, len(a[i]), len(b[i]))
			}
			for k := range a[i] {
				if a[i][k].ID != b[i][k].ID {
					t.Fatalf("n=%d: shard %d object %d differs between runs", n, i, k)
				}
			}
		}
	}
}

// assignInputs are the layouts the balance and k-d properties are checked
// over: the easy case, the case the paper is about, and the degenerate
// ones where a cut axis has no extent.
func assignInputs(size int) map[string][]geom.Object {
	rng := rand.New(rand.NewSource(3))
	world := geom.R(0, 0, 10000, 10000)
	collinear := make([]geom.Object, size)
	coincident := make([]geom.Object, size)
	for i := range collinear {
		// Many equal x values too, so cuts land inside runs of ties.
		collinear[i] = geom.PointObject(uint32(i), geom.Pt(float64(rng.Intn(20))*100, 4200))
		coincident[i] = geom.PointObject(uint32(i), geom.Pt(42, 42))
	}
	return map[string][]geom.Object{
		"random":     randomObjects(rng, size, world),
		"clustered":  dataset.GaussianClusters(size, 8, 250, world, 3),
		"collinear":  collinear,
		"coincident": coincident,
	}
}

var assignShardCounts = []int{1, 2, 3, 4, 7, 13, 16, 64}

// centerBounds is the MBR of the objects' centres — the frame Assign
// cuts in.
func centerBounds(objs []geom.Object) geom.Rect {
	b := geom.RectFromPoint(objs[0].MBR.Center())
	for _, o := range objs[1:] {
		b = b.Union(geom.RectFromPoint(o.MBR.Center()))
	}
	return b
}

// TestAssignBalancedAndOrdered: whatever the layout — clustered,
// collinear, every centre coincident — and for every n, primes included,
// shard sizes differ by at most one (so a dataset smaller than n leaves
// only the surplus shards empty), and each shard lists its objects in
// input order, as shard replies are expected to be.
func TestAssignBalancedAndOrdered(t *testing.T) {
	for _, size := range []int{5, 500} {
		for name, objs := range assignInputs(size) {
			for _, n := range assignShardCounts {
				parts := Assign(objs, n)
				lo, hi := len(objs)/n, (len(objs)+n-1)/n
				for i, part := range parts {
					if len(part) < lo || len(part) > hi {
						t.Errorf("%s size=%d n=%d: shard %d holds %d objects, want %d..%d", name, size, n, i, len(part), lo, hi)
					}
					// Inputs carry their position as ID.
					for k := 1; k < len(part); k++ {
						if part[k-1].ID >= part[k].ID {
							t.Fatalf("%s size=%d n=%d: shard %d reorders its input (%d before %d)", name, size, n, i, part[k-1].ID, part[k].ID)
						}
					}
				}
			}
		}
	}
}

// TestAssignIgnoresInputOrder: the assignment is a function of the
// object *set* — two processes that loaded the same relation in
// different orders still agree on who owns what.
func TestAssignIgnoresInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, objs := range assignInputs(300) {
		shuffled := append([]geom.Object(nil), objs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, n := range assignShardCounts {
			owner := make(map[uint32]int, len(objs))
			for i, part := range Assign(objs, n) {
				for _, o := range part {
					owner[o.ID] = i
				}
			}
			for i, part := range Assign(shuffled, n) {
				for _, o := range part {
					if owner[o.ID] != i {
						t.Fatalf("%s n=%d: object %d on shard %d, on shard %d after shuffling the input", name, n, o.ID, owner[o.ID], i)
					}
				}
			}
		}
	}
}

// TestAssignBlocksAreKDCells: for a power-of-two n, every aligned block
// of 2^k consecutive shards is one k-d cell — its centre bounds and its
// sibling block's are separated along the cut axis (touching at most on
// the cut coordinate, where ties are broken by ID). NewTree groups
// consecutive leaves under one interior node, so this is the property
// that gives interior nodes compact bounds to prune on.
func TestAssignBlocksAreKDCells(t *testing.T) {
	for name, objs := range assignInputs(512) {
		for _, n := range []int{2, 4, 16, 64} {
			parts := Assign(objs, n)
			for block := 1; block < n; block *= 2 {
				for first := 0; first < n; first += 2 * block {
					var left, right []geom.Object
					for i := 0; i < block; i++ {
						left = append(left, parts[first+i]...)
						right = append(right, parts[first+block+i]...)
					}
					l, r := centerBounds(left), centerBounds(right)
					if l.MaxX > r.MinX && l.MaxY > r.MinY {
						t.Errorf("%s n=%d: shards %d..%d (%v) and %d..%d (%v) are not split by one cut",
							name, n, first, first+block-1, l, first+block, first+2*block-1, r)
					}
				}
			}
		}
	}
}

// TestBoundaryObjectsLandOnExactlyOneShard pins the tie rule: centres
// that share a cut coordinate — here a cross whose arms both sit on the
// median — go to one side of the cut by ID, never to both or neither.
func TestBoundaryObjectsLandOnExactlyOneShard(t *testing.T) {
	var objs []geom.Object
	for i, p := range []geom.Point{
		{X: 50, Y: 10}, {X: 50, Y: 50}, {X: 50, Y: 90},
		{X: 10, Y: 50}, {X: 90, Y: 50},
		{X: 0, Y: 0}, {X: 100, Y: 100}, {X: 0, Y: 100}, {X: 100, Y: 0},
	} {
		objs = append(objs, geom.PointObject(uint32(i), p))
	}
	seen := make(map[uint32]bool)
	for _, part := range Assign(objs, 4) {
		for _, o := range part {
			if seen[o.ID] {
				t.Fatalf("boundary object %d assigned twice", o.ID)
			}
			seen[o.ID] = true
		}
	}
	if len(seen) != len(objs) {
		t.Fatalf("%d of %d boundary objects assigned", len(seen), len(objs))
	}
}

// TestCountSumEqualsUnsharded is the COUNT-merge exactness property: for
// 1000 random windows, the sum of per-shard intersection counts equals
// the unsharded count — the invariant that makes the router's summed
// COUNT answers (and every pruning decision derived from them) exact.
func TestCountSumEqualsUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bounds := geom.R(0, 0, 10000, 10000)
	objs := randomObjects(rng, 500, bounds)
	count := func(objs []geom.Object, w geom.Rect) int {
		n := 0
		for _, o := range objs {
			if o.MBR.Intersects(w) {
				n++
			}
		}
		return n
	}
	for _, n := range []int{1, 2, 3, 4, 8} {
		parts := Assign(objs, n)
		for trial := 0; trial < 1000; trial++ {
			x := bounds.MinX + rng.Float64()*bounds.Width()
			y := bounds.MinY + rng.Float64()*bounds.Height()
			w := geom.R(x, y, x+rng.Float64()*3000, y+rng.Float64()*3000)
			sum := 0
			for _, part := range parts {
				sum += count(part, w)
			}
			if want := count(objs, w); sum != want {
				t.Fatalf("n=%d window %v: shard count-sum %d, unsharded %d", n, w, sum, want)
			}
		}
	}
}
