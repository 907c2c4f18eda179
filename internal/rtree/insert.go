package rtree

import "repro/internal/geom"

// Insert adds one object to the tree, growing it with Guttman's
// least-enlargement descent and quadratic node splitting. Aggregate
// counts along the insertion path are maintained incrementally; the
// packed array is rebuilt, so an insert costs O(n).
func (t *Tree) Insert(o geom.Object) {
	defer t.pack()
	if t.root == nil {
		t.root = &node{leaf: true, objects: []geom.Object{o}}
		t.root.recompute()
		t.height = 1
		return
	}
	split := insertInto(t.root, o)
	if split != nil {
		// Root split: grow the tree by one level.
		newRoot := &node{children: []*node{t.root, split}}
		newRoot.recompute()
		t.root = newRoot
		t.height++
	}
}

// insertInto descends to a leaf, inserts, and returns a new sibling node
// if nd was split (nil otherwise). nd's mbr and count are updated.
func insertInto(nd *node, o geom.Object) *node {
	if nd.leaf {
		nd.objects = append(nd.objects, o)
		if len(nd.objects) > MaxEntries {
			return splitLeaf(nd)
		}
		nd.mbr = nd.mbr.Union(o.MBR)
		nd.count++
		return nil
	}
	best := chooseSubtree(nd, o.MBR)
	split := insertInto(best, o)
	if split != nil {
		nd.children = append(nd.children, split)
		if len(nd.children) > MaxEntries {
			return splitInternal(nd)
		}
	}
	nd.recompute()
	return nil
}

// chooseSubtree picks the child whose MBR needs the least enlargement to
// include r, breaking ties by smaller area.
func chooseSubtree(nd *node, r geom.Rect) *node {
	var best *node
	bestEnlarge, bestArea := 0.0, 0.0
	for _, c := range nd.children {
		area := c.mbr.Area()
		enlarged := c.mbr.Union(r).Area() - area
		if best == nil || enlarged < bestEnlarge ||
			(enlarged == bestEnlarge && area < bestArea) {
			best, bestEnlarge, bestArea = c, enlarged, area
		}
	}
	return best
}

// splitLeaf splits an overfull leaf with the quadratic method and returns
// the new sibling. Both nodes are recomputed.
func splitLeaf(nd *node) *node {
	rects := make([]geom.Rect, len(nd.objects))
	for i, o := range nd.objects {
		rects[i] = o.MBR
	}
	aIdx, bIdx := quadraticSeeds(rects)
	groupA, groupB := assignGroups(rects, aIdx, bIdx)

	objs := nd.objects
	nd.objects = pickObjects(objs, groupA)
	sib := &node{leaf: true, objects: pickObjects(objs, groupB)}
	nd.recompute()
	sib.recompute()
	return sib
}

// splitInternal splits an overfull internal node.
func splitInternal(nd *node) *node {
	rects := make([]geom.Rect, len(nd.children))
	for i, c := range nd.children {
		rects[i] = c.mbr
	}
	aIdx, bIdx := quadraticSeeds(rects)
	groupA, groupB := assignGroups(rects, aIdx, bIdx)

	kids := nd.children
	nd.children = pickNodes(kids, groupA)
	sib := &node{children: pickNodes(kids, groupB)}
	nd.recompute()
	sib.recompute()
	return sib
}

// quadraticSeeds returns the pair of entries wasting the most area when
// grouped together (Guttman's PickSeeds).
func quadraticSeeds(rects []geom.Rect) (int, int) {
	ai, bi := 0, 1
	worst := -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, ai, bi = waste, i, j
			}
		}
	}
	return ai, bi
}

// assignGroups distributes entries between the two seed groups by least
// enlargement, forcing assignment when a group must absorb all remaining
// entries to reach MinEntries.
func assignGroups(rects []geom.Rect, aSeed, bSeed int) (groupA, groupB []int) {
	groupA = []int{aSeed}
	groupB = []int{bSeed}
	mbrA, mbrB := rects[aSeed], rects[bSeed]
	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != aSeed && i != bSeed {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// Force assignment if one group needs all the rest.
		if len(groupA)+len(remaining) == MinEntries {
			groupA = append(groupA, remaining...)
			break
		}
		if len(groupB)+len(remaining) == MinEntries {
			groupB = append(groupB, remaining...)
			break
		}
		// PickNext: entry with greatest preference difference.
		bestIdx, bestDiff := 0, -1.0
		for k, i := range remaining {
			dA := mbrA.Union(rects[i]).Area() - mbrA.Area()
			dB := mbrB.Union(rects[i]).Area() - mbrB.Area()
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, k
			}
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		dA := mbrA.Union(rects[i]).Area() - mbrA.Area()
		dB := mbrB.Union(rects[i]).Area() - mbrB.Area()
		if dA < dB || (dA == dB && len(groupA) < len(groupB)) {
			groupA = append(groupA, i)
			mbrA = mbrA.Union(rects[i])
		} else {
			groupB = append(groupB, i)
			mbrB = mbrB.Union(rects[i])
		}
	}
	return groupA, groupB
}

func pickObjects(objs []geom.Object, idx []int) []geom.Object {
	out := make([]geom.Object, 0, len(idx))
	for _, i := range idx {
		out = append(out, objs[i])
	}
	return out
}

func pickNodes(nodes []*node, idx []int) []*node {
	out := make([]*node, 0, len(idx))
	for _, i := range idx {
		out = append(out, nodes[i])
	}
	return out
}
