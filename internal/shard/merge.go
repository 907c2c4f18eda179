package shard

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/wire"
)

// This file holds the value-level folds the routing table's merge
// functions (route.go) are built from: ID-ordered object lists, (RID,
// SID)-ordered pair lists, merged INFO metadata. The flat router and
// every tree level run exactly these functions, so a tree of any depth is
// bit-identical to the flat scatter.

// sortObjects puts a gathered object list into deterministic ID order.
// IDs are unique within a relation and each lives on exactly one shard,
// so the merged list is duplicate-free and the order total.
func sortObjects(objs []geom.Object) {
	slices.SortFunc(objs, func(a, b geom.Object) int {
		return cmp.Compare(a.ID, b.ID)
	})
}

// mergeHeap is the pooled scratch state of one k-way merge: a binary
// min-heap of part indices keyed by each part's current head ID, plus the
// per-part cursor positions. Both slices are reused across merges.
type mergeHeap struct {
	heap []int // part indices, heap-ordered by head object ID
	pos  []int // cursor into each part (indexed by part, not heap slot)
}

var mergePool = sync.Pool{New: func() any { return new(mergeHeap) }}

// headID returns the ID at part p's cursor.
func (h *mergeHeap) headID(parts [][]geom.Object, p int) uint32 {
	return parts[p][h.pos[p]].ID
}

// siftDown restores the heap property from slot i.
func (h *mergeHeap) siftDown(parts [][]geom.Object, i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.headID(parts, h.heap[l]) < h.headID(parts, h.heap[least]) {
			least = l
		}
		if r < n && h.headID(parts, h.heap[r]) < h.headID(parts, h.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		h.heap[i], h.heap[least] = h.heap[least], h.heap[i]
		i = least
	}
}

// MergeObjects merges per-shard object lists into one ID-ordered list,
// appended to dst (pass dst[:0] to reuse a previous result's capacity).
// Each part is sorted in place first — server replies arrive in index
// traversal order — and the sorted runs are then combined by a pooled
// k-way heap merge: one pass, no per-element comparison against more
// than log k heads, and zero allocations beyond dst's own growth. The
// flat router and every tree level merge through this one function, so
// the gathered order is identical at any depth. IDs are unique across
// parts (each object lives on exactly one shard), so the output is
// duplicate-free and the order total.
func MergeObjects(dst []geom.Object, parts [][]geom.Object) []geom.Object {
	live := 0
	total := 0
	last := -1
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		live++
		total += len(p)
		last = i
	}
	switch live {
	case 0:
		return dst
	case 1:
		// One contributing shard: its reply only needs the ID sort.
		at := len(dst)
		dst = append(dst, parts[last]...)
		sortObjects(dst[at:])
		return dst
	}
	if need := len(dst) + total; cap(dst) < need {
		grown := make([]geom.Object, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	h := mergePool.Get().(*mergeHeap)
	h.heap = h.heap[:0]
	if cap(h.pos) < len(parts) {
		h.pos = make([]int, len(parts))
	}
	h.pos = h.pos[:len(parts)]
	for i, p := range parts {
		h.pos[i] = 0
		if len(p) == 0 {
			continue
		}
		sortObjects(p)
		h.heap = append(h.heap, i)
	}
	// Heapify, then pop the global minimum until every run is drained.
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(parts, i)
	}
	for len(h.heap) > 0 {
		p := h.heap[0]
		dst = append(dst, parts[p][h.pos[p]])
		h.pos[p]++
		if h.pos[p] == len(parts[p]) {
			n := len(h.heap) - 1
			h.heap[0] = h.heap[n]
			h.heap = h.heap[:n]
		}
		h.siftDown(parts, 0)
	}
	mergePool.Put(h)
	return dst
}

// sortPairs puts concatenated per-shard pair lists into deterministic
// (uploaded ID, matched ID) order. Duplicate-free by construction: the
// joined-side objects are disjoint across shards.
func sortPairs(pairs []geom.Pair) {
	slices.SortFunc(pairs, func(a, b geom.Pair) int {
		if a.RID != b.RID {
			return cmp.Compare(a.RID, b.RID)
		}
		return cmp.Compare(a.SID, b.SID)
	})
}

// mergeInfos folds per-shard metadata into the relation's: cardinalities
// sum, bounds union (empty shards contribute nothing), PointData holds
// iff it holds on every non-empty shard, and TreeHeight is the minimum
// published height over non-empty shards — the deepest level guaranteed
// to exist in every shard tree — or 0 when any shard withholds its index.
// The fold is associative, so an aggregation tree merging level by level
// reaches the same relation metadata as the flat fan-out.
func mergeInfos(infos []wire.Info) wire.Info {
	var m wire.Info
	m.PointData = true
	first := true
	for _, info := range infos {
		m.Count += info.Count
		if info.Count == 0 {
			continue
		}
		if first {
			m.Bounds = info.Bounds
			m.TreeHeight = info.TreeHeight
			first = false
		} else {
			m.Bounds = m.Bounds.Union(info.Bounds)
			if info.TreeHeight < m.TreeHeight {
				m.TreeHeight = info.TreeHeight
			}
		}
		if !info.PointData {
			m.PointData = false
		}
	}
	return m
}
