// Package shard splits one logical relation across many dataset servers
// and routes the paper's primitive queries to them, so that the core
// algorithms — written for the one-server-per-relation setting of the
// paper — run unmodified against a horizontally partitioned relation.
//
// The package has two halves:
//
//   - Assignment (this file): a deterministic, overlap-free partitioning
//     of a dataset into n shards by a recursive k-d split on object
//     count. The centre bounds of the current object set are cut across
//     their wider axis so that each half of the shards receives its
//     proportional share of the objects, and both halves recurse. Shard
//     sizes differ by at most one whatever the data looks like, shard
//     bounds are compact and follow the data (a cluster is split where
//     it is dense, empty space belongs to nobody), and shard index order
//     is k-d order: every aligned block of consecutive shards is one
//     k-d cell, which is what lets the router — and each interior node
//     of an aggregation tree — prune on advertised bounds.
//
//   - Routing (router.go, route.go): a scatter–gather Router over the
//     shard links, which NewTree (tree.go) also stacks into an
//     aggregation tree. Every layer here — Router, ReplicaSet —
//     implements the one request/reply seam (client.Doer: a frame in, a
//     frame out) and gets the typed query surface core.Probe demands by
//     embedding client.Typed; the router's routing table says, per
//     request message, which shards a frame splits to and how the reply
//     frames merge.
//
// Because the assignment places every object on exactly one shard,
// per-shard COUNT answers are disjoint and their sum is the exact
// unsharded COUNT for any window — the property that keeps the cost
// model's |Rw| and |Sw| estimates (Eq. 2–6) and the pruning decisions
// bit-for-bit explainable on sharded runs.
package shard

import (
	"cmp"
	"slices"

	"repro/internal/geom"
)

// Assign partitions objs into exactly n shards. Every object lands on
// exactly one shard (partitions are disjoint and their union is objs,
// order preserved within each shard), shard sizes differ by at most one
// (so only len(objs) < n leaves a shard empty), and each side of every
// cut is a run of consecutive shards, so shard order is k-d order.
// Assignment is a pure function of the object set and n — ordered by
// centre coordinate, ties by ID, never by input position — so the same
// dataset shards identically everywhere: spatialserve -shard i/N
// processes agree on the layout without coordination, and the
// deterministic byte-accounting goldens rely on it.
func Assign(objs []geom.Object, n int) [][]geom.Object {
	n = max(n, 1)
	parts := make([][]geom.Object, n)
	if n == 1 {
		parts[0] = objs
		return parts
	}
	cells := make([]kdEntry, len(objs))
	for i, o := range objs {
		cells[i] = kdEntry{center: o.MBR.Center(), id: o.ID, pos: i}
	}
	owner := make([]int, len(objs))
	kdSplit(cells, 0, n, owner)
	for i := range parts {
		// Exact sizes are known up front: ⌊len/n⌋ or one more.
		parts[i] = make([]geom.Object, 0, len(objs)/n+1)
	}
	for i, o := range objs {
		parts[owner[i]] = append(parts[owner[i]], o)
	}
	return parts
}

// kdEntry is one object in the k-d split: its MBR centre (assignment is
// by centre, so a few large rectangles cannot stretch a cell), its ID
// for tie-breaking, and its position in the input.
type kdEntry struct {
	center geom.Point
	id     uint32
	pos    int
}

// kdSplit assigns the objects in cells to shards first..first+n-1,
// recording each object's shard in owner[pos]. The cells are ordered
// along the wider axis of their centre bounds (ties by ID), the first
// ⌊n/2⌋ shards take the first len·⌊n/2⌋/n of them, and both sides
// recurse — so every shard ends up with ⌊len/n⌋ or ⌈len/n⌉ objects.
func kdSplit(cells []kdEntry, first, n int, owner []int) {
	if n == 1 {
		for _, c := range cells {
			owner[c.pos] = first
		}
		return
	}
	if len(cells) == 0 {
		return
	}
	b := geom.RectFromPoint(cells[0].center)
	for _, c := range cells[1:] {
		b = b.Union(geom.RectFromPoint(c.center))
	}
	byX := b.Width() >= b.Height()
	slices.SortFunc(cells, func(p, q kdEntry) int {
		var byAxis int
		if byX {
			byAxis = cmp.Compare(p.center.X, q.center.X)
		} else {
			byAxis = cmp.Compare(p.center.Y, q.center.Y)
		}
		if byAxis != 0 {
			return byAxis
		}
		return cmp.Compare(p.id, q.id)
	})
	left := n / 2
	cut := len(cells) * left / n
	kdSplit(cells[:cut], first, left, owner)
	kdSplit(cells[cut:], first+left, n-left, owner)
}
