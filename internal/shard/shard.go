// Package shard splits one logical relation across many dataset servers
// and routes the paper's primitive queries to them, so that the core
// algorithms — written for the one-server-per-relation setting of the
// paper — run unmodified against a horizontally partitioned relation.
//
// The package has two halves:
//
//   - Assignment (this file): a deterministic, overlap-free partitioning
//     of a dataset into n shards. The primary layout is spatial tiling —
//     the dataset bounds are cut into an r×c grid of tiles and every
//     object is assigned by its MBR center, boundary objects landing on
//     exactly one tile via half-open cell arithmetic — with a hash
//     fallback (FNV over the object ID) for degenerate layouts where
//     tiling cannot spread the data.
//
//   - Routing (router.go, route.go): a scatter–gather Router over the
//     shard links. Every layer here — Router, ReplicaSet, Aggregator —
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
	"hash/fnv"

	"repro/internal/geom"
)

// Grid returns the tile grid dimensions (rows × cols) used for n shards:
// the most balanced factorization r*c = n with r <= c, so 4 shards tile
// 2×2, 6 tile 2×3, and a prime n degrades to a 1×n strip.
func Grid(n int) (rows, cols int) {
	if n < 1 {
		return 1, 1
	}
	rows = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

// Tiles returns the n spatial tiles covering bounds, row-major from the
// bottom-left, for the Grid(n) layout. Adjacent tiles share edges (closed
// rectangles), so the cover is exhaustive: every point of bounds lies in
// at least one tile, and the tile interiors are pairwise disjoint.
func Tiles(bounds geom.Rect, n int) []geom.Rect {
	rows, cols := Grid(n)
	w, h := bounds.Width(), bounds.Height()
	tiles := make([]geom.Rect, 0, n)
	for row := 0; row < rows; row++ {
		y0 := bounds.MinY + h*float64(row)/float64(rows)
		y1 := bounds.MinY + h*float64(row+1)/float64(rows)
		for col := 0; col < cols; col++ {
			x0 := bounds.MinX + w*float64(col)/float64(cols)
			x1 := bounds.MinX + w*float64(col+1)/float64(cols)
			tiles = append(tiles, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
		}
	}
	return tiles
}

// tileIndex maps a point to exactly one tile of the Grid(n) layout over
// bounds. The cell arithmetic is half-open — a center exactly on an
// interior tile edge belongs to the higher cell — and clamped, so every
// point of bounds (edges included) maps to one valid index. This is the
// overlap-free boundary rule: tiles share edges as rectangles, but no
// object is ever assigned to two of them.
func tileIndex(p geom.Point, bounds geom.Rect, rows, cols int) int {
	col, row := 0, 0
	if w := bounds.Width(); w > 0 {
		col = int((p.X - bounds.MinX) / w * float64(cols))
	}
	if h := bounds.Height(); h > 0 {
		row = int((p.Y - bounds.MinY) / h * float64(rows))
	}
	col = min(max(col, 0), cols-1)
	row = min(max(row, 0), rows-1)
	return row*cols + col
}

// hashIndex is the fallback assignment: FNV-1a over the object ID, mod n.
// It ignores geometry entirely, trading routing locality for guaranteed
// spread on degenerate layouts (coincident centers, zero-extent bounds).
func hashIndex(id uint32, n int) int {
	h := fnv.New32a()
	h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)})
	return int(h.Sum32() % uint32(n))
}

// Assign partitions objs into exactly n shards. Every object lands on
// exactly one shard (partitions are disjoint and their union is objs,
// order preserved within each shard). The spatial tiling over the
// dataset's bounds is used when it spreads the data — every tile of the
// layout receives at least one object whenever objs has at least n
// objects — and the hash fallback otherwise, so no shard is left empty
// when the cardinality allows. Assignment is a pure function of
// (objs, n): the same dataset shards identically everywhere, which the
// deterministic byte-accounting goldens rely on.
func Assign(objs []geom.Object, n int) [][]geom.Object {
	if n < 1 {
		n = 1
	}
	parts := make([][]geom.Object, n)
	if n == 1 {
		parts[0] = objs
		return parts
	}
	bounds := objectBounds(objs)
	rows, cols := Grid(n)
	if bounds.Width() > 0 || bounds.Height() > 0 {
		for _, o := range objs {
			i := tileIndex(o.MBR.Center(), bounds, rows, cols)
			parts[i] = append(parts[i], o)
		}
		if len(objs) < n || allNonEmpty(parts) {
			return parts
		}
	}
	// Degenerate layout (all centers coincident, or some tile ended up
	// empty while the cardinality could fill it): fall back to hashing.
	for i := range parts {
		parts[i] = nil
	}
	for _, o := range objs {
		i := hashIndex(o.ID, n)
		parts[i] = append(parts[i], o)
	}
	return parts
}

// objectBounds is the MBR of all object centers — the reference frame of
// the tile layout. (Centers, not full MBRs: assignment is by center, so
// tiling the center space spreads objects evenly even when a few large
// rectangles would stretch the object-MBR bounds.)
func objectBounds(objs []geom.Object) geom.Rect {
	if len(objs) == 0 {
		return geom.Rect{}
	}
	b := geom.RectFromPoint(objs[0].MBR.Center())
	for _, o := range objs[1:] {
		b = b.Union(geom.RectFromPoint(o.MBR.Center()))
	}
	return b
}

func allNonEmpty(parts [][]geom.Object) bool {
	for _, p := range parts {
		if len(p) == 0 {
			return false
		}
	}
	return true
}
