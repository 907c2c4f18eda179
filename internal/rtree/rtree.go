// Package rtree implements an aggregate R-tree (aR-tree) over spatial
// objects: an R-tree whose internal entries additionally store the number
// of objects in their subtree, so that COUNT window queries are answered
// without visiting fully-covered subtrees. The paper's servers answer
// COUNT queries from exactly this kind of structure (§3, citing the
// aR-tree of Papadias et al. [11]).
//
// Servers hold static snapshots: a tree is bulk-loaded once with the
// Sort-Tile-Recursive (STR) algorithm, and its objects are then packed
// into one array in traversal order (depth first, children in stored
// order), every subtree owning a contiguous span of it. A query's answer
// is therefore a list of spans (WindowSpans, RangeSpans): a subtree the
// query covers is one span found with no per-object test, which is what
// lets a server copy pre-encoded bytes instead of visiting objects, and
// what the aggregate answers count. Incremental insertion (quadratic
// split) re-packs after every insert. The tree additionally exposes the
// MBRs of a whole level, which the SemiJoin comparator of §5.3 transfers
// between servers.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/geom"
)

// Degree bounds for tree nodes: a 4 KiB page holds on the order of 64
// 20-byte object records plus header, the fanout regime of the paper's
// servers; MinEntries = 40% fill per Guttman.
const (
	MaxEntries = 64
	MinEntries = 26
)

type node struct {
	mbr      geom.Rect
	count    int // aggregate: number of objects in the subtree
	lo       int // the subtree's objects are the tree's objs[lo : lo+count]
	leaf     bool
	children []*node       // internal nodes
	objects  []geom.Object // leaf nodes: their span of the packed array
}

// Tree is an aggregate R-tree. The zero value is an empty tree ready for
// Insert; use Bulk for efficient construction from a slice.
type Tree struct {
	root   *node
	height int           // number of levels; 0 for empty, 1 for a single leaf
	objs   []geom.Object // every object, packed in traversal order
}

// Bulk builds a tree from objs using STR bulk loading. The input slice is
// not retained; objects are copied into the packed array.
func Bulk(objs []geom.Object) *Tree {
	t := &Tree{}
	if len(objs) == 0 {
		return t
	}
	level := strLeaves(objs)
	t.height = 1
	for len(level) > 1 {
		level = strPack(level)
		t.height++
	}
	t.root = level[0]
	t.pack()
	return t
}

// pack lays the objects out in one array in traversal order, records
// every node's span of it, and re-points the leaves at their spans, so
// nothing is stored twice. A leaf's span is capped, so an Insert that
// appends to it copies instead of overwriting its neighbour's.
func (t *Tree) pack() {
	objs := make([]geom.Object, 0, t.root.count)
	var walk func(nd *node)
	walk = func(nd *node) {
		nd.lo = len(objs)
		if nd.leaf {
			objs = append(objs, nd.objects...)
			nd.objects = objs[nd.lo:len(objs):len(objs)]
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(t.root)
	t.objs = objs
}

// strLeaves tiles the objects into leaf nodes ordered by x then y. The
// leaves share one sorted copy of the input until pack moves them.
func strLeaves(objs []geom.Object) []*node {
	sorted := slices.Clone(objs)
	n := len(sorted)
	leafCount := (n + MaxEntries - 1) / MaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := sliceCount * MaxEntries

	slices.SortFunc(sorted, func(a, b geom.Object) int {
		return cmp.Compare(a.MBR.Center().X, b.MBR.Center().X)
	})
	leaves := make([]*node, 0, leafCount)
	for start := 0; start < n; start += perSlice {
		end := min(start+perSlice, n)
		slice := sorted[start:end]
		slices.SortFunc(slice, func(a, b geom.Object) int {
			return cmp.Compare(a.MBR.Center().Y, b.MBR.Center().Y)
		})
		for s := 0; s < len(slice); s += MaxEntries {
			e := min(s+MaxEntries, len(slice))
			leaf := &node{leaf: true, objects: slice[s:e:e]}
			leaf.recompute()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// strPack groups a level of nodes into parents using the same tiling.
func strPack(level []*node) []*node {
	n := len(level)
	parentCount := (n + MaxEntries - 1) / MaxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(parentCount))))
	perSlice := sliceCount * MaxEntries

	slices.SortFunc(level, func(a, b *node) int {
		return cmp.Compare(a.mbr.Center().X, b.mbr.Center().X)
	})
	parents := make([]*node, 0, parentCount)
	for start := 0; start < n; start += perSlice {
		end := min(start+perSlice, n)
		slice := level[start:end]
		slices.SortFunc(slice, func(a, b *node) int {
			return cmp.Compare(a.mbr.Center().Y, b.mbr.Center().Y)
		})
		for s := 0; s < len(slice); s += MaxEntries {
			e := min(s+MaxEntries, len(slice))
			p := &node{children: append([]*node(nil), slice[s:e]...)}
			p.recompute()
			parents = append(parents, p)
		}
	}
	return parents
}

// recompute refreshes mbr and count from the node's entries.
func (nd *node) recompute() {
	if nd.leaf {
		nd.count = len(nd.objects)
		if len(nd.objects) == 0 {
			nd.mbr = geom.Rect{}
			return
		}
		mbr := nd.objects[0].MBR
		for _, o := range nd.objects[1:] {
			mbr = mbr.Union(o.MBR)
		}
		nd.mbr = mbr
		return
	}
	nd.count = 0
	if len(nd.children) == 0 {
		nd.mbr = geom.Rect{}
		return
	}
	mbr := nd.children[0].mbr
	for _, c := range nd.children {
		nd.count += c.count
		mbr = mbr.Union(c.mbr)
	}
	nd.mbr = mbr
}

// Len returns the number of objects in the tree.
func (t *Tree) Len() int {
	if t.root == nil {
		return 0
	}
	return t.root.count
}

// Height returns the number of levels (0 for an empty tree; leaves are
// level 0 when addressing LevelMBRs).
func (t *Tree) Height() int { return t.height }

// Bounds returns the MBR of all objects. The empty tree has zero bounds.
func (t *Tree) Bounds() geom.Rect {
	if t.root == nil {
		return geom.Rect{}
	}
	return t.root.mbr
}

// stackPool recycles the explicit traversal stacks of the walkers, so a
// query allocates nothing however deep the tree.
var stackPool = sync.Pool{
	New: func() any { s := make([]*node, 0, 64); return &s },
}

func getStack() *[]*node  { return stackPool.Get().(*[]*node) }
func putStack(s *[]*node) { *s = (*s)[:0]; stackPool.Put(s) }

// push appends the children of nd in reverse, so that popping from the
// stack's tail visits them in their stored order — the traversal order
// the packed array is laid out in.
func push(s []*node, children []*node) []*node {
	for i := len(children) - 1; i >= 0; i-- {
		s = append(s, children[i])
	}
	return s
}

// Span is the half-open range [Lo, Hi) of Objects() that one step of a
// query's traversal yields.
type Span struct{ Lo, Hi int }

// run is a walker's pending span: a span that starts where it ends
// extends it, any other one emits it first.
type run Span

func (r *run) add(lo, hi int, emit func(lo, hi int) bool) bool {
	if lo == r.Hi {
		r.Hi = hi
		return true
	}
	ok := r.flush(emit)
	*r = run{lo, hi}
	return ok
}

func (r *run) flush(emit func(lo, hi int) bool) bool {
	return r.Lo == r.Hi || emit(r.Lo, r.Hi)
}

// window is the one traversal of a window query. It calls emit with the
// spans of Objects() whose objects intersect w, in traversal order,
// adjacent spans coalesced: a subtree w contains is one span, found with
// no per-object test, and a boundary leaf yields each object that
// intersects w. It stops when emit returns false and reports whether it
// ran to completion.
func (t *Tree) window(w geom.Rect, emit func(lo, hi int) bool) bool {
	if t.root == nil {
		return true
	}
	sp := getStack()
	defer putStack(sp)
	var r run
	ok := true
	stack := append(*sp, t.root)
	for ok && len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case !nd.mbr.Intersects(w):
		case w.Contains(nd.mbr):
			ok = r.add(nd.lo, nd.lo+nd.count, emit)
		case nd.leaf:
			for i := 0; ok && i < len(nd.objects); i++ {
				if nd.objects[i].MBR.Intersects(w) {
					ok = r.add(nd.lo+i, nd.lo+i+1, emit)
				}
			}
		default:
			stack = push(stack, nd.children)
		}
	}
	*sp = stack
	return ok && r.flush(emit)
}

// ranged is window for an ε-range around p: a subtree whose farthest
// corner lies within eps is one span, and every test is the one ε
// predicate of package geom.
func (t *Tree) ranged(p geom.Point, eps float64, emit func(lo, hi int) bool) bool {
	if t.root == nil {
		return true
	}
	sp := getStack()
	defer putStack(sp)
	var r run
	ok := true
	stack := append(*sp, t.root)
	for ok && len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case !nd.mbr.WithinDistOfPoint(p, eps):
		case nd.mbr.InsideDistOfPoint(p, eps):
			ok = r.add(nd.lo, nd.lo+nd.count, emit)
		case nd.leaf:
			for i := 0; ok && i < len(nd.objects); i++ {
				if nd.objects[i].MBR.WithinDistOfPoint(p, eps) {
					ok = r.add(nd.lo+i, nd.lo+i+1, emit)
				}
			}
		default:
			stack = push(stack, nd.children)
		}
	}
	*sp = stack
	return ok && r.flush(emit)
}

// Objects returns every object of the tree in traversal order, the array
// the spans index. It is the tree's own storage: callers must not modify
// it.
func (t *Tree) Objects() []geom.Object { return t.objs }

// WindowSpans appends to dst the spans of Objects() intersecting w, in
// traversal order and coalesced, and returns the extended slice.
func (t *Tree) WindowSpans(w geom.Rect, dst []Span) []Span {
	t.window(w, func(lo, hi int) bool {
		dst = append(dst, Span{lo, hi})
		return true
	})
	return dst
}

// RangeSpans is WindowSpans for the objects within distance eps of p.
func (t *Tree) RangeSpans(p geom.Point, eps float64, dst []Span) []Span {
	t.ranged(p, eps, func(lo, hi int) bool {
		dst = append(dst, Span{lo, hi})
		return true
	})
	return dst
}

// visitSpan folds one span into visit, stopping when visit returns false.
func (t *Tree) visitSpan(lo, hi int, visit func(o geom.Object) bool) bool {
	for _, o := range t.objs[lo:hi] {
		if !visit(o) {
			return false
		}
	}
	return true
}

// SearchFunc calls visit for every object whose MBR intersects w, in the
// tree's traversal order, stopping early when visit returns false. It
// reports whether the traversal ran to completion. It allocates nothing.
func (t *Tree) SearchFunc(w geom.Rect, visit func(o geom.Object) bool) bool {
	return t.window(w, func(lo, hi int) bool { return t.visitSpan(lo, hi, visit) })
}

// Search appends to dst all objects whose MBR intersects w and returns
// the extended slice.
func (t *Tree) Search(w geom.Rect, dst []geom.Object) []geom.Object {
	t.window(w, func(lo, hi int) bool {
		dst = append(dst, t.objs[lo:hi]...)
		return true
	})
	return dst
}

// Count returns the exact number of objects whose MBR intersects w.
// Subtrees entirely inside w contribute their aggregate count without
// descent; only boundary nodes are expanded.
func (t *Tree) Count(w geom.Rect) int {
	n := 0
	t.window(w, func(lo, hi int) bool {
		n += hi - lo
		return true
	})
	return n
}

// SearchDistFunc calls visit for every object whose MBR lies within
// Euclidean distance eps of point p, in the tree's traversal order,
// stopping early when visit returns false. It reports whether the
// traversal ran to completion. Like SearchFunc it allocates nothing.
func (t *Tree) SearchDistFunc(p geom.Point, eps float64, visit func(o geom.Object) bool) bool {
	return t.ranged(p, eps, func(lo, hi int) bool { return t.visitSpan(lo, hi, visit) })
}

// SearchDist appends to dst all objects whose MBR lies within Euclidean
// distance eps of point p and returns the extended slice.
func (t *Tree) SearchDist(p geom.Point, eps float64, dst []geom.Object) []geom.Object {
	t.ranged(p, eps, func(lo, hi int) bool {
		dst = append(dst, t.objs[lo:hi]...)
		return true
	})
	return dst
}

// CountDist returns the number of objects within distance eps of p.
// Like Count, it is a pure aggregate traversal: a subtree whose MBR lies
// entirely within eps of p contributes its stored count without descent,
// and no result objects are ever materialized.
func (t *Tree) CountDist(p geom.Point, eps float64) int {
	n := 0
	t.ranged(p, eps, func(lo, hi int) bool {
		n += hi - lo
		return true
	})
	return n
}

// AvgArea returns the average MBR area of the objects intersecting w,
// and 0 when no object intersects. It backs the AVG-AREA aggregate the
// paper adds for polygon datasets (§3.1). The fold runs over the spans,
// so no result slice is materialized.
func (t *Tree) AvgArea(w geom.Rect) float64 {
	var sum float64
	var n int
	t.window(w, func(lo, hi int) bool {
		for _, o := range t.objs[lo:hi] {
			sum += o.MBR.Area()
		}
		n += hi - lo
		return true
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// LevelMBRs returns the MBRs of all nodes at the given level, where level
// 0 is the leaf level and Height()-1 is the root. It returns an error for
// an out-of-range level or an empty tree.
func (t *Tree) LevelMBRs(level int) ([]geom.Rect, error) {
	if t.root == nil {
		return nil, fmt.Errorf("rtree: level %d of empty tree", level)
	}
	if level < 0 || level >= t.height {
		return nil, fmt.Errorf("rtree: level %d out of range [0,%d)", level, t.height)
	}
	depth := t.height - 1 - level // root is depth 0
	var out []geom.Rect
	var walk func(nd *node, d int)
	walk = func(nd *node, d int) {
		if d == depth {
			out = append(out, nd.mbr)
			return
		}
		for _, c := range nd.children {
			walk(c, d+1)
		}
	}
	walk(t.root, 0)
	return out, nil
}

// All appends every object in the tree to dst, in traversal order, and
// returns the result.
func (t *Tree) All(dst []geom.Object) []geom.Object {
	return append(dst, t.objs...)
}
