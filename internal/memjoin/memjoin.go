// Package memjoin provides the main-memory spatial join algorithms the
// mobile device runs over downloaded partitions: a spatial-hash (grid)
// join in the spirit of PBSM's in-memory phase, a plane-sweep join, and a
// nested-loop join. All three produce identical result sets; the grid
// join is the one HBSJ runs, the others serve as oracles. The grid's
// cells are sized from the predicate and the build side (about ε wide,
// at most a constant number of cells and bucket entries per build
// object), so the join is linear in its input plus its candidates; the
// result pair list is sorted by an LSD radix sort (SortPairs).
//
// Join predicates are expressed as a Pred: MBR intersection (the filter
// step of an intersection join) or within-ε distance (distance joins).
// Duplicate avoidance across partitions uses the reference-point rule
// from package geom: a pair is reported only if its reference point lies
// in the partition window being processed.
package memjoin

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

// Pred is a join predicate over two object MBRs.
type Pred struct {
	// Eps is the distance threshold; 0 means plain MBR intersection.
	Eps float64
}

// Intersection is the MBR-intersection predicate.
func Intersection() Pred { return Pred{} }

// WithinDist is the distance predicate: MinDist(a, b) <= eps.
func WithinDist(eps float64) Pred { return Pred{Eps: eps} }

// Match reports whether the predicate holds for MBRs a and b.
func (p Pred) Match(a, b geom.Rect) bool {
	if p.Eps <= 0 {
		return a.Intersects(b)
	}
	return a.WithinDist(b, p.Eps)
}

// refMatch applies duplicate avoidance on top of Match.
func (p Pred) refMatch(a, b geom.Rect, w geom.Rect, dedup bool) bool {
	return p.Match(a, b) && (!dedup || p.refInWindow(a, b, w))
}

// refInWindow is the duplicate-avoidance test of a matching pair: it
// qualifies only if the reference point of the symmetrically
// ε/2-expanded MBR pair (geom.RefPointEps) falls inside w.
func (p Pred) refInWindow(a, b geom.Rect, w geom.Rect) bool {
	rp, ok := geom.RefPointEps(a, b, p.Eps)
	return ok && w.ContainsPoint(rp)
}

// Options controls a main-memory join invocation.
type Options struct {
	// Window is the partition being joined; used for duplicate avoidance.
	Window geom.Rect
	// Dedup enables the reference-point rule. Callers joining exactly one
	// partition can disable it to keep pairs whose reference point falls
	// outside (e.g. ε-neighbors of objects near the window edge).
	Dedup bool
}

// Joiner is the reusable state of the spatial-hash join: the grid-cell
// buckets (in compressed sparse row form), the per-candidate stamp array,
// and the radix sort's histogram. A Joiner amortizes all of its
// allocations across invocations, so a session running HBSJ over many
// partitions joins each one without touching the allocator. A Joiner is not safe for concurrent
// use; concurrent callers take one each from the pool (see GridJoin) or
// own one per worker.
type Joiner struct {
	// cellStart holds the CSR offsets shifted by one slot: once the grid
	// is built, cell c's entries are at [cellStart[c], cellStart[c+1]).
	// The extra leading slot lets the fill pass advance cellStart[c+1] as
	// its cursor, so no second offsets array is needed.
	cellStart []int32
	cellOf    []int32     // point build: each build object's cell, kept between the count and fill passes
	points    []cellPoint // point build: the build side's coordinates grouped by cell
	items     []int32     // extent build: build indices grouped by covered cell
	stamp     []int32     // extent build: last probe that tested each build object
	hist      []uint32    // SortPairs: one pass's digit counts
}

// cellPoint is one build-side point as the probe loop reads it: packed in
// cell order, so a probe streams its candidates' coordinates instead of
// chasing indices into the 40-byte Objects.
type cellPoint struct {
	x, y float64
	id   uint32
}

// NewJoiner returns an empty Joiner; its buffers grow to the workload's
// high-water mark on first use and are reused afterwards.
func NewJoiner() *Joiner { return &Joiner{} }

// joinerPool backs the package-level GridJoin and SortPairs so that every
// caller — including concurrent HBSJ workers — gets buffer reuse without
// owning a Joiner explicitly.
var joinerPool = sync.Pool{New: func() any { return NewJoiner() }}

// GridJoin performs a spatial-hash join of r and s under pred, appending
// qualifying pairs to dst. The grid resolution follows the predicate and
// the data (see grid). This is the in-memory half of HBSJ. The call is
// backed by a pooled Joiner, so its grid buffers are reused across
// invocations.
func GridJoin(r, s []geom.Object, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	j := joinerPool.Get().(*Joiner)
	dst = j.GridJoin(r, s, pred, opt, dst)
	joinerPool.Put(j)
	return dst
}

// grow resizes s to length n, reallocating only when capacity is short.
// The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Sizing rule of the join grid: a build side of n objects gets a budget
// of cellsPerObject·n cells and entriesPerObject·n bucket entries, so
// grid memory and build time are linear in n whatever the extents are.
const (
	cellsPerObject   = 4
	entriesPerObject = 4
)

// cellSlack widens every probe's cell range, in cells. The predicate and
// the cell arithmetic round differently (x−ε against x−minX scaled), so a
// build object at distance exactly ε could sit an ulp across a cell
// border from where the probe's range ends; cell coordinates carry a
// relative error near 2⁻⁵², far inside this margin. The cost is one more
// column for a probe that ends within a millionth of a cell of a border.
const cellSlack = 1.0 / (1 << 20)

// grid is a kx×ky lattice of square cells anchored at the build side's
// lower-left corner. Coordinates outside the build extent clamp to the
// border cells, so the grid needs no ε margin.
type grid struct {
	minX, minY float64
	inv        float64 // cells per coordinate unit
	kx, ky     int
	eps        float64 // the predicate's reach, ≥ 0
}

// newGrid sizes the grid for a build side of n objects spanning extent.
// Cells are ε wide, so a probe's reach spans at most three per axis and
// its candidates come from ≈9ε² of the plane rather than from a fixed
// fraction of the world; they are wider only where ε-wide cells would
// exceed the budget B = cellsPerObject·n, and intersection joins (ε = 0)
// get the finest grid the budget allows. With side ≥ √(w·h/B) and
// side ≥ (w+h)/B the grid has at most (w/side+1)·(h/side+1) ≤ 2B+1
// cells, B for a roughly square extent. A zero-width axis gets a single
// row or column.
func newGrid(extent geom.Rect, n int, eps float64) grid {
	w, h := extent.Width(), extent.Height()
	budget := float64(cellsPerObject * n)
	g := grid{minX: extent.MinX, minY: extent.MinY, eps: eps}
	g.setSide(extent, max(eps, math.Sqrt(w*h/budget), (w+h)/budget))
	return g
}

// setSide lays cells of the given side over extent. A side of zero (a
// build side at a single location) or any non-finite product ends up as
// one cell on that axis.
func (g *grid) setSide(extent geom.Rect, side float64) {
	g.inv = 1 / side
	g.kx = cell(extent.Width()*g.inv, math.MaxInt32) + 1
	g.ky = cell(extent.Height()*g.inv, math.MaxInt32) + 1
}

// cell maps a coordinate offset (already relative to the grid origin) to
// a cell index in [0, k), clamping anything outside — NaN included — to
// the border cells.
func cell(f float64, k int) int {
	if !(f > 0) {
		return 0
	}
	if f >= float64(k) {
		return k - 1
	}
	return int(f)
}

// cover returns the inclusive cell range a build-side MBR occupies.
func (g *grid) cover(m *geom.Rect) (x0, y0, x1, y1 int) {
	return cell((m.MinX-g.minX)*g.inv, g.kx), cell((m.MinY-g.minY)*g.inv, g.ky),
		cell((m.MaxX-g.minX)*g.inv, g.kx), cell((m.MaxY-g.minY)*g.inv, g.ky)
}

// reach returns the inclusive cell range holding every build object that
// can satisfy the predicate with a probe MBR: the MBR grown by ε, and by
// cellSlack in cell space.
func (g *grid) reach(m *geom.Rect) (x0, y0, x1, y1 int) {
	return cell((m.MinX-g.eps-g.minX)*g.inv-cellSlack, g.kx), cell((m.MinY-g.eps-g.minY)*g.inv-cellSlack, g.ky),
		cell((m.MaxX+g.eps-g.minX)*g.inv+cellSlack, g.kx), cell((m.MaxY+g.eps-g.minY)*g.inv+cellSlack, g.ky)
}

// GridJoin is the Joiner-owned form of the package-level GridJoin; it
// emits exactly the same pairs in the same order.
func (j *Joiner) GridJoin(r, s []geom.Object, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	if len(r) == 0 || len(s) == 0 {
		return dst
	}
	// Hash the smaller side; probe with the larger.
	swapped := false
	build, probe := r, s
	if len(s) < len(r) {
		build, probe = s, r
		swapped = true
	}

	extent := build[0].MBR
	points := true
	for i := range build {
		m := &build[i].MBR
		extent.MinX, extent.MinY = min(extent.MinX, m.MinX), min(extent.MinY, m.MinY)
		extent.MaxX, extent.MaxY = max(extent.MaxX, m.MaxX), max(extent.MaxY, m.MaxY)
		points = points && build[i].IsPoint()
	}
	g := newGrid(extent, len(build), max(pred.Eps, 0))
	if points {
		j.bucketPoints(&g, build)
		return j.probePoints(&g, probe, swapped, pred, opt, dst)
	}
	j.bucketExtents(&g, extent, build)
	return j.probeExtents(&g, build, probe, swapped, pred, opt, dst)
}

// resetCells sizes and zeroes the offsets array for g.
func (j *Joiner) resetCells(g *grid) {
	j.cellStart = grow(j.cellStart, g.kx*g.ky+2)
	clear(j.cellStart)
}

// sumCells turns the per-cell counts (stored two slots up) into start
// offsets (one slot up), ready for the fill pass.
func (j *Joiner) sumCells() {
	for c := 2; c < len(j.cellStart); c++ {
		j.cellStart[c] += j.cellStart[c-1]
	}
}

// bucketPoints groups a point-only build side by cell: count, prefix-sum,
// fill — two passes over the build side, zero per-cell allocations, and
// each cell keeps build order. A point lies in exactly one cell.
func (j *Joiner) bucketPoints(g *grid, build []geom.Object) {
	j.resetCells(g)
	j.cellOf = grow(j.cellOf, len(build))
	for i := range build {
		m := &build[i].MBR
		c := cell((m.MinY-g.minY)*g.inv, g.ky)*g.kx + cell((m.MinX-g.minX)*g.inv, g.kx)
		j.cellOf[i] = int32(c)
		j.cellStart[c+2]++
	}
	j.sumCells()
	j.points = grow(j.points, len(build))
	for i := range build {
		at := &j.cellStart[j.cellOf[i]+1]
		j.points[*at] = cellPoint{x: build[i].MBR.MinX, y: build[i].MBR.MinY, id: build[i].ID}
		*at++
	}
}

// probePoints joins the probe side against a point-only build side. No
// build point is in two cells, so no candidate is seen twice and there is
// no stamp pass. A point probe of a distance join — the paper's workload
// — is decided straight off the coordinates: for two points
// Rect.WithinDist reduces to exactly this expression (its dx is
// |x₁−x₂|), so every pair, the ones at exactly ε included, is decided as
// Pred.Match decides it.
func (j *Joiner) probePoints(g *grid, probe []geom.Object, swapped bool, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	eps2 := pred.Eps * pred.Eps
	for pi := range probe {
		po := &probe[pi]
		px, py := po.MBR.MinX, po.MBR.MinY
		direct := pred.Eps > 0 && !opt.Dedup && po.IsPoint()
		x0, y0, x1, y1 := g.reach(&po.MBR)
		for cy := y0; cy <= y1; cy++ {
			// The row's cells are adjacent in CSR order: one span.
			span := j.points[j.cellStart[cy*g.kx+x0]:j.cellStart[cy*g.kx+x1+1]]
			if direct {
				// Every candidate is written; only a match advances the
				// end, so the loop has no data-dependent branch.
				at := len(dst)
				dst = slices.Grow(dst, len(span))[:at+len(span)]
				for i := range span {
					c := &span[i]
					dx, dy := px-c.x, py-c.y
					dst[at] = pairOf(c.id, po.ID, swapped)
					at += b2i(dx*dx+dy*dy <= eps2)
				}
				dst = dst[:at]
				continue
			}
			for i := range span {
				c := &span[i]
				cm := geom.Rect{MinX: c.x, MinY: c.y, MaxX: c.x, MaxY: c.y}
				a, b := cm, po.MBR
				if swapped {
					a, b = b, a
				}
				if pred.refMatch(a, b, opt.Window, opt.Dedup) {
					dst = append(dst, pairOf(c.id, po.ID, swapped))
				}
			}
		}
	}
	return dst
}

// pairOf is the pair of a build and a probe object, R side first.
func pairOf(buildID, probeID uint32, swapped bool) geom.Pair {
	if swapped {
		return geom.Pair{RID: probeID, SID: buildID}
	}
	return geom.Pair{RID: buildID, SID: probeID}
}

// b2i is 1 for true; the compiler turns it into a flag move, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bucketExtents groups a build side with extended MBRs by covered cell.
// An MBR wider than a cell is entered in every cell it covers; when that
// replication would exceed the entry budget the cells are doubled until
// it fits (one cell always does), so a few large objects cannot make the
// grid quadratic.
func (j *Joiner) bucketExtents(g *grid, extent geom.Rect, build []geom.Object) {
	for {
		total := 0
		for i := range build {
			x0, y0, x1, y1 := g.cover(&build[i].MBR)
			total += (x1 - x0 + 1) * (y1 - y0 + 1)
		}
		if total <= entriesPerObject*len(build) {
			j.items = grow(j.items, total)
			break
		}
		g.setSide(extent, 2/g.inv)
	}
	j.resetCells(g)
	for i := range build {
		x0, y0, x1, y1 := g.cover(&build[i].MBR)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				j.cellStart[cy*g.kx+cx+2]++
			}
		}
	}
	j.sumCells()
	for i := range build {
		x0, y0, x1, y1 := g.cover(&build[i].MBR)
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				at := &j.cellStart[cy*g.kx+cx+1]
				j.items[*at] = int32(i)
				*at++
			}
		}
	}
}

// probeExtents joins the probe side against a build side with extended
// MBRs. A build object entered in several cells would be tested once per
// shared cell, so candidates are deduplicated per probe with a stamp
// array — skipped when no build object was replicated.
func (j *Joiner) probeExtents(g *grid, build, probe []geom.Object, swapped bool, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	stamped := len(j.items) > len(build)
	if stamped {
		j.stamp = grow(j.stamp, len(build))
		for i := range j.stamp {
			j.stamp[i] = -1
		}
	}
	for pi := range probe {
		x0, y0, x1, y1 := g.reach(&probe[pi].MBR)
		for cy := y0; cy <= y1; cy++ {
			row := cy * g.kx
			for _, bi := range j.items[j.cellStart[row+x0]:j.cellStart[row+x1+1]] {
				if stamped {
					if j.stamp[bi] == int32(pi) {
						continue
					}
					j.stamp[bi] = int32(pi)
				}
				a, b := &build[bi], &probe[pi]
				if swapped {
					a, b = b, a
				}
				if pred.refMatch(a.MBR, b.MBR, opt.Window, opt.Dedup) {
					dst = append(dst, geom.Pair{RID: a.ID, SID: b.ID})
				}
			}
		}
	}
	return dst
}

// PlaneSweep joins r and s by sorting on MinX (expanded by eps on the R
// side) and sweeping. It is the classical forward-sweep filter join.
func PlaneSweep(r, s []geom.Object, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	if len(r) == 0 || len(s) == 0 {
		return dst
	}
	rs := make([]geom.Object, len(r))
	copy(rs, r)
	ss := make([]geom.Object, len(s))
	copy(ss, s)
	eps := pred.Eps
	byMinX := func(a, b geom.Object) int { return cmp.Compare(a.MBR.MinX, b.MBR.MinX) }
	slices.SortFunc(rs, byMinX)
	slices.SortFunc(ss, byMinX)

	i, j := 0, 0
	for i < len(rs) && j < len(ss) {
		if rs[i].MBR.MinX-eps <= ss[j].MBR.MinX {
			// rs[i] opens first: scan ss from j while within x reach.
			lim := rs[i].MBR.MaxX + eps
			for jj := j; jj < len(ss) && ss[jj].MBR.MinX <= lim; jj++ {
				if pred.refMatch(rs[i].MBR, ss[jj].MBR, opt.Window, opt.Dedup) {
					dst = append(dst, geom.Pair{RID: rs[i].ID, SID: ss[jj].ID})
				}
			}
			i++
		} else {
			lim := ss[j].MBR.MaxX + eps
			for ii := i; ii < len(rs) && rs[ii].MBR.MinX-eps <= lim+eps; ii++ {
				if rs[ii].MBR.MinX-eps > ss[j].MBR.MaxX+eps {
					break
				}
				if pred.refMatch(rs[ii].MBR, ss[j].MBR, opt.Window, opt.Dedup) {
					dst = append(dst, geom.Pair{RID: rs[ii].ID, SID: ss[j].ID})
				}
			}
			j++
		}
	}
	return dst
}

// NestedLoop is the quadratic oracle join.
func NestedLoop(r, s []geom.Object, pred Pred, opt Options, dst []geom.Pair) []geom.Pair {
	for _, a := range r {
		for _, b := range s {
			if pred.refMatch(a.MBR, b.MBR, opt.Window, opt.Dedup) {
				dst = append(dst, geom.Pair{RID: a.ID, SID: b.ID})
			}
		}
	}
	return dst
}

// radixMin is the length below which SortPairs leaves the input to the
// comparison sort: the radix sort's fixed cost (a histogram per pass)
// pays off from about 48 pairs at four passes.
const radixMin = 64

// Digit widths of the radix sort, in bits. A digit is as wide as the
// input is long — 2^d ≤ n, so a pass's histogram costs no more than its
// scatter — within these bounds.
const (
	minDigit = 8
	maxDigit = 16
)

// key packs a pair so that (RID, SID) order is integer order. Comparing
// keys compiles to one flag-setting compare where comparing the fields
// branches twice, unpredictably on shuffled input.
func key(p geom.Pair) uint64 { return uint64(p.RID)<<32 | uint64(p.SID) }

// SortPairs orders pairs by (RID, SID). Result assembly sorts every
// run's whole pair list (DedupPairs), so this is an LSD radix sort,
// linear in the input: the SID's digits, then the RID's, least
// significant first. It sorts on only the bits that vary — a bit on
// which every pair agrees with the first cannot decide an order — so a
// field whose ids differ in w bits takes ⌈w/dmax⌉ passes of equal digits,
// dmax = ⌊log₂ n⌋ clamped to [minDigit, maxDigit]: ids below 2¹⁴ on both
// sides sort in two passes from 2¹⁴ pairs up, where bytes took four. A
// digit never straddles the two fields: cut from one combined key, it
// would cost every pass the key's assembly, which measured slower than
// the pass it saves. Input that is already in order returns after one
// scan.
func SortPairs(ps []geom.Pair) {
	if len(ps) < radixMin {
		slices.SortFunc(ps, func(a, b geom.Pair) int { return cmp.Compare(key(a), key(b)) })
		return
	}
	i := 1
	for i < len(ps) && key(ps[i-1]) <= key(ps[i]) {
		i++
	}
	if i == len(ps) {
		return
	}
	var diffR, diffS uint32 // bits on which some pair differs from the first
	first := ps[0]
	for _, p := range ps {
		diffR |= p.RID ^ first.RID
		diffS |= p.SID ^ first.SID
	}
	n := len(ps)
	dmax := min(max(bits.Len(uint(n))-1, minDigit), maxDigit)
	j := joinerPool.Get().(*Joiner)
	j.hist = grow(j.hist, 1<<maxDigit)
	at := (*[1 << maxDigit]uint32)(j.hist)
	buf := bufpool.Pairs.GetCap(n)[:n]
	src, dst := ps, buf
	w := bits.Len32(diffS)
	for k, passes := 0, (w+dmax-1)/dmax; k < passes; k++ {
		d := uint(w+passes-1) / uint(passes)
		radixPassSID(src, dst, at, uint(k)*d, d)
		src, dst = dst, src
	}
	w = bits.Len32(diffR)
	for k, passes := 0, (w+dmax-1)/dmax; k < passes; k++ {
		d := uint(w+passes-1) / uint(passes)
		radixPassRID(src, dst, at, uint(k)*d, d)
		src, dst = dst, src
	}
	if &src[0] != &ps[0] {
		copy(ps, src)
	}
	bufpool.Pairs.Put(buf)
	joinerPool.Put(j)
}

// radixPassSID is one stable counting-sort pass from src to dst on the d
// bits at shift of the SID, counting in at. It is written out once per
// field: a single function selecting the field, by flag or by closure,
// runs the whole sort a third slower.
func radixPassSID(src, dst []geom.Pair, at *[1 << maxDigit]uint32, shift, d uint) {
	shift &= 31 // shift < 32: lets the compiler emit bare shifts
	mask := uint32(1)<<d - 1
	clear(at[:1<<d])
	for _, p := range src {
		at[uint16(p.SID>>shift&mask)]++
	}
	var sum uint32
	for b, c := range at[:1<<d] {
		at[b] = sum
		sum += c
	}
	for _, p := range src {
		b := uint16(p.SID >> shift & mask)
		dst[at[b]] = p
		at[b]++
	}
}

// radixPassRID is radixPassSID on the RID.
func radixPassRID(src, dst []geom.Pair, at *[1 << maxDigit]uint32, shift, d uint) {
	shift &= 31
	mask := uint32(1)<<d - 1
	clear(at[:1<<d])
	for _, p := range src {
		at[uint16(p.RID>>shift&mask)]++
	}
	var sum uint32
	for b, c := range at[:1<<d] {
		at[b] = sum
		sum += c
	}
	for _, p := range src {
		b := uint16(p.RID >> shift & mask)
		dst[at[b]] = p
		at[b]++
	}
}

// DedupPairs sorts and removes duplicate pairs in place, returning the
// compacted slice.
func DedupPairs(ps []geom.Pair) []geom.Pair {
	SortPairs(ps)
	if len(ps) < 2 {
		return ps
	}
	w := 0
	prev := key(ps[0])
	for _, p := range ps[1:] {
		k := key(p)
		if k != prev {
			w++
		}
		ps[w] = p
		prev = k
	}
	return ps[:w+1]
}
