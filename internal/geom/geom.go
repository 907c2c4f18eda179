// Package geom provides the 2-D geometric primitives used throughout the
// repository: points, axis-aligned rectangles (MBRs), regular grids and the
// spatial objects exchanged between the mobile client and the dataset
// servers.
//
// All coordinates are float64 in an arbitrary Cartesian plane. Rectangles
// are closed on all sides: a point lying exactly on an edge is contained,
// and two rectangles sharing only an edge intersect. This matches the
// usual MBR-filter semantics of spatial join literature, where borderline
// candidates are kept and resolved during refinement.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// DistTo returns the Euclidean distance between p and q.
func (p Point) DistTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// DistSqTo returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only call sites.
func (p Point) DistSqTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is a closed, axis-aligned rectangle with MinX <= MaxX and
// MinY <= MaxY. The zero Rect is the degenerate point at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R builds a Rect from two corner coordinates, normalizing the order so
// that the result is valid even if the corners are swapped.
func R(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// RectFromCenter returns the rectangle centered at p with half-extents hx
// and hy. Negative half-extents are treated as zero.
func RectFromCenter(p Point, hx, hy float64) Rect {
	if hx < 0 {
		hx = 0
	}
	if hy < 0 {
		hy = 0
	}
	return Rect{MinX: p.X - hx, MinY: p.Y - hy, MaxX: p.X + hx, MaxY: p.Y + hy}
}

// Valid reports whether r has non-inverted extents.
func (r Rect) Valid() bool {
	return r.MinX <= r.MaxX && r.MinY <= r.MaxY &&
		!math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Degenerate rectangles have area zero.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Perimeter returns the perimeter of r.
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Intersects reports whether r and s share at least one point
// (closed-rectangle semantics: touching edges intersect).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Contains reports whether s lies entirely inside r (edges included).
func (r Rect) Contains(s Rect) bool {
	return r.MinX <= s.MinX && s.MaxX <= r.MaxX &&
		r.MinY <= s.MinY && s.MaxY <= r.MaxY
}

// ContainsPoint reports whether p lies inside r (edges included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Intersection returns the overlap of r and s and whether it is non-empty.
// When the rectangles only touch, the result is a degenerate rectangle.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}, true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand grows r by d on every side (Minkowski sum with a 2d×2d square).
// A negative d shrinks r; the result is clamped to a degenerate rectangle
// at the center if the shrink exceeds the extent.
func (r Rect) Expand(d float64) Rect {
	out := Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
	if out.MinX > out.MaxX {
		c := (r.MinX + r.MaxX) / 2
		out.MinX, out.MaxX = c, c
	}
	if out.MinY > out.MaxY {
		c := (r.MinY + r.MaxY) / 2
		out.MinY, out.MaxY = c, c
	}
	return out
}

// DistToPoint returns the minimum Euclidean distance from p to r.
// It is zero when p lies inside r.
func (r Rect) DistToPoint(p Point) float64 {
	dx := max(0, r.MinX-p.X, p.X-r.MaxX)
	dy := max(0, r.MinY-p.Y, p.Y-r.MaxY)
	return math.Hypot(dx, dy)
}

// MaxDistToPoint returns the maximum Euclidean distance from p to any
// point of r — the distance to the farthest corner. Together with
// DistToPoint it brackets every point of r: if MaxDistToPoint(p) <= eps,
// the whole rectangle (and any rectangle contained in it) lies within eps
// of p.
func (r Rect) MaxDistToPoint(p Point) float64 {
	dx := math.Max(p.X-r.MinX, r.MaxX-p.X)
	dy := math.Max(p.Y-r.MinY, r.MaxY-p.Y)
	return math.Hypot(dx, dy)
}

// WithinDistOfPoint reports whether some point of r lies within
// Euclidean distance eps of p: the point form of WithinDist, and the one
// ε test of every layer — server, router and device alike decide with
// dx²+dy² <= eps², never with the rounded square root of DistToPoint.
func (r Rect) WithinDistOfPoint(p Point, eps float64) bool {
	return r.WithinDist(RectFromPoint(p), eps)
}

// InsideDistOfPoint reports whether every point of r lies within
// Euclidean distance eps of p: the farthest corner, squared. Rounding is
// monotone, so for any rectangle s inside r it implies
// s.WithinDistOfPoint(p, eps) exactly, not just up to rounding.
func (r Rect) InsideDistOfPoint(p Point, eps float64) bool {
	dx := max(p.X-r.MinX, r.MaxX-p.X)
	dy := max(p.Y-r.MinY, r.MaxY-p.Y)
	return dx*dx+dy*dy <= eps*eps
}

// MinDist returns the minimum Euclidean distance between r and s.
// It is zero when the rectangles intersect.
func (r Rect) MinDist(s Rect) float64 {
	dx := max(0, s.MinX-r.MaxX, r.MinX-s.MaxX)
	dy := max(0, s.MinY-r.MaxY, r.MinY-s.MaxY)
	return math.Hypot(dx, dy)
}

// WithinDist reports whether the minimum distance between r and s is at
// most eps. It avoids the square root of MinDist.
func (r Rect) WithinDist(s Rect, eps float64) bool {
	dx := max(0, s.MinX-r.MaxX, r.MinX-s.MaxX)
	dy := max(0, s.MinY-r.MaxY, r.MinY-s.MaxY)
	return dx*dx+dy*dy <= eps*eps
}

// Quadrant returns the i-th quadrant of r for i in [0,4), ordered
// row-major from the bottom-left: 0=SW, 1=SE, 2=NW, 3=NE.
func (r Rect) Quadrant(i int) Rect {
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	switch i {
	case 0:
		return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: cx, MaxY: cy}
	case 1:
		return Rect{MinX: cx, MinY: r.MinY, MaxX: r.MaxX, MaxY: cy}
	case 2:
		return Rect{MinX: r.MinX, MinY: cy, MaxX: cx, MaxY: r.MaxY}
	case 3:
		return Rect{MinX: cx, MinY: cy, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	panic(fmt.Sprintf("geom: quadrant index %d out of range [0,4)", i))
}

// Quadrants returns the four quadrants of r in the order SW, SE, NW, NE.
func (r Rect) Quadrants() [4]Rect {
	return [4]Rect{r.Quadrant(0), r.Quadrant(1), r.Quadrant(2), r.Quadrant(3)}
}

// Grid partitions r into a regular k×k grid and returns the k² cells in
// row-major order starting from the bottom-left cell. Cell boundaries are
// computed from exact fractions of the extents so that adjacent cells
// share edges without gaps. Grid panics if k < 1.
func (r Rect) Grid(k int) []Rect {
	if k < 1 {
		panic(fmt.Sprintf("geom: grid dimension %d < 1", k))
	}
	cells := make([]Rect, 0, k*k)
	w, h := r.Width(), r.Height()
	for row := 0; row < k; row++ {
		y0 := r.MinY + h*float64(row)/float64(k)
		y1 := r.MinY + h*float64(row+1)/float64(k)
		for col := 0; col < k; col++ {
			x0 := r.MinX + w*float64(col)/float64(k)
			x1 := r.MinX + w*float64(col+1)/float64(k)
			cells = append(cells, Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
		}
	}
	return cells
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4g,%.4g]x[%.4g,%.4g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g,%.4g)", p.X, p.Y) }
