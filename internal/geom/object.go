package geom

// Object is a spatial object as stored by the dataset servers and
// exchanged over the wire: an opaque identifier plus its minimum bounding
// rectangle. Point datasets use degenerate MBRs.
//
// Identifiers are unique within one dataset; the join algorithms use them
// for duplicate elimination and for pairing results.
type Object struct {
	ID  uint32
	MBR Rect
}

// PointObject builds an Object with a degenerate MBR at p.
func PointObject(id uint32, p Point) Object {
	return Object{ID: id, MBR: RectFromPoint(p)}
}

// IsPoint reports whether the object's MBR is degenerate (zero extent).
func (o Object) IsPoint() bool {
	return o.MBR.MinX == o.MBR.MaxX && o.MBR.MinY == o.MBR.MaxY
}

// Center returns the centroid of the object's MBR. For point objects this
// is the point itself.
func (o Object) Center() Point { return o.MBR.Center() }

// Pair is one result of a spatial join: the identifiers of the two
// qualifying objects, R-side first.
type Pair struct {
	RID, SID uint32
}

// RefPointEps returns the duplicate-avoidance reference point of a
// candidate pair of MBRs, following the reference-point technique of
// Dittrich and Seeger (ICDE 2000), generalized to distance joins: the
// bottom-left corner of the intersection of the two MBRs each expanded by
// eps/2 — the symmetric ε/2 expansion the paper applies to partition
// cells (§3). A pair is reported by the partition that contains its
// reference point, and by no other partition. For any pair within (box)
// distance eps the reference point is within box-distance eps/2 of both
// objects, so the pair is always discoverable from the partition cell
// containing the point once that cell's fetch windows are expanded by
// eps/2. With eps = 0 it is the corner of the MBRs' intersection.
//
// The corner is computed as max(a, b) − eps/2 per axis, which is the
// corner of the rounded expansions exactly (subtracting eps/2 is monotone
// under rounding), and it is defined for every pair the predicate
// accepts — also for a pair at exactly eps whose rounded expansions miss
// each other by an ulp.
func RefPointEps(a, b Rect, eps float64) Point {
	h := max(eps, 0) / 2
	return Point{X: max(a.MinX, b.MinX) - h, Y: max(a.MinY, b.MinY) - h}
}
