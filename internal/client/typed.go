package client

import (
	"context"

	"repro/internal/bufpool"
	"repro/internal/geom"
	"repro/internal/wire"
)

// Doer is the request/reply seam every layer of the probe stack
// implements: one request frame in, one reply frame out, priced per
// frame by Eq. (1). Ownership of req passes to Do, which recycles it; the
// caller owns the returned frame and releases it with bufpool.Put once
// decoded. A server-side failure (a MsgError reply) surfaces as an
// error, never as a frame.
//
// *Remote is the leaf implementation (one metered link). The shard
// layers — replica set, router (an aggregation-tree node is a router
// that also meters its uplink) — and the tenant wrapper each implement
// Do to add their one concern (pick/hedge/failover, scatter–merge,
// tenant stamp) and embed Typed for the query surface.
type Doer interface {
	Do(ctx context.Context, req []byte) ([]byte, error)
}

// Typed is the paper's primitive-query surface (§3) written once over
// the seam: every call is encode → Do → decode. Layers embed it, bound
// to themselves, so they satisfy core.Probe by implementing Do alone.
type Typed struct{ d Doer }

// NewTyped binds the typed query surface to d.
func NewTyped(d Doer) Typed { return Typed{d} }

// reply decodes and releases a reply frame (err is Do's).
func reply[T any](resp []byte, err error, decode func([]byte) (T, error)) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(resp)
	bufpool.Put(resp)
	return v, err
}

func decodeCount(resp []byte) (int, error) {
	n, err := wire.DecodeCountReply(resp)
	return int(n), err
}

// Window returns all objects intersecting w. The window is drawn from
// bufpool.Objects and owned by the caller (wire.DecodeObjects).
func (t Typed) Window(ctx context.Context, w geom.Rect) ([]geom.Object, error) {
	resp, err := t.d.Do(ctx, wire.AppendWindow(bufpool.Get(), w))
	return reply(resp, err, wire.DecodeObjects)
}

// Count returns the number of objects intersecting w.
func (t Typed) Count(ctx context.Context, w geom.Rect) (int, error) {
	resp, err := t.d.Do(ctx, wire.AppendCount(bufpool.Get(), w))
	return reply(resp, err, decodeCount)
}

// AvgArea returns the mean MBR area of objects intersecting w.
func (t Typed) AvgArea(ctx context.Context, w geom.Rect) (float64, error) {
	resp, err := t.d.Do(ctx, wire.AppendAvgArea(bufpool.Get(), w))
	return reply(resp, err, wire.DecodeFloatReply)
}

// Range returns the objects within distance eps of p.
func (t Typed) Range(ctx context.Context, p geom.Point, eps float64) ([]geom.Object, error) {
	resp, err := t.d.Do(ctx, wire.AppendRange(bufpool.Get(), p, eps))
	return reply(resp, err, wire.DecodeObjects)
}

// RangeCount returns the number of objects within distance eps of p.
func (t Typed) RangeCount(ctx context.Context, p geom.Point, eps float64) (int, error) {
	resp, err := t.d.Do(ctx, wire.AppendRangeCount(bufpool.Get(), p, eps))
	return reply(resp, err, decodeCount)
}

// BucketRange submits many ε-range probes at once and returns one result
// group per probe, in probe order.
func (t Typed) BucketRange(ctx context.Context, pts []geom.Point, eps float64) ([][]geom.Object, error) {
	resp, err := t.d.Do(ctx, wire.AppendBucketRange(bufpool.Get(), pts, eps))
	return reply(resp, err, wire.DecodeBucketObjects)
}

// BucketRangeCount submits many aggregate ε-range probes at once.
func (t Typed) BucketRangeCount(ctx context.Context, pts []geom.Point, eps float64) ([]int64, error) {
	resp, err := t.d.Do(ctx, wire.AppendBucketRangeCount(bufpool.Get(), pts, eps))
	return reply(resp, err, wire.DecodeCountsReply)
}

// Info returns the relation's advertised metadata.
func (t Typed) Info(ctx context.Context) (wire.Info, error) {
	resp, err := t.d.Do(ctx, wire.AppendInfo(bufpool.Get()))
	return reply(resp, err, wire.DecodeInfoReply)
}

// LevelMBRs returns the MBRs of one R-tree level (SemiJoin only; the
// server refuses unless it publishes its index).
func (t Typed) LevelMBRs(ctx context.Context, level int) ([]geom.Rect, error) {
	resp, err := t.d.Do(ctx, wire.AppendMBRLevel(bufpool.Get(), level))
	return reply(resp, err, wire.DecodeRects)
}

// MBRMatch returns the distinct objects intersecting (within eps of) any
// of the rects (SemiJoin only).
func (t Typed) MBRMatch(ctx context.Context, rects []geom.Rect, eps float64) ([]geom.Object, error) {
	resp, err := t.d.Do(ctx, wire.AppendMBRMatch(bufpool.Get(), rects, eps))
	return reply(resp, err, wire.DecodeObjects)
}

// UploadJoin ships objects to the relation, which joins them against its
// dataset and returns pairs with the uploaded ID first (SemiJoin only).
func (t Typed) UploadJoin(ctx context.Context, objs []geom.Object, eps float64) ([]geom.Pair, error) {
	resp, err := t.d.Do(ctx, wire.AppendUploadJoin(bufpool.Get(), objs, eps))
	return reply(resp, err, wire.DecodePairs)
}
