// Package server implements a non-cooperative spatial dataset server: it
// holds one dataset indexed by an aggregate R-tree and answers the
// primitive queries of the paper (§3) — WINDOW, COUNT, ε-RANGE — plus the
// bucket and aggregate variants of §3.1, over any transport from package
// netsim.
//
// Servers never expose their index to normal clients. The SemiJoin
// comparator of §5.3 requires an index-publishing, cooperative protocol;
// those message types are answered only when the server is constructed
// with PublishIndex, mirroring the paper's observation that "in practice,
// SemiJoin cannot be applied in our problem".
//
// The dataset is wire-encoded once, at New, in the tree's packed order,
// so a WINDOW, RANGE or BUCKET-RANGE reply is a header plus copies of the
// byte spans the aR-tree's traversal yields: a subtree the query covers
// leaves as one copy, never visited object by object. The handlers are
// allocation-free in steady state: requests decode into pooled
// per-handler scratch buffers and replies are appended into the
// caller-provided buffer (HandleAppend), so a serving loop that recycles
// its frame buffers (as both netsim transports do) stays off the
// allocator entirely.
package server

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/memjoin"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Server answers wire-protocol requests for one spatial dataset.
// It implements netsim.Handler and netsim.AppendHandler and is safe for
// concurrent requests (the tree is immutable after construction; mutable
// per-request state lives in pooled scratch).
type Server struct {
	name         string
	tree         *rtree.Tree
	publishIndex bool
	pointData    bool

	// enc is the tree's packed objects, wire-encoded: the record of
	// tree.Objects()[i] is enc[i*wire.ObjectSize:][:wire.ObjectSize].
	enc []byte
	// maxID sizes the scratch bitset used for MBR-MATCH deduplication
	// when denseIDs holds; dataset ids are dense in practice (datagen
	// numbers them 0..n-1), but nothing enforces that, so sparse id
	// spaces fall back to map-based dedup instead of a maxID-sized
	// bitset.
	maxID    uint32
	denseIDs bool
}

// handlerScratch is the reusable per-request state of one in-flight
// Handle call. Every slice is truncated, never freed, so each field
// converges to its workload high-water mark.
type handlerScratch struct {
	objs    []geom.Object   // MBR-MATCH results
	spans   []rtree.Span    // the spans of one query's answer
	pts     []geom.Point    // decoded bucket probe points
	rects   []geom.Rect     // decoded MBR-MATCH rectangles
	up      []geom.Object   // decoded UPLOAD-JOIN objects
	counts  []int64         // bucket aggregate answers
	pairs   []geom.Pair     // UPLOAD-JOIN results
	seen    []uint64        // MBR-MATCH dedup bitset (dense id spaces)
	seenMap map[uint32]bool // MBR-MATCH dedup fallback (sparse id spaces)
	subs    [][]byte        // decoded MsgBatch sub-frame views
	joiner  *memjoin.Joiner
}

// scratchPool is every server's: a scratch is sized by its requests, not
// by its server, and one goroutine that answers many servers in turn (an
// inline scatter) keeps hitting one shared pool where a pool per server
// would miss whenever the goroutine changes P.
var scratchPool = sync.Pool{New: func() any { return &handlerScratch{joiner: memjoin.NewJoiner()} }}

// Option configures a Server.
type Option func(*Server)

// PublishIndex enables the cooperative SemiJoin message types
// (MBR-LEVEL, MBR-MATCH, UPLOAD-JOIN). Off by default.
func PublishIndex() Option {
	return func(s *Server) { s.publishIndex = true }
}

// New builds a server named name (diagnostics only) over the given
// objects, bulk-loading the aR-tree.
func New(name string, objs []geom.Object, opts ...Option) *Server {
	s := &Server{name: name, tree: rtree.Bulk(objs), pointData: true}
	s.enc = wire.AppendObjectRecords(nil, s.tree.Objects())
	for _, o := range objs {
		if !o.IsPoint() {
			s.pointData = false
		}
		if o.ID > s.maxID {
			s.maxID = o.ID
		}
	}
	// The bitset costs maxID/64 words per scratch, which is only a win
	// while ids stay within a small multiple of the cardinality.
	s.denseIDs = int64(s.maxID) <= 4*int64(len(objs))+1024
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the diagnostic name.
func (s *Server) Name() string { return s.name }

// Len returns the dataset cardinality.
func (s *Server) Len() int { return s.tree.Len() }

// Tree exposes the underlying index for in-process white-box tests.
func (s *Server) Tree() *rtree.Tree { return s.tree }

// Handle implements netsim.Handler: decode one request frame, answer one
// freshly allocated response frame. Transports that recycle buffers use
// HandleAppend instead; both produce bit-identical frames.
func (s *Server) Handle(req []byte) []byte {
	return s.HandleAppend(req, nil)
}

// HandleAppend implements netsim.AppendHandler: decode one request frame
// and append exactly one response frame to dst, returning the extended
// slice. Malformed or unsupported requests produce MsgError frames rather
// than panics, so a misbehaving client cannot crash the server. The
// request frame is not retained, and with a capacious dst the call does
// not allocate.
func (s *Server) HandleAppend(req, dst []byte) []byte {
	sc := scratchPool.Get().(*handlerScratch)
	defer scratchPool.Put(sc)

	if wire.Type(req) == wire.MsgBatch {
		return s.handleBatch(req, dst, sc)
	}
	return s.handleOne(req, dst, sc)
}

// handleBatch answers a MsgBatch envelope: one MsgBatchReply carrying one
// response sub-frame per sub-request, in order. Sub-requests are handled
// independently — a malformed, unsupported, or refused sub-request yields
// a MsgError *sub*-frame in its slot while its batch-mates are answered
// normally; only a malformed envelope fails the frame as a whole. The
// scratch is reused across sub-requests (each handler resets the fields
// it touches), so a batch of N probes costs the same server-side state as
// N separate frames.
func (s *Server) handleBatch(req, dst []byte, sc *handlerScratch) []byte {
	// The sub views alias the request frame; drop them before returning —
	// on the error path too, where the decoder may have appended some
	// views before failing — so the pooled scratch does not pin the
	// transport's recycled buffer.
	defer func() {
		for i := range sc.subs {
			sc.subs[i] = nil
		}
	}()
	var err error
	sc.subs, err = wire.DecodeBatchAppend(req, wire.MsgBatch, sc.subs[:0])
	if err != nil {
		return wire.AppendError(dst, err.Error())
	}
	dst = wire.AppendBatchReplyHeader(dst, len(sc.subs))
	for _, sub := range sc.subs {
		var off int
		dst, off = wire.BeginBatchEntry(dst)
		if wire.Type(sub) == wire.MsgBatch {
			dst = wire.AppendError(dst, s.name+": nested batch")
		} else {
			dst = s.handleOne(sub, dst, sc)
		}
		dst = wire.EndBatchEntry(dst, off)
	}
	return dst
}

// handleOne answers a single (non-batch) request frame into dst.
func (s *Server) handleOne(req, dst []byte, sc *handlerScratch) []byte {
	switch wire.Type(req) {
	case wire.MsgWindow:
		w, err := wire.DecodeWindowLike(req, wire.MsgWindow)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		sc.spans = s.tree.WindowSpans(w, sc.spans[:0])
		return s.appendSpans(wire.AppendObjectsHeader(dst, spanLen(sc.spans)), sc.spans)

	case wire.MsgCount:
		w, err := wire.DecodeWindowLike(req, wire.MsgCount)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		return wire.AppendCountReply(dst, int64(s.tree.Count(w)))

	case wire.MsgAvgArea:
		w, err := wire.DecodeWindowLike(req, wire.MsgAvgArea)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		return wire.AppendFloatReply(dst, s.tree.AvgArea(w))

	case wire.MsgRange:
		p, eps, err := wire.DecodeRangeLike(req, wire.MsgRange)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		sc.spans = s.tree.RangeSpans(p, eps, sc.spans[:0])
		return s.appendSpans(wire.AppendObjectsHeader(dst, spanLen(sc.spans)), sc.spans)

	case wire.MsgRangeCount:
		p, eps, err := wire.DecodeRangeLike(req, wire.MsgRangeCount)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		return wire.AppendCountReply(dst, int64(s.tree.CountDist(p, eps)))

	case wire.MsgBucketRange:
		var eps float64
		var err error
		sc.pts, eps, err = wire.DecodeBucketRangeLikeAppend(req, wire.MsgBucketRange, sc.pts[:0])
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		dst = wire.AppendBucketObjectsHeader(dst, len(sc.pts))
		for _, p := range sc.pts {
			sc.spans = s.tree.RangeSpans(p, eps, sc.spans[:0])
			dst = s.appendSpans(wire.AppendBucketGroupHeader(dst, spanLen(sc.spans)), sc.spans)
		}
		return dst

	case wire.MsgBucketRangeCount:
		var eps float64
		var err error
		sc.pts, eps, err = wire.DecodeBucketRangeLikeAppend(req, wire.MsgBucketRangeCount, sc.pts[:0])
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		sc.counts = sc.counts[:0]
		for _, p := range sc.pts {
			sc.counts = append(sc.counts, int64(s.tree.CountDist(p, eps)))
		}
		return wire.AppendCountsReply(dst, sc.counts)

	case wire.MsgInfo:
		info := wire.Info{
			Count:     int64(s.tree.Len()),
			Bounds:    s.tree.Bounds(),
			PointData: s.pointData,
		}
		if s.publishIndex {
			info.TreeHeight = int32(s.tree.Height())
		}
		return wire.AppendInfoReply(dst, info)

	case wire.MsgMBRLevel:
		if !s.publishIndex {
			return wire.AppendError(dst, s.name+" does not publish its index")
		}
		level, err := wire.DecodeMBRLevel(req)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		mbrs, err := s.tree.LevelMBRs(level)
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		return wire.AppendRects(dst, mbrs)

	case wire.MsgMBRMatch:
		if !s.publishIndex {
			return wire.AppendError(dst, s.name+" does not publish its index")
		}
		var eps float64
		var err error
		sc.rects, eps, err = wire.DecodeMBRMatchAppend(req, sc.rects[:0])
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		sc.objs = s.matchMBRs(sc, sc.rects, eps)
		return wire.AppendObjects(dst, sc.objs)

	case wire.MsgUploadJoin:
		if !s.publishIndex {
			return wire.AppendError(dst, s.name+" does not accept uploads")
		}
		var eps float64
		var err error
		sc.up, eps, err = wire.DecodeUploadJoinAppend(req, sc.up[:0])
		if err != nil {
			return wire.AppendError(dst, err.Error())
		}
		return wire.AppendPairs(dst, s.uploadJoin(sc, sc.up, eps))

	default:
		return wire.AppendError(dst, fmt.Sprintf("%s: unsupported request %v", s.name, wire.Type(req)))
	}
}

// appendSpans appends the pre-encoded records of the spans' objects.
func (s *Server) appendSpans(dst []byte, spans []rtree.Span) []byte {
	for _, sp := range spans {
		dst = append(dst, s.enc[sp.Lo*wire.ObjectSize:sp.Hi*wire.ObjectSize]...)
	}
	return dst
}

// spanLen returns the number of objects the spans hold.
func spanLen(spans []rtree.Span) int {
	n := 0
	for _, sp := range spans {
		n += sp.Hi - sp.Lo
	}
	return n
}

// matchMBRs collects into sc.objs the distinct objects intersecting
// (within eps of) any of the rects, in first-seen traversal order —
// identical to the historical map-based implementation. Dense id spaces
// dedup through the scratch bitset; sparse ones (where a maxID-sized
// bitset would dwarf the dataset) fall back to the scratch map, which
// scales with the result instead.
func (s *Server) matchMBRs(sc *handlerScratch, rects []geom.Rect, eps float64) []geom.Object {
	var dedup func(id uint32) bool // reports first sighting
	if s.denseIDs {
		words := int(s.maxID/64) + 1
		if cap(sc.seen) < words {
			sc.seen = make([]uint64, words)
		} else {
			sc.seen = sc.seen[:words]
			for i := range sc.seen {
				sc.seen[i] = 0
			}
		}
		dedup = func(id uint32) bool {
			if sc.seen[id/64]&(1<<(id%64)) != 0 {
				return false
			}
			sc.seen[id/64] |= 1 << (id % 64)
			return true
		}
	} else {
		if sc.seenMap == nil {
			sc.seenMap = make(map[uint32]bool)
		} else {
			clear(sc.seenMap)
		}
		dedup = func(id uint32) bool {
			if sc.seenMap[id] {
				return false
			}
			sc.seenMap[id] = true
			return true
		}
	}
	out := sc.objs[:0]
	for _, r := range rects {
		q := r
		if eps > 0 {
			q = r.Expand(eps)
		}
		r := r
		s.tree.SearchFunc(q, func(o geom.Object) bool {
			if eps > 0 && !o.MBR.WithinDist(r, eps) {
				return true
			}
			if dedup(o.ID) {
				out = append(out, o)
			}
			return true
		})
	}
	sc.objs = out
	return out
}

// uploadJoin joins uploaded objects against the local dataset and returns
// pairs (uploaded ID first). It reuses the device-side grid join through
// the scratch's Joiner and pair buffer.
func (s *Server) uploadJoin(sc *handlerScratch, objs []geom.Object, eps float64) []geom.Pair {
	pred := memjoin.Intersection()
	if eps > 0 {
		pred = memjoin.WithinDist(eps)
	}
	sc.pairs = sc.joiner.GridJoin(objs, s.tree.Objects(), pred, memjoin.Options{}, sc.pairs[:0])
	sc.pairs = memjoin.DedupPairs(sc.pairs)
	return sc.pairs
}
