package wire

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

// Decoders for repeated payloads come in two forms: DecodeXAppend appends
// the decoded records to a caller-provided slice (typically a per-handler
// scratch buffer) and allocates nothing when capacity suffices; DecodeX is
// the convenience form returning a fresh exact-length slice, except for
// DecodeObjects, whose window comes from bufpool.Objects. Decoded
// records never alias the frame, so the frame's buffer may be recycled
// (bufpool.Put) as soon as decoding returns.

// repeatedPayload validates the shared shape of every repeated-payload
// frame — a hdr-byte header whose last four bytes are the record count,
// followed by exactly n records of rec bytes — and returns n. what is
// the ErrShortFrame detail format (must contain one %d for the count).
// The per-record copy loops stay monomorphic at each call site: routing
// them through a func parameter costs an indirect call per record, which
// is measurable on the wire benchmark.
func repeatedPayload(frame []byte, want MsgType, hdr, rec int, what string) (int, error) {
	if err := check(frame, want, hdr); err != nil {
		return 0, err
	}
	n := int(le.Uint32(frame[hdr-4:]))
	if len(frame) != hdr+rec*n {
		return 0, fmt.Errorf("%w: "+what, ErrShortFrame, n)
	}
	return n, nil
}

// Header sizes of the two repeated-payload layouts: responses are
// [type][n:4]; eps-carrying requests are [type][eps:4][n:4].
const (
	replyHdr = 1 + 4
	epsHdr   = 1 + 4 + 4
)

// Type returns the message type of a frame without decoding the payload.
func Type(frame []byte) MsgType {
	if len(frame) == 0 {
		return MsgInvalid
	}
	return MsgType(frame[0])
}

func check(frame []byte, want MsgType, minLen int) error {
	if len(frame) < 1 {
		return ErrShortFrame
	}
	if MsgType(frame[0]) != want {
		return fmt.Errorf("%w: got %v, want %v", ErrBadType, MsgType(frame[0]), want)
	}
	if len(frame) < minLen {
		return fmt.Errorf("%w: %d bytes, need at least %d for %v", ErrShortFrame, len(frame), minLen, want)
	}
	return nil
}

// DecodeWindowLike decodes WINDOW, COUNT and AVG-AREA requests, which all
// carry a single rectangle.
func DecodeWindowLike(frame []byte, want MsgType) (geom.Rect, error) {
	if err := check(frame, want, 1+RectSize); err != nil {
		return geom.Rect{}, err
	}
	if len(frame) != 1+RectSize {
		return geom.Rect{}, ErrTrailing
	}
	return getRect(frame[1:]), nil
}

// DecodeRangeLike decodes RANGE and RANGE-COUNT requests.
func DecodeRangeLike(frame []byte, want MsgType) (geom.Point, float64, error) {
	if err := check(frame, want, 1+PointSize+4); err != nil {
		return geom.Point{}, 0, err
	}
	if len(frame) != 1+PointSize+4 {
		return geom.Point{}, 0, ErrTrailing
	}
	p := getPoint(frame[1:])
	eps := float64(f32(frame[1+PointSize:]))
	return p, eps, nil
}

func f32(b []byte) float32 {
	return math.Float32frombits(le.Uint32(b))
}

// DecodeBucketRangeLike decodes BUCKET-RANGE and BUCKET-RANGE-COUNT
// requests.
func DecodeBucketRangeLike(frame []byte, want MsgType) ([]geom.Point, float64, error) {
	return DecodeBucketRangeLikeAppend(frame, want, nil)
}

// DecodeBucketRangeLikeAppend is DecodeBucketRangeLike appending the probe
// points to dst.
func DecodeBucketRangeLikeAppend(frame []byte, want MsgType, dst []geom.Point) ([]geom.Point, float64, error) {
	n, err := repeatedPayload(frame, want, epsHdr, PointSize, "bucket of %d points")
	if err != nil {
		return dst, 0, err
	}
	dst = slices.Grow(dst, n)
	for off := epsHdr; n > 0; n, off = n-1, off+PointSize {
		dst = append(dst, getPoint(frame[off:]))
	}
	return dst, float64(f32(frame[1:])), nil
}

// DecodeMBRLevel decodes an MBR-LEVEL request.
func DecodeMBRLevel(frame []byte) (int, error) {
	if err := check(frame, MsgMBRLevel, 1+4); err != nil {
		return 0, err
	}
	return int(le.Uint32(frame[1:])), nil
}

// DecodeMBRMatch decodes an MBR-MATCH request.
func DecodeMBRMatch(frame []byte) ([]geom.Rect, float64, error) {
	return DecodeMBRMatchAppend(frame, nil)
}

// DecodeMBRMatchAppend is DecodeMBRMatch appending the rectangles to dst.
func DecodeMBRMatchAppend(frame []byte, dst []geom.Rect) ([]geom.Rect, float64, error) {
	n, err := repeatedPayload(frame, MsgMBRMatch, epsHdr, RectSize, "batch of %d rects")
	if err != nil {
		return dst, 0, err
	}
	dst = slices.Grow(dst, n)
	for off := epsHdr; n > 0; n, off = n-1, off+RectSize {
		dst = append(dst, getRect(frame[off:]))
	}
	return dst, float64(f32(frame[1:])), nil
}

// DecodeUploadJoin decodes an UPLOAD-JOIN request.
func DecodeUploadJoin(frame []byte) ([]geom.Object, float64, error) {
	return DecodeUploadJoinAppend(frame, nil)
}

// DecodeUploadJoinAppend is DecodeUploadJoin appending the objects to dst.
func DecodeUploadJoinAppend(frame []byte, dst []geom.Object) ([]geom.Object, float64, error) {
	n, err := repeatedPayload(frame, MsgUploadJoin, epsHdr, ObjectSize, "upload of %d objects")
	if err != nil {
		return dst, 0, err
	}
	dst = slices.Grow(dst, n)
	for off := epsHdr; n > 0; n, off = n-1, off+ObjectSize {
		dst = append(dst, getObject(frame[off:]))
	}
	return dst, float64(f32(frame[1:])), nil
}

// DecodeObjects decodes an OBJECTS response into a slice drawn from
// bufpool.Objects, nil when there are no objects. The window is the
// caller's: it hands it back with bufpool.Objects.Put once its objects
// are dead, or drops it.
func DecodeObjects(frame []byte) ([]geom.Object, error) {
	n, err := repeatedPayload(frame, MsgObjects, replyHdr, ObjectSize, "objects response of %d")
	if err != nil || n == 0 {
		return nil, err
	}
	return DecodeObjectsAppend(frame, bufpool.Objects.GetCap(n))
}

// DecodeObjectsAppend is DecodeObjects appending the objects to dst.
func DecodeObjectsAppend(frame []byte, dst []geom.Object) ([]geom.Object, error) {
	n, err := repeatedPayload(frame, MsgObjects, replyHdr, ObjectSize, "objects response of %d")
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for off := replyHdr; n > 0; n, off = n-1, off+ObjectSize {
		dst = append(dst, getObject(frame[off:]))
	}
	return dst, nil
}

// DecodeCountReply decodes a COUNT-REPLY response.
func DecodeCountReply(frame []byte) (int64, error) {
	if err := check(frame, MsgCountReply, 1+CountSize); err != nil {
		return 0, err
	}
	return int64(le.Uint64(frame[1:])), nil
}

// DecodeCountsReply decodes a COUNTS-REPLY response.
func DecodeCountsReply(frame []byte) ([]int64, error) {
	return DecodeCountsReplyAppend(frame, nil)
}

// DecodeCountsReplyAppend is DecodeCountsReply appending the counts to dst.
func DecodeCountsReplyAppend(frame []byte, dst []int64) ([]int64, error) {
	n, err := repeatedPayload(frame, MsgCountsReply, replyHdr, CountSize, "counts response of %d")
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for off := replyHdr; n > 0; n, off = n-1, off+CountSize {
		dst = append(dst, int64(le.Uint64(frame[off:])))
	}
	return dst, nil
}

// DecodeFloatReply decodes a FLOAT-REPLY response.
func DecodeFloatReply(frame []byte) (float64, error) {
	if err := check(frame, MsgFloatReply, 1+8); err != nil {
		return 0, err
	}
	return getFloat64(frame[1:]), nil
}

// DecodeBucketObjects decodes a BUCKET-OBJECTS response.
func DecodeBucketObjects(frame []byte) ([][]geom.Object, error) {
	g, err := BucketGroups(frame)
	if err != nil {
		return nil, err
	}
	groups := make([][]geom.Object, g.Len())
	for i := range groups {
		recs := g.Next()
		objs := make([]geom.Object, len(recs)/ObjectSize)
		for j := range objs {
			objs[j] = getObject(recs[j*ObjectSize:])
		}
		groups[i] = objs
	}
	return groups, nil
}

// ObjectGroups walks the groups of a BUCKET-OBJECTS frame that
// BucketGroups validated, in probe order.
type ObjectGroups struct {
	rest []byte // the groups not yet read: count header, then records
	left int
}

// BucketGroups validates a BUCKET-OBJECTS frame — it accepts exactly the
// frames DecodeBucketObjects accepts — and returns a walker over its
// groups. The walker hands out views into frame, so a router appends a
// group's records without decoding them.
func BucketGroups(frame []byte) (ObjectGroups, error) {
	if err := check(frame, MsgBucketObjects, 1+4); err != nil {
		return ObjectGroups{}, err
	}
	n := int(le.Uint32(frame[1:]))
	// Every group costs at least its 4-byte header: bound the count by
	// the frame before trusting it.
	if n > (len(frame)-5)/4 {
		return ObjectGroups{}, fmt.Errorf("%w: %d bucket groups in %d bytes", ErrShortFrame, n, len(frame))
	}
	off := 5
	for i := 0; i < n; i++ {
		if off+4 > len(frame) {
			return ObjectGroups{}, fmt.Errorf("%w: bucket group header %d", ErrShortFrame, i)
		}
		m := int(le.Uint32(frame[off:]))
		off += 4
		if m > (len(frame)-off)/ObjectSize {
			return ObjectGroups{}, fmt.Errorf("%w: bucket group %d of %d objects", ErrShortFrame, i, m)
		}
		off += ObjectSize * m
	}
	if off != len(frame) {
		return ObjectGroups{}, ErrTrailing
	}
	return ObjectGroups{rest: frame[5:], left: n}, nil
}

// Len returns the number of groups not yet read.
func (g *ObjectGroups) Len() int { return g.left }

// Peek returns the object count of the next group.
func (g *ObjectGroups) Peek() int { return int(le.Uint32(g.rest)) }

// Next returns the next group's object records, a view into the frame,
// and moves past it.
func (g *ObjectGroups) Next() []byte {
	end := 4 + ObjectSize*g.Peek()
	recs := g.rest[4:end:end]
	g.rest, g.left = g.rest[end:], g.left-1
	return recs
}

// records validates a list response — OBJECTS, RECTS or PAIRS; it
// accepts exactly the frames DecodeObjects, DecodeRects and DecodePairs
// accept — and returns its record count and its records' bytes, a view
// into frame.
func records(frame []byte, t MsgType) (int, []byte, error) {
	var rec int
	switch t {
	case MsgObjects:
		rec = ObjectSize
	case MsgRects:
		rec = RectSize
	case MsgPairs:
		rec = PairSize
	default:
		return 0, nil, fmt.Errorf("%w: %v is not a list response", ErrBadType, t)
	}
	n, err := repeatedPayload(frame, t, replyHdr, rec, "list response of %d records")
	if err != nil {
		return 0, nil, err
	}
	return n, frame[replyHdr:], nil
}

// DecodeInfoReply decodes an INFO-REPLY response.
func DecodeInfoReply(frame []byte) (Info, error) {
	if err := check(frame, MsgInfoReply, 1+8+RectSize+4+1); err != nil {
		return Info{}, err
	}
	return Info{
		Count:      int64(le.Uint64(frame[1:])),
		Bounds:     getRect(frame[9:]),
		TreeHeight: int32(le.Uint32(frame[9+RectSize:])),
		PointData:  frame[9+RectSize+4] == 1,
	}, nil
}

// DecodeRects decodes a RECTS response.
func DecodeRects(frame []byte) ([]geom.Rect, error) {
	return DecodeRectsAppend(frame, nil)
}

// DecodeRectsAppend is DecodeRects appending the rectangles to dst.
func DecodeRectsAppend(frame []byte, dst []geom.Rect) ([]geom.Rect, error) {
	n, err := repeatedPayload(frame, MsgRects, replyHdr, RectSize, "rects response of %d")
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for off := replyHdr; n > 0; n, off = n-1, off+RectSize {
		dst = append(dst, getRect(frame[off:]))
	}
	return dst, nil
}

// DecodePairs decodes a PAIRS response.
func DecodePairs(frame []byte) ([]geom.Pair, error) {
	return DecodePairsAppend(frame, nil)
}

// DecodePairsAppend is DecodePairs appending the pairs to dst.
func DecodePairsAppend(frame []byte, dst []geom.Pair) ([]geom.Pair, error) {
	n, err := repeatedPayload(frame, MsgPairs, replyHdr, PairSize, "pairs response of %d")
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for off := replyHdr; n > 0; n, off = n-1, off+PairSize {
		dst = append(dst, geom.Pair{RID: le.Uint32(frame[off:]), SID: le.Uint32(frame[off+4:])})
	}
	return dst, nil
}

// DecodeBatch decodes a batch envelope (MsgBatch or MsgBatchReply,
// selected by want) into its sub-frames.
func DecodeBatch(frame []byte, want MsgType) ([][]byte, error) {
	return DecodeBatchAppend(frame, want, nil)
}

// DecodeBatchAppend is DecodeBatch appending the sub-frames to dst. The
// returned sub-frames are zero-copy views into frame: they must not be
// used after the frame's buffer is recycled.
func DecodeBatchAppend(frame []byte, want MsgType, dst [][]byte) ([][]byte, error) {
	if want != MsgBatch && want != MsgBatchReply {
		return dst, fmt.Errorf("%w: %v is not a batch envelope", ErrBadType, want)
	}
	if err := check(frame, want, BatchHdr); err != nil {
		return dst, err
	}
	// Every entry needs at least its length prefix, so an envelope
	// advertising more entries than could possibly fit is rejected in O(1)
	// instead of looping (fuzzed frames routinely claim 4G entries). The
	// bound is computed in uint64: on 32-bit platforms a hostile count
	// would otherwise wrap int (or go negative) past the guard and panic
	// the slices.Grow below.
	n32 := le.Uint32(frame[1:])
	if uint64(n32)*BatchEntryHdr > uint64(len(frame)-BatchHdr) {
		return dst, fmt.Errorf("%w: batch of %d sub-frames in %d bytes", ErrShortFrame, n32, len(frame))
	}
	n := int(n32)
	dst = slices.Grow(dst, n)
	off := BatchHdr
	for i := 0; i < n; i++ {
		if len(frame)-off < BatchEntryHdr {
			return dst, fmt.Errorf("%w: batch entry %d header", ErrShortFrame, i)
		}
		m := int(le.Uint32(frame[off:]))
		off += BatchEntryHdr
		if m > len(frame)-off {
			return dst, fmt.Errorf("%w: batch entry %d of %d bytes", ErrShortFrame, i, m)
		}
		dst = append(dst, frame[off:off+m:off+m])
		off += m
	}
	if off != len(frame) {
		return dst, ErrTrailing
	}
	return dst, nil
}

// DecodeError decodes an ERROR response into a Go error.
func DecodeError(frame []byte) error {
	if err := check(frame, MsgError, 1+4); err != nil {
		return err
	}
	n := int(le.Uint32(frame[1:]))
	if len(frame) < 5+n {
		return ErrShortFrame
	}
	return &ServerError{Msg: string(frame[5 : 5+n])}
}

// ServerError is an error reported by a dataset server.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }
