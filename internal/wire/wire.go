// Package wire defines the binary protocol spoken between the mobile
// client and the dataset servers, and the exact on-the-wire sizes of every
// message. All byte accounting in the repository derives from the
// encodings in this package.
//
// A message is a single frame:
//
//	[1 byte type][payload...]
//
// The transport layer (package netsim) is responsible for delivering whole
// frames and for charging the TCP/IP packetization overhead of Eq. (1) of
// the paper; this package only defines payload layouts.
//
// Layout conventions: little-endian; coordinates are float32 on the wire
// (the paper's PDA prototype used compact object records; 20-byte objects
// match the cost model default Bobj = 20); identifiers and cardinalities
// are uint32; money-free aggregate answers are int64 (BA = 8 bytes).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// MsgType identifies a frame's meaning.
type MsgType uint8

// Request message types. WINDOW, COUNT and RANGE are the primitive-query
// interface of the paper (§3). BUCKETRANGE is the bucket submission of
// §3.1. RANGECOUNT supports iceberg semi-joins (a COUNT over an ε-range,
// still a plain aggregate query for the server). AVGAREA returns the
// average object-MBR area intersecting a window (the extra aggregate
// mentioned in §3.1 for polygon data). The MBRLEVEL / MBRMATCH / UPLOADJOIN
// trio exists only for the SemiJoin comparator of §5.3 and models the
// index-publishing, cooperative protocol of Tan et al. [16].
const (
	MsgInvalid MsgType = iota
	MsgWindow
	MsgCount
	MsgRange
	MsgBucketRange
	MsgRangeCount
	MsgBucketRangeCount
	MsgAvgArea
	MsgInfo
	MsgMBRLevel
	MsgMBRMatch
	MsgUploadJoin

	// Response types.
	MsgObjects
	MsgCountReply
	MsgBucketObjects
	MsgCountsReply
	MsgFloatReply
	MsgInfoReply
	MsgRects
	MsgPairs
	MsgError

	// MsgBatch is the multiplexing envelope: one frame carrying any number
	// of complete request sub-frames, answered by one MsgBatchReply frame
	// carrying exactly one response sub-frame per sub-request, in order.
	// Batching amortizes the per-frame packet overhead of Eq. (1) — and,
	// on latency-bearing links, the round trip — across the batch. Batches
	// do not nest. The types are appended after the pre-batching ones so
	// that every existing frame is bit-identical on the wire.
	MsgBatch
	MsgBatchReply
)

// String implements fmt.Stringer for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgWindow:
		return "WINDOW"
	case MsgCount:
		return "COUNT"
	case MsgRange:
		return "RANGE"
	case MsgBucketRange:
		return "BUCKET-RANGE"
	case MsgRangeCount:
		return "RANGE-COUNT"
	case MsgBucketRangeCount:
		return "BUCKET-RANGE-COUNT"
	case MsgAvgArea:
		return "AVG-AREA"
	case MsgInfo:
		return "INFO"
	case MsgMBRLevel:
		return "MBR-LEVEL"
	case MsgMBRMatch:
		return "MBR-MATCH"
	case MsgUploadJoin:
		return "UPLOAD-JOIN"
	case MsgObjects:
		return "OBJECTS"
	case MsgCountReply:
		return "COUNT-REPLY"
	case MsgBucketObjects:
		return "BUCKET-OBJECTS"
	case MsgCountsReply:
		return "COUNTS-REPLY"
	case MsgFloatReply:
		return "FLOAT-REPLY"
	case MsgInfoReply:
		return "INFO-REPLY"
	case MsgRects:
		return "RECTS"
	case MsgPairs:
		return "PAIRS"
	case MsgError:
		return "ERROR"
	case MsgBatch:
		return "BATCH"
	case MsgBatchReply:
		return "BATCH-REPLY"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Fixed wire sizes in bytes.
const (
	// ObjectSize is the encoded size of one spatial object:
	// uint32 id + 4×float32 MBR. This is the cost model's default Bobj.
	ObjectSize = 4 + 4*4
	// RectSize is the encoded size of one rectangle.
	RectSize = 4 * 4
	// PointSize is the encoded size of one point.
	PointSize = 2 * 4
	// CountSize is the encoded size of one aggregate answer (BA).
	CountSize = 8
	// PairSize is the encoded size of one join-result pair.
	PairSize = 4 + 4
)

// Errors returned by the decoders.
var (
	ErrShortFrame = errors.New("wire: frame too short")
	ErrBadType    = errors.New("wire: unexpected message type")
	ErrTrailing   = errors.New("wire: trailing bytes after payload")
)

var le = binary.LittleEndian

// --- primitive encoders -------------------------------------------------

func putRect(b []byte, r geom.Rect) {
	le.PutUint32(b[0:], math.Float32bits(float32(r.MinX)))
	le.PutUint32(b[4:], math.Float32bits(float32(r.MinY)))
	le.PutUint32(b[8:], math.Float32bits(float32(r.MaxX)))
	le.PutUint32(b[12:], math.Float32bits(float32(r.MaxY)))
}

func getRect(b []byte) geom.Rect {
	return geom.Rect{
		MinX: float64(math.Float32frombits(le.Uint32(b[0:]))),
		MinY: float64(math.Float32frombits(le.Uint32(b[4:]))),
		MaxX: float64(math.Float32frombits(le.Uint32(b[8:]))),
		MaxY: float64(math.Float32frombits(le.Uint32(b[12:]))),
	}
}

func putPoint(b []byte, p geom.Point) {
	le.PutUint32(b[0:], math.Float32bits(float32(p.X)))
	le.PutUint32(b[4:], math.Float32bits(float32(p.Y)))
}

func getPoint(b []byte) geom.Point {
	return geom.Point{
		X: float64(math.Float32frombits(le.Uint32(b[0:]))),
		Y: float64(math.Float32frombits(le.Uint32(b[4:]))),
	}
}

func putObject(b []byte, o geom.Object) {
	le.PutUint32(b[0:], o.ID)
	putRect(b[4:], o.MBR)
}

func getObject(b []byte) geom.Object {
	return geom.Object{ID: le.Uint32(b[0:]), MBR: getRect(b[4:])}
}

func putFloat64(b []byte, f float64) { le.PutUint64(b, math.Float64bits(f)) }
func getFloat64(b []byte) float64    { return math.Float64frombits(le.Uint64(b)) }

// --- append-style encoding ------------------------------------------------

// Every frame encoder is append-style: AppendX appends the frame to a
// caller-provided buffer (typically obtained from package bufpool) and
// returns the extended slice, allocating nothing when capacity suffices.
// AppendX(nil, …) yields a fresh exact-content frame.

// grow extends dst by n bytes and returns the extended slice plus the
// n-byte window to fill.
func grow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	return dst, dst[l:]
}

// appendRectFrame appends a [type + rect] frame (WINDOW, COUNT, AVG-AREA).
func appendRectFrame(dst []byte, t MsgType, w geom.Rect) []byte {
	dst, b := grow(dst, 1+RectSize)
	b[0] = byte(t)
	putRect(b[1:], w)
	return dst
}

// AppendWindow appends a WINDOW query frame for window w.
// Frame: type + rect = 17 bytes.
func AppendWindow(dst []byte, w geom.Rect) []byte {
	return appendRectFrame(dst, MsgWindow, w)
}

// AppendCount appends a COUNT query frame for window w.
func AppendCount(dst []byte, w geom.Rect) []byte {
	return appendRectFrame(dst, MsgCount, w)
}

// AppendAvgArea appends an AVG-AREA aggregate query frame for window w.
func AppendAvgArea(dst []byte, w geom.Rect) []byte {
	return appendRectFrame(dst, MsgAvgArea, w)
}

func appendRangeFrame(dst []byte, t MsgType, p geom.Point, eps float64) []byte {
	dst, b := grow(dst, 1+PointSize+4)
	b[0] = byte(t)
	putPoint(b[1:], p)
	le.PutUint32(b[1+PointSize:], math.Float32bits(float32(eps)))
	return dst
}

// AppendRange appends an ε-RANGE query frame around point p.
// Frame: type + point + eps(float32) = 13 bytes.
func AppendRange(dst []byte, p geom.Point, eps float64) []byte {
	return appendRangeFrame(dst, MsgRange, p, eps)
}

// AppendRangeCount appends a COUNT-over-ε-range aggregate query frame.
func AppendRangeCount(dst []byte, p geom.Point, eps float64) []byte {
	return appendRangeFrame(dst, MsgRangeCount, p, eps)
}

func appendBucketRangeFrame(dst []byte, t MsgType, pts []geom.Point, eps float64) []byte {
	dst, b := grow(dst, 1+4+4+PointSize*len(pts))
	b[0] = byte(t)
	le.PutUint32(b[1:], math.Float32bits(float32(eps)))
	le.PutUint32(b[5:], uint32(len(pts)))
	off := 9
	for _, p := range pts {
		putPoint(b[off:], p)
		off += PointSize
	}
	return dst
}

// AppendBucketRange appends a bucket of ε-RANGE queries submitted at once
// (§3.1, "bucket queries"). Frame: type + eps + n + n points.
func AppendBucketRange(dst []byte, pts []geom.Point, eps float64) []byte {
	return appendBucketRangeFrame(dst, MsgBucketRange, pts, eps)
}

// AppendBucketRangeCount is the aggregate variant of AppendBucketRange:
// the server answers with one count per probe point instead of objects.
func AppendBucketRangeCount(dst []byte, pts []geom.Point, eps float64) []byte {
	return appendBucketRangeFrame(dst, MsgBucketRangeCount, pts, eps)
}

// AppendInfo appends a dataset-info request frame.
func AppendInfo(dst []byte) []byte { return append(dst, byte(MsgInfo)) }

// AppendMBRLevel appends a SemiJoin-only request frame for the MBRs of
// one R-tree level. Level 0 is the leaf level.
func AppendMBRLevel(dst []byte, level int) []byte {
	dst, b := grow(dst, 1+4)
	b[0] = byte(MsgMBRLevel)
	le.PutUint32(b[1:], uint32(level))
	return dst
}

// AppendMBRMatch appends a SemiJoin-only batch request frame: return all
// objects intersecting (or within eps of) any of the given rectangles.
func AppendMBRMatch(dst []byte, rects []geom.Rect, eps float64) []byte {
	dst, b := grow(dst, 1+4+4+RectSize*len(rects))
	b[0] = byte(MsgMBRMatch)
	le.PutUint32(b[1:], math.Float32bits(float32(eps)))
	le.PutUint32(b[5:], uint32(len(rects)))
	off := 9
	for _, r := range rects {
		putRect(b[off:], r)
		off += RectSize
	}
	return dst
}

// AppendUploadJoin appends a SemiJoin-only request frame: join the
// uploaded objects against the server's dataset with predicate distance
// ≤ eps (eps = 0 means MBR intersection) and return the qualifying pairs
// with the uploaded object's ID first.
func AppendUploadJoin(dst []byte, objs []geom.Object, eps float64) []byte {
	dst, b := grow(dst, 1+4+4+ObjectSize*len(objs))
	b[0] = byte(MsgUploadJoin)
	le.PutUint32(b[1:], math.Float32bits(float32(eps)))
	le.PutUint32(b[5:], uint32(len(objs)))
	off := 9
	for _, o := range objs {
		putObject(b[off:], o)
		off += ObjectSize
	}
	return dst
}

// AppendObjects appends an OBJECTS response frame.
func AppendObjects(dst []byte, objs []geom.Object) []byte {
	return AppendObjectRecords(AppendObjectsHeader(dst, len(objs)), objs)
}

// AppendObjectsHeader appends the header of an OBJECTS frame of n
// objects and reserves room for them. The caller appends exactly n
// object records: AppendObjectRecords, or bytes it produced earlier.
func AppendObjectsHeader(dst []byte, n int) []byte {
	dst = slices.Grow(dst, 1+4+ObjectSize*n)
	dst = append(dst, byte(MsgObjects))
	return le.AppendUint32(dst, uint32(n))
}

// AppendObjectRecords appends the ObjectSize-byte records of objs with
// no frame header: the payload of an OBJECTS frame, or of one group of a
// BUCKET-OBJECTS frame.
func AppendObjectRecords(dst []byte, objs []geom.Object) []byte {
	dst, b := grow(dst, ObjectSize*len(objs))
	for i, o := range objs {
		putObject(b[i*ObjectSize:], o)
	}
	return dst
}

// AppendList appends one list response of type t — OBJECTS, RECTS or
// PAIRS — that holds the records of every non-nil frame of parts, each
// a t response, in part order under one header. A routed list is its
// shards' replies concatenated so, never decoded. A malformed part is
// an error, and dst comes back unchanged.
func AppendList(dst []byte, t MsgType, parts [][]byte) ([]byte, error) {
	n, size := 0, replyHdr
	for _, f := range parts {
		if f == nil {
			continue
		}
		m, recs, err := records(f, t)
		if err != nil {
			return dst, err
		}
		n, size = n+m, size+len(recs)
	}
	dst = slices.Grow(dst, size)
	dst = le.AppendUint32(append(dst, byte(t)), uint32(n))
	for _, f := range parts {
		if f != nil {
			dst = append(dst, f[replyHdr:]...)
		}
	}
	return dst, nil
}

// AppendCountReply appends a single aggregate answer frame.
func AppendCountReply(dst []byte, n int64) []byte {
	dst, b := grow(dst, 1+CountSize)
	b[0] = byte(MsgCountReply)
	le.PutUint64(b[1:], uint64(n))
	return dst
}

// AppendCountsReply appends one aggregate answer per probe of a bucket
// aggregate request.
func AppendCountsReply(dst []byte, ns []int64) []byte {
	dst, b := grow(dst, 1+4+CountSize*len(ns))
	b[0] = byte(MsgCountsReply)
	le.PutUint32(b[1:], uint32(len(ns)))
	off := 5
	for _, n := range ns {
		le.PutUint64(b[off:], uint64(n))
		off += CountSize
	}
	return dst
}

// AppendFloatReply appends a floating-point aggregate answer (AVG-AREA).
func AppendFloatReply(dst []byte, f float64) []byte {
	dst, b := grow(dst, 1+8)
	b[0] = byte(MsgFloatReply)
	putFloat64(b[1:], f)
	return dst
}

// AppendBucketObjects appends the response frame to a bucket ε-RANGE
// request: for each probe, the number of result objects followed by the
// objects, concatenated in probe order. This matches Eq. (5): each
// probe's answer carries an extra per-probe record (the count header).
func AppendBucketObjects(dst []byte, groups [][]geom.Object) []byte {
	size := 1 + 4
	for _, g := range groups {
		size += 4 + ObjectSize*len(g)
	}
	dst = AppendBucketObjectsHeader(slices.Grow(dst, size), len(groups))
	for _, g := range groups {
		dst = AppendObjectRecords(AppendBucketGroupHeader(dst, len(g)), g)
	}
	return dst
}

// AppendBucketObjectsHeader appends the header of a BUCKET-OBJECTS frame
// of the given number of groups. The caller appends each group: its
// AppendBucketGroupHeader, then its object records.
func AppendBucketObjectsHeader(dst []byte, groups int) []byte {
	dst = append(dst, byte(MsgBucketObjects))
	return le.AppendUint32(dst, uint32(groups))
}

// AppendBucketGroupHeader appends the count header of one group of n
// objects of a BUCKET-OBJECTS frame and reserves room for them.
func AppendBucketGroupHeader(dst []byte, n int) []byte {
	dst = slices.Grow(dst, 4+ObjectSize*n)
	return le.AppendUint32(dst, uint32(n))
}

// AppendRects appends a RECTS response frame (R-tree level MBRs).
func AppendRects(dst []byte, rects []geom.Rect) []byte {
	dst, b := grow(dst, 1+4+RectSize*len(rects))
	b[0] = byte(MsgRects)
	le.PutUint32(b[1:], uint32(len(rects)))
	off := 5
	for _, r := range rects {
		putRect(b[off:], r)
		off += RectSize
	}
	return dst
}

// AppendPairs appends a PAIRS response frame (UPLOAD-JOIN results).
func AppendPairs(dst []byte, pairs []geom.Pair) []byte {
	dst, b := grow(dst, 1+4+PairSize*len(pairs))
	b[0] = byte(MsgPairs)
	le.PutUint32(b[1:], uint32(len(pairs)))
	off := 5
	for _, p := range pairs {
		le.PutUint32(b[off:], p.RID)
		le.PutUint32(b[off+4:], p.SID)
		off += PairSize
	}
	return dst
}

// AppendInfoReply appends a dataset-metadata response frame.
func AppendInfoReply(dst []byte, info Info) []byte {
	dst, b := grow(dst, 1+8+RectSize+4+1)
	b[0] = byte(MsgInfoReply)
	le.PutUint64(b[1:], uint64(info.Count))
	putRect(b[9:], info.Bounds)
	le.PutUint32(b[9+RectSize:], uint32(info.TreeHeight))
	if info.PointData {
		b[9+RectSize+4] = 1
	} else {
		b[9+RectSize+4] = 0
	}
	return dst
}

// --- batch envelope -------------------------------------------------------

// The batch envelope layout is shared by MsgBatch and MsgBatchReply:
//
//	[type:1][n:4] then n × ([len:4][sub-frame bytes])
//
// Each sub-frame is a complete frame of this protocol (type byte
// included). Request envelopes carry request sub-frames; reply envelopes
// carry one response sub-frame per sub-request, in submission order — a
// sub-request the server cannot answer yields a MsgError *sub*-frame, so
// one bad probe never fails its batch-mates.

// BatchHdr is the fixed envelope overhead and BatchEntryHdr the per-sub
// overhead, exposed so cost accounting and tests can reason about the
// amortization arithmetic.
const (
	BatchHdr      = 1 + 4
	BatchEntryHdr = 4
)

func appendBatchFrame(dst []byte, t MsgType, subs [][]byte) []byte {
	size := BatchHdr
	for _, s := range subs {
		size += BatchEntryHdr + len(s)
	}
	dst, b := grow(dst, size)
	b[0] = byte(t)
	le.PutUint32(b[1:], uint32(len(subs)))
	off := BatchHdr
	for _, s := range subs {
		le.PutUint32(b[off:], uint32(len(s)))
		off += BatchEntryHdr
		copy(b[off:], s)
		off += len(s)
	}
	return dst
}

// AppendBatch appends a MsgBatch request envelope around the given
// request sub-frames.
func AppendBatch(dst []byte, subs [][]byte) []byte {
	return appendBatchFrame(dst, MsgBatch, subs)
}

// AppendBatchReply appends a MsgBatchReply envelope around the given
// response sub-frames.
func AppendBatchReply(dst []byte, subs [][]byte) []byte {
	return appendBatchFrame(dst, MsgBatchReply, subs)
}

// AppendBatchReplyHeader appends the envelope header of a MsgBatchReply
// that will carry n sub-replies. Servers build replies incrementally:
// header, then for each sub-request BeginBatchEntry / append the reply /
// EndBatchEntry — so sub-replies of unknown size are encoded straight
// into the caller's buffer without intermediate copies.
func AppendBatchReplyHeader(dst []byte, n int) []byte {
	dst, b := grow(dst, BatchHdr)
	b[0] = byte(MsgBatchReply)
	le.PutUint32(b[1:], uint32(n))
	return dst
}

// BeginBatchEntry reserves the 4-byte length prefix of the next batch
// entry and returns the extended slice plus the prefix offset to hand to
// EndBatchEntry once the entry's sub-frame has been appended.
func BeginBatchEntry(dst []byte) ([]byte, int) {
	off := len(dst)
	dst, b := grow(dst, BatchEntryHdr)
	le.PutUint32(b, 0)
	return dst, off
}

// EndBatchEntry patches the length prefix reserved at off with the size
// of the bytes appended since.
func EndBatchEntry(dst []byte, off int) []byte {
	le.PutUint32(dst[off:], uint32(len(dst)-off-BatchEntryHdr))
	return dst
}

// AppendError appends a server-side error frame.
func AppendError(dst []byte, msg string) []byte {
	dst, b := grow(dst, 1+4+len(msg))
	b[0] = byte(MsgError)
	le.PutUint32(b[1:], uint32(len(msg)))
	copy(b[5:], msg)
	return dst
}

// Info is the public dataset metadata a server advertises.
type Info struct {
	Count      int64     // dataset cardinality
	Bounds     geom.Rect // dataset bounding rectangle
	TreeHeight int32     // R-tree height (published only for SemiJoin runs)
	PointData  bool      // true when every object has a degenerate MBR
}
