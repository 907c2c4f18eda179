package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/geom"
)

// The decoders are the trust boundary of the server and of the client's
// reply demultiplexer: every frame that arrives off a socket goes through
// them before anything else touches it. The fuzz targets below assert the
// two properties the rest of the stack relies on: no input can panic a
// decoder, and an input a decoder accepts re-encodes to the same bytes
// (so accepted frames are canonical and metering is well defined).
//
// CI runs each target briefly (make fuzz); longer local runs:
//
//	go test -run '^$' -fuzz FuzzDecodeBatch -fuzztime 60s ./internal/wire

func FuzzDecodeBatch(f *testing.F) {
	f.Add(AppendBatch(nil, nil))
	f.Add(AppendBatch(nil, [][]byte{AppendInfo(nil)}))
	f.Add(AppendBatch(nil, [][]byte{
		AppendCount(nil, geom.R(0, 0, 10, 10)),
		AppendRange(nil, geom.Pt(1, 2), 3),
		AppendBucketRange(nil, []geom.Point{{X: 1, Y: 2}}, 5),
	}))
	f.Add(AppendBatchReply(nil, [][]byte{AppendCountReply(nil, 7), AppendError(nil, "x")}))
	f.Add([]byte{byte(MsgBatch), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, want := range []MsgType{MsgBatch, MsgBatchReply} {
			subs, err := DecodeBatch(frame, want)
			if err != nil {
				continue
			}
			// Round-trip: an accepted envelope is canonical.
			re := appendBatchFrame(nil, want, subs)
			if !bytes.Equal(re, frame) {
				t.Fatalf("re-encode differs:\n in %x\nout %x", frame, re)
			}
		}
	})
}

func FuzzDecodeRequests(f *testing.F) {
	f.Add(AppendWindow(nil, geom.R(0, 0, 1, 1)))
	f.Add(AppendCount(nil, geom.R(-5, -5, 5, 5)))
	f.Add(AppendRange(nil, geom.Pt(3, 4), 2.5))
	f.Add(AppendBucketRange(nil, []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}, 9))
	f.Add(AppendMBRMatch(nil, []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}, 2))
	f.Add(AppendUploadJoin(nil, []geom.Object{geom.PointObject(1, geom.Pt(5, 6))}, 0))
	f.Add(AppendMBRLevel(nil, 2))
	f.Fuzz(func(t *testing.T, frame []byte) {
		// None of these may panic, whatever the bytes.
		DecodeWindowLike(frame, MsgWindow)
		DecodeWindowLike(frame, MsgCount)
		DecodeWindowLike(frame, MsgAvgArea)
		DecodeRangeLike(frame, MsgRange)
		DecodeRangeLike(frame, MsgRangeCount)
		DecodeBucketRangeLike(frame, MsgBucketRange)
		DecodeBucketRangeLike(frame, MsgBucketRangeCount)
		DecodeMBRLevel(frame)
		DecodeMBRMatch(frame)
		DecodeUploadJoin(frame)
	})
}

// hugeBucketCount is the 6-byte frame FuzzDecodeResponses found: a
// BUCKET-OBJECTS reply that announces 2^32-1 groups and carries none.
var hugeBucketCount = []byte{byte(MsgBucketObjects), 0xff, 0xff, 0xff, 0xff, 0}

// TestDecodeBucketObjectsBoundsGroupCount: the announced group count is
// checked against the frame length before it sizes an allocation.
func TestDecodeBucketObjectsBoundsGroupCount(t *testing.T) {
	if _, err := DecodeBucketObjects(hugeBucketCount); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("decoding a 6-byte frame announcing 2^32-1 groups: %v, want ErrShortFrame", err)
	}
	// The bound is tight: as many empty groups as the frame has headers for.
	if got, err := DecodeBucketObjects(AppendBucketObjects(nil, make([][]geom.Object, 3))); err != nil || len(got) != 3 {
		t.Fatalf("three empty groups: %d groups, %v", len(got), err)
	}
}

func FuzzDecodeResponses(f *testing.F) {
	f.Add(AppendObjects(nil, []geom.Object{geom.PointObject(9, geom.Pt(1, 1))}))
	f.Add(AppendCountReply(nil, -3))
	f.Add(AppendCountsReply(nil, []int64{1, 2, 3}))
	f.Add(AppendFloatReply(nil, 3.14))
	f.Add(AppendBucketObjects(nil, [][]geom.Object{nil, {geom.PointObject(1, geom.Pt(0, 0))}}))
	f.Add(AppendInfoReply(nil, Info{Count: 10, TreeHeight: 2, PointData: true}))
	f.Add(AppendRects(nil, []geom.Rect{{MaxX: 1, MaxY: 1}}))
	f.Add(AppendPairs(nil, []geom.Pair{{RID: 1, SID: 2}}))
	f.Add(AppendError(nil, "boom"))
	f.Add(hugeBucketCount)
	f.Add(AppendObjects(nil, nil))
	f.Add(AppendBucketObjects(nil, [][]geom.Object{{geom.PointObject(2, geom.Pt(1, 1)), geom.PointObject(5, geom.Pt(3, 1))}, nil, nil}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		objs, oerr := DecodeObjects(frame)
		DecodeCountReply(frame)
		DecodeCountsReply(frame)
		DecodeFloatReply(frame)
		groups, gerr := DecodeBucketObjects(frame)
		DecodeInfoReply(frame)
		rects, rerr := DecodeRects(frame)
		pairs, perr := DecodePairs(frame)
		DecodeError(frame)

		// The walkers a router concatenates replies with accept exactly
		// what the decoders accept, and their spans hold the same records
		// (compared re-encoded: a NaN coordinate is not == itself).
		listAgrees(t, frame, MsgObjects, oerr, len(objs), ObjectSize, func(i int, rec []byte) bool {
			return sameObject(getObject(rec), objs[i])
		})
		listAgrees(t, frame, MsgRects, rerr, len(rects), RectSize, func(i int, rec []byte) bool {
			return bytes.Equal(AppendRects(nil, []geom.Rect{getRect(rec)}), AppendRects(nil, rects[i:i+1]))
		})
		listAgrees(t, frame, MsgPairs, perr, len(pairs), PairSize, func(i int, rec []byte) bool {
			return geom.Pair{RID: le.Uint32(rec), SID: le.Uint32(rec[4:])} == pairs[i]
		})
		walk, werr := BucketGroups(frame)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("BucketGroups: %v, DecodeBucketObjects: %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if walk.Len() != len(groups) {
			t.Fatalf("BucketGroups walks %d groups, DecodeBucketObjects decodes %d", walk.Len(), len(groups))
		}
		for i, g := range groups {
			if walk.Peek() != len(g) {
				t.Fatalf("group %d: Peek %d, decoded %d objects", i, walk.Peek(), len(g))
			}
			recs := walk.Next()
			if len(recs) != ObjectSize*len(g) {
				t.Fatalf("group %d: %d record bytes for %d objects", i, len(recs), len(g))
			}
			for j, o := range g {
				if !sameObject(getObject(recs[j*ObjectSize:]), o) {
					t.Fatalf("group %d object %d: span and decoder disagree", i, j)
				}
			}
		}
	})
}

func sameObject(a, b geom.Object) bool {
	return bytes.Equal(AppendObjectRecords(nil, []geom.Object{a}), AppendObjectRecords(nil, []geom.Object{b}))
}

// listAgrees checks records and AppendList against a list decoder's
// verdict decErr on frame: same acceptance, n records of size bytes
// each that same reports equal to the decoded ones, and an accepted
// frame concatenated alone is itself.
func listAgrees(t *testing.T, frame []byte, typ MsgType, decErr error, n, size int, same func(i int, rec []byte) bool) {
	t.Helper()
	m, recs, err := records(frame, typ)
	if (err == nil) != (decErr == nil) {
		t.Fatalf("records(%v): %v, decoder: %v", typ, err, decErr)
	}
	one, cerr := AppendList(nil, typ, [][]byte{frame})
	if (cerr == nil) != (decErr == nil) {
		t.Fatalf("AppendList(%v): %v, decoder: %v", typ, cerr, decErr)
	}
	if err != nil {
		return
	}
	if m != n || len(recs) != n*size {
		t.Fatalf("records(%v): %d records in %d bytes, decoder %d", typ, m, len(recs), n)
	}
	for i := 0; i < n; i++ {
		if !same(i, recs[i*size:]) {
			t.Fatalf("records(%v): record %d differs from the decoded one", typ, i)
		}
	}
	if !bytes.Equal(one, frame) {
		t.Fatalf("AppendList(%v) of one frame: %x, want %x", typ, one, frame)
	}
}
