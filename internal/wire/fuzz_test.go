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
	f.Fuzz(func(t *testing.T, frame []byte) {
		DecodeObjects(frame)
		DecodeCountReply(frame)
		DecodeCountsReply(frame)
		DecodeFloatReply(frame)
		DecodeBucketObjects(frame)
		DecodeInfoReply(frame)
		DecodeRects(frame)
		DecodePairs(frame)
		DecodeError(frame)
	})
}
