package wire

import (
	"bytes"
	"testing"

	"repro/internal/geom"
)

// TestAppendEncodersPreservePrefix pins the core invariant of the pooled
// codec: every Append* encoder produces the same frame bytes whether it
// starts from nil or appends after a pre-existing prefix, and leaves the
// prefix intact. Metered byte counts therefore cannot depend on what
// buffer a caller encodes into.
func TestAppendEncodersPreservePrefix(t *testing.T) {
	w := geom.R(1, 2, 300, 400)
	p := geom.Pt(7, 9)
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	rects := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(2, 2, 5, 9)}
	objs := []geom.Object{
		{ID: 1, MBR: geom.R(0, 0, 2, 2)},
		{ID: 9, MBR: geom.R(5, 5, 6, 8)},
	}
	groups := [][]geom.Object{objs, nil, {objs[1]}}
	pairs := []geom.Pair{{RID: 1, SID: 2}, {RID: 3, SID: 4}}
	ns := []int64{0, -5, 1 << 40}
	info := Info{Count: 42, Bounds: w, TreeHeight: 3, PointData: true}

	cases := []struct {
		name   string
		enc    []byte
		append func(dst []byte) []byte
	}{
		{"window", AppendWindow(nil, w), func(d []byte) []byte { return AppendWindow(d, w) }},
		{"count", AppendCount(nil, w), func(d []byte) []byte { return AppendCount(d, w) }},
		{"avgarea", AppendAvgArea(nil, w), func(d []byte) []byte { return AppendAvgArea(d, w) }},
		{"range", AppendRange(nil, p, 2.5), func(d []byte) []byte { return AppendRange(d, p, 2.5) }},
		{"rangecount", AppendRangeCount(nil, p, 2.5), func(d []byte) []byte { return AppendRangeCount(d, p, 2.5) }},
		{"bucketrange", AppendBucketRange(nil, pts, 3), func(d []byte) []byte { return AppendBucketRange(d, pts, 3) }},
		{"bucketrangecount", AppendBucketRangeCount(nil, pts, 3), func(d []byte) []byte { return AppendBucketRangeCount(d, pts, 3) }},
		{"info", AppendInfo(nil), AppendInfo},
		{"mbrlevel", AppendMBRLevel(nil, 2), func(d []byte) []byte { return AppendMBRLevel(d, 2) }},
		{"mbrmatch", AppendMBRMatch(nil, rects, 1.5), func(d []byte) []byte { return AppendMBRMatch(d, rects, 1.5) }},
		{"uploadjoin", AppendUploadJoin(nil, objs, 1.5), func(d []byte) []byte { return AppendUploadJoin(d, objs, 1.5) }},
		{"objects", AppendObjects(nil, objs), func(d []byte) []byte { return AppendObjects(d, objs) }},
		{"countreply", AppendCountReply(nil, -7), func(d []byte) []byte { return AppendCountReply(d, -7) }},
		{"countsreply", AppendCountsReply(nil, ns), func(d []byte) []byte { return AppendCountsReply(d, ns) }},
		{"floatreply", AppendFloatReply(nil, 3.25), func(d []byte) []byte { return AppendFloatReply(d, 3.25) }},
		{"bucketobjects", AppendBucketObjects(nil, groups), func(d []byte) []byte { return AppendBucketObjects(d, groups) }},
		{"inforeply", AppendInfoReply(nil, info), func(d []byte) []byte { return AppendInfoReply(d, info) }},
		{"rects", AppendRects(nil, rects), func(d []byte) []byte { return AppendRects(d, rects) }},
		{"pairs", AppendPairs(nil, pairs), func(d []byte) []byte { return AppendPairs(d, pairs) }},
		{"error", AppendError(nil, "boom"), func(d []byte) []byte { return AppendError(d, "boom") }},
	}
	for _, tc := range cases {
		prefix := []byte{0xAA, 0xBB}
		got := tc.append(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:2], prefix) {
			t.Errorf("%s: prefix clobbered", tc.name)
		}
		if !bytes.Equal(got[2:], tc.enc) {
			t.Errorf("%s: Append(prefix) payload = %x, Append(nil) = %x", tc.name, got[2:], tc.enc)
		}
	}
}

// TestScratchDecodersMatchPlain checks every DecodeXAppend variant
// against its allocating form, both from empty and from non-empty
// scratch (the appended records must land after the existing ones).
func TestScratchDecodersMatchPlain(t *testing.T) {
	objs := []geom.Object{
		{ID: 1, MBR: geom.R(0, 0, 2, 2)},
		{ID: 9, MBR: geom.R(5, 5, 6, 8)},
	}
	rects := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(2, 2, 5, 9)}
	pts := []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}
	pairs := []geom.Pair{{RID: 1, SID: 2}, {RID: 3, SID: 4}}
	ns := []int64{5, -2}

	scratch := make([]geom.Object, 1, 8)
	scratch[0] = geom.Object{ID: 77}
	got, err := DecodeObjectsAppend(AppendObjects(nil, objs), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 77 || got[1] != objs[0] || got[2] != objs[1] {
		t.Fatalf("DecodeObjectsAppend = %+v", got)
	}

	rs, err := DecodeRectsAppend(AppendRects(nil, rects), nil)
	if err != nil || len(rs) != 2 || rs[0] != rects[0] || rs[1] != rects[1] {
		t.Fatalf("DecodeRectsAppend = %+v, %v", rs, err)
	}

	ps, err := DecodePairsAppend(AppendPairs(nil, pairs), nil)
	if err != nil || len(ps) != 2 || ps[0] != pairs[0] || ps[1] != pairs[1] {
		t.Fatalf("DecodePairsAppend = %+v, %v", ps, err)
	}

	cs, err := DecodeCountsReplyAppend(AppendCountsReply(nil, ns), nil)
	if err != nil || len(cs) != 2 || cs[0] != 5 || cs[1] != -2 {
		t.Fatalf("DecodeCountsReplyAppend = %+v, %v", cs, err)
	}

	dp, eps, err := DecodeBucketRangeLikeAppend(AppendBucketRange(nil, pts, 3), MsgBucketRange, nil)
	if err != nil || eps != 3 || len(dp) != 2 {
		t.Fatalf("DecodeBucketRangeLikeAppend = %+v, %v, %v", dp, eps, err)
	}

	dr, eps, err := DecodeMBRMatchAppend(AppendMBRMatch(nil, rects, 1.5), nil)
	if err != nil || eps != 1.5 || len(dr) != 2 {
		t.Fatalf("DecodeMBRMatchAppend = %+v, %v, %v", dr, eps, err)
	}

	du, eps, err := DecodeUploadJoinAppend(AppendUploadJoin(nil, objs, 0), nil)
	if err != nil || eps != 0 || len(du) != 2 {
		t.Fatalf("DecodeUploadJoinAppend = %+v, %v, %v", du, eps, err)
	}
}
