package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func rnd() *rand.Rand { return rand.New(rand.NewSource(42)) }

func randObjects(r *rand.Rand, n int) []geom.Object {
	objs := make([]geom.Object, n)
	for i := range objs {
		x := float64(r.Intn(10000)) / 4
		y := float64(r.Intn(10000)) / 4
		objs[i] = geom.Object{
			ID:  r.Uint32(),
			MBR: geom.R(x, y, x+float64(r.Intn(100))/4, y+float64(r.Intn(100))/4),
		}
	}
	return objs
}

func TestWindowRoundTrip(t *testing.T) {
	w := geom.R(1.5, -2.25, 100.75, 200.5)
	frame := AppendWindow(nil, w)
	if len(frame) != 1+RectSize {
		t.Fatalf("frame size = %d, want %d", len(frame), 1+RectSize)
	}
	if Type(frame) != MsgWindow {
		t.Fatalf("type = %v, want WINDOW", Type(frame))
	}
	got, err := DecodeWindowLike(frame, MsgWindow)
	if err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("round trip = %v, want %v", got, w)
	}
}

func TestCountAndAvgAreaRoundTrip(t *testing.T) {
	w := geom.R(0, 0, 8, 8)
	for _, mt := range []MsgType{MsgCount, MsgAvgArea} {
		var frame []byte
		if mt == MsgCount {
			frame = AppendCount(nil, w)
		} else {
			frame = AppendAvgArea(nil, w)
		}
		got, err := DecodeWindowLike(frame, mt)
		if err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
		if got != w {
			t.Fatalf("%v: got %v, want %v", mt, got, w)
		}
	}
}

func TestRangeRoundTrip(t *testing.T) {
	p := geom.Pt(3.25, -7.5)
	frame := AppendRange(nil, p, 12.5)
	gotP, gotEps, err := DecodeRangeLike(frame, MsgRange)
	if err != nil {
		t.Fatal(err)
	}
	if gotP != p || gotEps != 12.5 {
		t.Fatalf("got (%v, %v), want (%v, 12.5)", gotP, gotEps, p)
	}
	cnt := AppendRangeCount(nil, p, 12.5)
	if Type(cnt) != MsgRangeCount {
		t.Fatalf("type = %v, want RANGE-COUNT", Type(cnt))
	}
	if _, _, err := DecodeRangeLike(cnt, MsgRangeCount); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRangeRoundTrip(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4), geom.Pt(-5.5, 6.25)}
	frame := AppendBucketRange(nil, pts, 2.5)
	gotPts, gotEps, err := DecodeBucketRangeLike(frame, MsgBucketRange)
	if err != nil {
		t.Fatal(err)
	}
	if gotEps != 2.5 || len(gotPts) != len(pts) {
		t.Fatalf("got eps=%v n=%d", gotEps, len(gotPts))
	}
	for i := range pts {
		if gotPts[i] != pts[i] {
			t.Fatalf("point %d: got %v, want %v", i, gotPts[i], pts[i])
		}
	}
}

func TestBucketRangeEmpty(t *testing.T) {
	frame := AppendBucketRange(nil, nil, 1)
	pts, _, err := DecodeBucketRangeLike(frame, MsgBucketRange)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("got %d points, want 0", len(pts))
	}
}

func TestObjectsRoundTrip(t *testing.T) {
	objs := randObjects(rnd(), 57)
	frame := AppendObjects(nil, objs)
	if want := 5 + ObjectSize*57; len(frame) != want {
		t.Fatalf("frame size = %d, want %d", len(frame), want)
	}
	got, err := DecodeObjects(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("got %d objects, want %d", len(got), len(objs))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("object %d: got %v, want %v", i, got[i], objs[i])
		}
	}
}

func TestCountReplyRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 1 << 40} {
		got, err := DecodeCountReply(AppendCountReply(nil, n))
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("got %d, want %d", got, n)
		}
	}
}

func TestCountsReplyRoundTrip(t *testing.T) {
	ns := []int64{5, 0, 123456789, -3}
	got, err := DecodeCountsReply(AppendCountsReply(nil, ns))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ns) {
		t.Fatal("length mismatch")
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Fatalf("count %d: got %d, want %d", i, got[i], ns[i])
		}
	}
}

func TestFloatReplyRoundTrip(t *testing.T) {
	got, err := DecodeFloatReply(AppendFloatReply(nil, 3.14159))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.14159 {
		t.Fatalf("got %v", got)
	}
}

func TestBucketObjectsRoundTrip(t *testing.T) {
	r := rnd()
	groups := [][]geom.Object{
		randObjects(r, 3),
		nil,
		randObjects(r, 1),
		randObjects(r, 10),
	}
	frame := AppendBucketObjects(nil, groups)
	got, err := DecodeBucketObjects(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(groups) {
		t.Fatalf("got %d groups, want %d", len(got), len(groups))
	}
	for i, g := range groups {
		if len(got[i]) != len(g) {
			t.Fatalf("group %d: got %d objects, want %d", i, len(got[i]), len(g))
		}
		for j := range g {
			if got[i][j] != g[j] {
				t.Fatalf("group %d object %d mismatch", i, j)
			}
		}
	}
}

func TestInfoRoundTrip(t *testing.T) {
	info := Info{Count: 35000, Bounds: geom.R(0, 0, 10000, 10000), TreeHeight: 4}
	got, err := DecodeInfoReply(AppendInfoReply(nil, info))
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("got %+v, want %+v", got, info)
	}
	if len(AppendInfo(nil)) != 1 {
		t.Fatal("INFO request should be a single byte")
	}
}

func TestMBRLevelRoundTrip(t *testing.T) {
	lvl, err := DecodeMBRLevel(AppendMBRLevel(nil, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 2 {
		t.Fatalf("got level %d, want 2", lvl)
	}
}

func TestMBRMatchRoundTrip(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(5, 5, 9, 9)}
	got, eps, err := DecodeMBRMatch(AppendMBRMatch(nil, rects, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if eps != 0.5 || len(got) != 2 || got[0] != rects[0] || got[1] != rects[1] {
		t.Fatalf("got %v eps=%v", got, eps)
	}
}

func TestUploadJoinRoundTrip(t *testing.T) {
	objs := randObjects(rnd(), 7)
	got, eps, err := DecodeUploadJoin(AppendUploadJoin(nil, objs, 1.25))
	if err != nil {
		t.Fatal(err)
	}
	if eps != 1.25 || len(got) != 7 {
		t.Fatalf("got %d objs eps=%v", len(got), eps)
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Fatalf("object %d mismatch", i)
		}
	}
}

func TestRectsRoundTrip(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 1, 1), geom.R(2, 2, 3, 3), geom.R(-1, -1, 0, 0)}
	got, err := DecodeRects(AppendRects(nil, rects))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) {
		t.Fatal("length mismatch")
	}
	for i := range rects {
		if got[i] != rects[i] {
			t.Fatalf("rect %d mismatch", i)
		}
	}
}

func TestPairsRoundTrip(t *testing.T) {
	pairs := []geom.Pair{{RID: 1, SID: 2}, {RID: 7, SID: 7}, {RID: 0, SID: 4000000000}}
	got, err := DecodePairs(AppendPairs(nil, pairs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pairs) {
		t.Fatal("length mismatch")
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], pairs[i])
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	err := DecodeError(AppendError(nil, "window out of bounds"))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected *ServerError, got %T", err)
	}
	if se.Msg != "window out of bounds" {
		t.Fatalf("msg = %q", se.Msg)
	}
}

func TestDecodeRejectsWrongType(t *testing.T) {
	frame := AppendCount(nil, geom.R(0, 0, 1, 1))
	if _, err := DecodeWindowLike(frame, MsgWindow); !errors.Is(err, ErrBadType) {
		t.Fatalf("expected ErrBadType, got %v", err)
	}
}

func TestDecodeRejectsShortFrames(t *testing.T) {
	cases := []struct {
		name string
		f    func([]byte) error
		full []byte
	}{
		{"objects", func(b []byte) error { _, err := DecodeObjects(b); return err }, AppendObjects(nil, randObjects(rnd(), 3))},
		{"count", func(b []byte) error { _, err := DecodeCountReply(b); return err }, AppendCountReply(nil, 9)},
		{"rects", func(b []byte) error { _, err := DecodeRects(b); return err }, AppendRects(nil, []geom.Rect{geom.R(0, 0, 1, 1)})},
		{"pairs", func(b []byte) error { _, err := DecodePairs(b); return err }, AppendPairs(nil, []geom.Pair{{RID: 1, SID: 2}})},
		{"window", func(b []byte) error { _, err := DecodeWindowLike(b, MsgWindow); return err }, AppendWindow(nil, geom.R(0, 0, 1, 1))},
		{"bucketobjs", func(b []byte) error { _, err := DecodeBucketObjects(b); return err }, AppendBucketObjects(nil, [][]geom.Object{randObjects(rnd(), 2)})},
	}
	for _, c := range cases {
		for cut := 1; cut < len(c.full); cut += 3 {
			if err := c.f(c.full[:cut]); err == nil {
				t.Errorf("%s: truncation to %d bytes not detected", c.name, cut)
			}
		}
	}
}

func TestDecodeEmptyFrame(t *testing.T) {
	if Type(nil) != MsgInvalid {
		t.Error("Type(nil) should be MsgInvalid")
	}
	if _, err := DecodeObjects(nil); err == nil {
		t.Error("DecodeObjects(nil) should fail")
	}
}

func TestQuickObjectsRoundTrip(t *testing.T) {
	r := rnd()
	f := func() bool {
		objs := randObjects(r, r.Intn(64))
		got, err := DecodeObjects(AppendObjects(nil, objs))
		if err != nil || len(got) != len(objs) {
			return false
		}
		for i := range objs {
			if got[i] != objs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	named := []MsgType{
		MsgWindow, MsgCount, MsgRange, MsgBucketRange, MsgRangeCount,
		MsgBucketRangeCount, MsgAvgArea, MsgInfo, MsgMBRLevel, MsgMBRMatch,
		MsgUploadJoin, MsgObjects, MsgCountReply, MsgBucketObjects,
		MsgCountsReply, MsgFloatReply, MsgInfoReply, MsgRects, MsgPairs, MsgError,
	}
	seen := map[string]bool{}
	for _, mt := range named {
		s := mt.String()
		if s == "" || seen[s] {
			t.Fatalf("duplicate or empty string for %d: %q", mt, s)
		}
		seen[s] = true
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Fatalf("unknown type string = %q", MsgType(200).String())
	}
}
