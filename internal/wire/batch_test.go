package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/geom"
)

func TestBatchRoundTrip(t *testing.T) {
	subs := [][]byte{
		AppendCount(nil, geom.R(0, 0, 10, 10)),
		AppendRange(nil, geom.Pt(3, 4), 2.5),
		AppendInfo(nil),
		AppendWindow(nil, geom.R(-5, -5, 5, 5)),
	}
	frame := AppendBatch(nil, subs)
	if Type(frame) != MsgBatch {
		t.Fatalf("type = %v, want MsgBatch", Type(frame))
	}
	got, err := DecodeBatch(frame, MsgBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(subs) {
		t.Fatalf("decoded %d sub-frames, want %d", len(got), len(subs))
	}
	for i := range subs {
		if !bytes.Equal(got[i], subs[i]) {
			t.Errorf("sub %d = %x, want %x", i, got[i], subs[i])
		}
	}
}

func TestBatchReplyIncrementalMatchesWhole(t *testing.T) {
	subs := [][]byte{
		AppendCountReply(nil, 42),
		AppendObjects(nil, []geom.Object{geom.PointObject(7, geom.Pt(1, 2))}),
		AppendError(nil, "boom"),
	}
	whole := AppendBatchReply(nil, subs)

	inc := AppendBatchReplyHeader(nil, len(subs))
	for _, s := range subs {
		var off int
		inc, off = BeginBatchEntry(inc)
		inc = append(inc, s...)
		inc = EndBatchEntry(inc, off)
	}
	if !bytes.Equal(whole, inc) {
		t.Errorf("incremental encoding differs:\nwhole %x\ninc   %x", whole, inc)
	}
}

func TestBatchEmptyAndAppendForms(t *testing.T) {
	empty := AppendBatch(nil, nil)
	subs, err := DecodeBatch(empty, MsgBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Fatalf("empty batch decoded %d subs", len(subs))
	}
	// Append form over a prefilled buffer produces the same frame bytes.
	pre := append([]byte("xyz"), AppendBatch(nil, [][]byte{AppendInfo(nil)})...)
	app := AppendBatch([]byte("xyz"), [][]byte{AppendInfo(nil)})
	if !bytes.Equal(pre, app) {
		t.Errorf("append form differs: %x vs %x", pre, app)
	}
}

func TestBatchDecodeRejectsMalformed(t *testing.T) {
	good := AppendBatch(nil, [][]byte{AppendCount(nil, geom.R(0, 0, 1, 1)), AppendInfo(nil)})
	cases := map[string][]byte{
		"empty":              {},
		"wrong type":         AppendInfo(nil),
		"short header":       good[:3],
		"truncated entry":    good[:len(good)-1],
		"trailing bytes":     append(append([]byte{}, good...), 0xff),
		"giant count":        {byte(MsgBatch), 0xff, 0xff, 0xff, 0xff},
		"entry past end":     {byte(MsgBatch), 1, 0, 0, 0, 200, 0, 0, 0},
		"entry header short": {byte(MsgBatch), 1, 0, 0, 0, 9},
	}
	for name, frame := range cases {
		if _, err := DecodeBatch(frame, MsgBatch); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Lying about the count must fail even when entries parse.
	lied := append([]byte{}, good...)
	lied[1] = 1 // two entries present, one advertised
	if _, err := DecodeBatch(lied, MsgBatch); !errors.Is(err, ErrTrailing) {
		t.Errorf("undercounted batch: err = %v, want ErrTrailing", err)
	}
	// want must be an envelope type.
	if _, err := DecodeBatch(good, MsgCount); !errors.Is(err, ErrBadType) {
		t.Errorf("non-envelope want: err = %v, want ErrBadType", err)
	}
}

func TestBatchOverheadConstants(t *testing.T) {
	subs := [][]byte{AppendInfo(nil), AppendCountReply(nil, 1)}
	frame := AppendBatch(nil, subs)
	want := BatchHdr + 2*BatchEntryHdr + len(subs[0]) + len(subs[1])
	if len(frame) != want {
		t.Errorf("frame size %d, want %d", len(frame), want)
	}
}
