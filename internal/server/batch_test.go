package server

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/wire"
)

// TestHandleBatchMatchesIndividualReplies is the core batching
// invariant on the server side: every sub-reply of a MsgBatchReply is
// bit-identical to the frame the server would have produced for the same
// request sent alone.
func TestHandleBatchMatchesIndividualReplies(t *testing.T) {
	objs := dataset.GaussianClusters(500, 3, 300, dataset.World, 5)
	srv := New("R", objs)
	bounds := srv.Tree().Bounds()

	reqs := [][]byte{
		wire.AppendCount(nil, bounds),
		wire.AppendWindow(nil, bounds),
		wire.AppendRange(nil, bounds.Center(), 400),
		wire.AppendRangeCount(nil, bounds.Center(), 400),
		wire.AppendAvgArea(nil, bounds),
		wire.AppendInfo(nil),
		wire.AppendBucketRange(nil, []geom.Point{bounds.Center(), {X: 0, Y: 0}}, 250),
	}
	resp := srv.Handle(wire.AppendBatch(nil, reqs))
	subs, err := wire.DecodeBatch(resp, wire.MsgBatchReply)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(reqs) {
		t.Fatalf("%d sub-replies, want %d", len(subs), len(reqs))
	}
	for i, req := range reqs {
		solo := srv.Handle(req)
		if !bytes.Equal(subs[i], solo) {
			t.Errorf("sub-reply %d (%v) differs from solo reply", i, wire.Type(req))
		}
	}
}

// TestHandleBatchPerSubErrors pins the error isolation contract: a bad
// sub-request produces a MsgError sub-frame in its slot while its
// batch-mates are answered normally.
func TestHandleBatchPerSubErrors(t *testing.T) {
	srv := New("R", dataset.Uniform(100, dataset.World, 1))
	// Expand beyond the dataset hull so the float32 wire rounding of the
	// window cannot clip hull objects out of the COUNT.
	w := srv.Tree().Bounds().Expand(1)

	reqs := [][]byte{
		wire.AppendCount(nil, w),
		{byte(wire.MsgWindow), 1, 2},                          // truncated window
		wire.AppendMBRLevel(nil, 0),                           // refused: index not published
		wire.AppendBatch(nil, [][]byte{wire.AppendInfo(nil)}), // nested batch
		wire.AppendCount(nil, w),
	}
	resp := srv.Handle(wire.AppendBatch(nil, reqs))
	subs, err := wire.DecodeBatch(resp, wire.MsgBatchReply)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []wire.MsgType{
		wire.MsgCountReply, wire.MsgError, wire.MsgError, wire.MsgError, wire.MsgCountReply,
	}
	for i, want := range wantTypes {
		if got := wire.Type(subs[i]); got != want {
			t.Errorf("sub %d type = %v, want %v", i, got, want)
		}
	}
	if n, err := wire.DecodeCountReply(subs[0]); err != nil || n != 100 {
		t.Errorf("sub 0 count = %d, %v; want 100", n, err)
	}
	var serr *wire.ServerError
	if err := wire.DecodeError(subs[3]); !errors.As(err, &serr) {
		t.Errorf("nested batch sub: %v, want ServerError", err)
	}
}

// TestHandleBatchMalformedEnvelope: only a broken envelope fails the
// whole frame.
func TestHandleBatchMalformedEnvelope(t *testing.T) {
	srv := New("R", dataset.Uniform(10, dataset.World, 1))
	resp := srv.Handle([]byte{byte(wire.MsgBatch), 9, 0, 0, 0})
	if wire.Type(resp) != wire.MsgError {
		t.Fatalf("reply type = %v, want MsgError", wire.Type(resp))
	}
}

// TestHandleBatchEmpty: an empty batch is answered with an empty reply.
func TestHandleBatchEmpty(t *testing.T) {
	srv := New("R", dataset.Uniform(10, dataset.World, 1))
	resp := srv.Handle(wire.AppendBatch(nil, nil))
	subs, err := wire.DecodeBatch(resp, wire.MsgBatchReply)
	if err != nil || len(subs) != 0 {
		t.Fatalf("empty batch: subs %d, err %v", len(subs), err)
	}
}
