package server

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/wire"
)

// FuzzHandleAppend throws arbitrary frames — including batch envelopes
// wrapping arbitrary sub-frames — at a live server. The contract under
// test: no input panics, and every input gets exactly one well-formed
// reply frame (a batch gets a batch reply or a whole-frame error; any
// other input gets a single reply frame).
func FuzzHandleAppend(f *testing.F) {
	objs := dataset.GaussianClusters(200, 2, 300, dataset.World, 1)
	srv := New("F", objs, PublishIndex())
	bounds := srv.Tree().Bounds()

	f.Add(wire.AppendCount(nil, bounds))
	f.Add(wire.AppendWindow(nil, bounds))
	f.Add(wire.AppendRange(nil, bounds.Center(), 100))
	f.Add(wire.AppendBucketRangeCount(nil, []geom.Point{bounds.Center()}, 50))
	f.Add(wire.AppendMBRLevel(nil, 1))
	f.Add(wire.AppendInfo(nil))
	f.Add(wire.AppendBatch(nil, [][]byte{wire.AppendCount(nil, bounds), wire.AppendInfo(nil)}))
	f.Add(wire.AppendBatch(nil, [][]byte{wire.AppendBatch(nil, nil)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp := srv.Handle(frame)
		if len(resp) == 0 {
			t.Fatalf("empty reply for %x", frame)
		}
		if wire.Type(frame) == wire.MsgBatch {
			if wire.Type(resp) == wire.MsgError {
				return // malformed envelope, refused whole
			}
			subs, err := wire.DecodeBatch(resp, wire.MsgBatchReply)
			if err != nil {
				t.Fatalf("batch reply does not decode: %v", err)
			}
			if reqs, rerr := wire.DecodeBatch(frame, wire.MsgBatch); rerr == nil && len(subs) != len(reqs) {
				t.Fatalf("%d sub-replies for %d sub-requests", len(subs), len(reqs))
			}
		}
	})
}
