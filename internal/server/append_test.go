package server

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// TestHandleAppendMatchesHandle replays every request type through both
// entry points and requires bit-identical response frames — the invariant
// that lets the transports recycle buffers without changing a single
// metered byte. It also exercises the pooled scratch across repeated
// calls, so stale scratch state (a dirty bitset, an untruncated slice)
// would surface as a diff.
func TestHandleAppendMatchesHandle(t *testing.T) {
	objs := dataset.GaussianClusters(2000, 4, 300, dataset.World, 42)
	srv := New("S", objs, PublishIndex())
	w := geom.R(2000, 2000, 7000, 7000)
	pts := []geom.Point{{X: 3000, Y: 3000}, {X: 5000, Y: 5000}, {X: 100, Y: 100}}
	up := objs[:50]

	reqs := [][]byte{
		wire.AppendWindow(nil, w),
		wire.AppendCount(nil, w),
		wire.AppendAvgArea(nil, w),
		wire.AppendRange(nil, geom.Pt(4000, 4000), 500),
		wire.AppendRangeCount(nil, geom.Pt(4000, 4000), 500),
		wire.AppendBucketRange(nil, pts, 400),
		wire.AppendBucketRangeCount(nil, pts, 400),
		wire.AppendInfo(nil),
		wire.AppendMBRLevel(nil, 0),
		wire.AppendMBRMatch(nil, []geom.Rect{w, geom.R(0, 0, 100, 100)}, 50),
		wire.AppendUploadJoin(nil, up, 200),
		{byte(wire.MsgInvalid)},       // unsupported type
		wire.AppendWindow(nil, w)[:5], // malformed frame
	}
	for round := 0; round < 3; round++ { // reuse scratch across rounds
		for i, req := range reqs {
			want := srv.Handle(req)
			got := srv.HandleAppend(req, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d req %d (%v): HandleAppend diverges from Handle", round, i, wire.Type(req))
			}
			prefixed := srv.HandleAppend(req, []byte{0xFF})
			if len(prefixed) < 1 || prefixed[0] != 0xFF || !bytes.Equal(prefixed[1:], want) {
				t.Fatalf("round %d req %d (%v): HandleAppend prefix misuse", round, i, wire.Type(req))
			}
		}
	}
}

// TestMBRMatchSparseIDs drives the MBR-MATCH dedup through its map
// fallback: object ids near the top of the uint32 range must not make
// the server size a bitset by maxID, and the results must still be
// distinct and complete.
func TestMBRMatchSparseIDs(t *testing.T) {
	objs := []geom.Object{
		{ID: 1<<31 + 5, MBR: geom.R(0, 0, 10, 10)},
		{ID: 1<<32 - 1, MBR: geom.R(5, 5, 15, 15)},
		{ID: 3, MBR: geom.R(100, 100, 110, 110)},
	}
	srv := New("sparse", objs, PublishIndex())
	// Overlapping rects so both matching objects are seen twice.
	req := wire.AppendMBRMatch(nil, []geom.Rect{geom.R(0, 0, 20, 20), geom.R(4, 4, 16, 16)}, 0)
	for round := 0; round < 2; round++ { // second round reuses scratch
		got, err := wire.DecodeObjects(srv.Handle(req))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("round %d: got %d objects, want 2 distinct", round, len(got))
		}
		if got[0].ID == got[1].ID {
			t.Fatalf("round %d: duplicate id %d", round, got[0].ID)
		}
	}
}

// TestHandleAppendSteadyStateAllocs verifies the tentpole: with a warmed
// scratch pool and a capacious destination buffer, answering aggregate
// queries allocates nothing.
func TestHandleAppendSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	objs := dataset.GaussianClusters(5000, 4, 300, dataset.World, 43)
	srv := New("S", objs)
	countReq := wire.AppendCount(nil, geom.R(2000, 2000, 7000, 7000))
	rangeReq := wire.AppendRangeCount(nil, geom.Pt(4000, 4000), 600)
	windowReq := wire.AppendWindow(nil, geom.R(3000, 3000, 6000, 6000))
	dst := make([]byte, 0, 1<<20)
	// Warm the scratch pool and high-water marks.
	for i := 0; i < 8; i++ {
		srv.HandleAppend(countReq, dst)
		srv.HandleAppend(rangeReq, dst)
		srv.HandleAppend(windowReq, dst)
	}
	for name, req := range map[string][]byte{
		"count": countReq, "rangecount": rangeReq, "window": windowReq,
	} {
		req := req
		avg := testing.AllocsPerRun(200, func() {
			srv.HandleAppend(req, dst)
		})
		if avg > 0.05 {
			t.Errorf("%s: HandleAppend allocates %v times per request at steady state", name, avg)
		}
	}
}
