package server

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/memjoin"
	"repro/internal/wire"
)

// TestSpanRepliesMatchObjectEncoding checks that WINDOW, RANGE and
// BUCKET-RANGE replies, copied from the pre-encoded packed array, equal
// byte for byte the frames wire.AppendObjects and
// wire.AppendBucketObjectsFlat build from the tree's Search and
// SearchDist results — over windows on every node MBR, random windows,
// and probes of every size, uniform and clustered, with and without
// extents.
func TestSpanRepliesMatchObjectEncoding(t *testing.T) {
	world := dataset.World
	for _, objs := range [][]geom.Object{
		nil,
		dataset.Uniform(1, world, 1),
		dataset.Uniform(65, world, 2),
		dataset.GaussianClusters(4097, 5, 300, world, 3),
		dataset.ClusteredRects(3000, 6, 800, 400, world, 4),
	} {
		srv := New("S", objs)
		tr := srv.Tree()
		rng := rand.New(rand.NewSource(int64(len(objs))))
		var windows []geom.Rect
		for level := 0; level < tr.Height(); level++ {
			mbrs, _ := tr.LevelMBRs(level)
			windows = append(windows, mbrs...)
		}
		var pts []geom.Point
		for range 40 {
			a, b := rng.Float64()*world.Width(), rng.Float64()*world.Height()
			windows = append(windows, geom.R(a, b, a+rng.Float64()*3000, b+rng.Float64()*3000))
			pts = append(pts, geom.Pt(a, b))
		}
		reply := func(req []byte) []byte {
			got := srv.HandleAppend(req, nil)
			if !bytes.Equal(got, srv.Handle(req)) {
				t.Fatalf("%v: HandleAppend diverges from Handle", wire.Type(req))
			}
			return got
		}
		for _, w := range windows {
			req := wire.AppendWindow(nil, w)
			q, err := wire.DecodeWindowLike(req, wire.MsgWindow)
			if err != nil {
				t.Fatal(err)
			}
			if want := wire.AppendObjects(nil, tr.Search(q, nil)); !bytes.Equal(reply(req), want) {
				t.Fatalf("n=%d window %v: reply differs from AppendObjects(Search)", len(objs), q)
			}
		}
		for _, eps := range []float64{0, 75, 400, 5000} {
			for _, p := range pts {
				req := wire.AppendRange(nil, p, eps)
				q, e, err := wire.DecodeRangeLike(req, wire.MsgRange)
				if err != nil {
					t.Fatal(err)
				}
				if want := wire.AppendObjects(nil, tr.SearchDist(q, e, nil)); !bytes.Equal(reply(req), want) {
					t.Fatalf("n=%d range %v±%v: reply differs from AppendObjects(SearchDist)", len(objs), q, e)
				}
			}
			req := wire.AppendBucketRange(nil, pts, eps)
			qs, e, err := wire.DecodeBucketRangeLike(req, wire.MsgBucketRange)
			if err != nil {
				t.Fatal(err)
			}
			var lens []int
			var flat []geom.Object
			for _, q := range qs {
				before := len(flat)
				flat = tr.SearchDist(q, e, flat)
				lens = append(lens, len(flat)-before)
			}
			if want := wire.AppendBucketObjectsFlat(nil, lens, flat); !bytes.Equal(reply(req), want) {
				t.Fatalf("n=%d bucket ±%v: reply differs from AppendBucketObjectsFlat(SearchDist)", len(objs), e)
			}
		}
	}
}

// TestRangeDecidesLikeDeviceAndOracle pins the server's ε test to the
// device's and the oracle's. The probe point is exact in float32, so the
// RANGE frame carries it unchanged. From it, s1 lies at a distance whose
// math.Hypot rounds to 75 while dx²+dy² exceeds 75², and s2 at one whose
// Hypot rounds above 75 while dx²+dy² is exactly 75². A server deciding
// with Hypot answers {s1}; the device's memjoin.WithinDist and
// core.Oracle answer {s2}, and so must RANGE and RANGE-COUNT.
func TestRangeDecidesLikeDeviceAndOracle(t *testing.T) {
	const eps = 75
	p := geom.Pt(75.28449249267578, 1534.757080078125)
	s := []geom.Object{
		geom.PointObject(1, geom.Pt(60.26884680918559, 1608.23857696481)),
		geom.PointObject(2, geom.Pt(15.92488409301442, 1488.915648047277)),
	}
	r := []geom.Object{geom.PointObject(9, p)}
	var want []uint32
	for _, o := range s {
		if memjoin.WithinDist(eps).Match(r[0].MBR, o.MBR) {
			want = append(want, o.ID)
		}
	}
	oracle := core.Oracle(r, s, core.Spec{Kind: core.Distance, Eps: eps}, geom.R(0, 1400, 200, 1700))
	if len(want) != 1 || want[0] != 2 || len(oracle.Pairs) != 1 || oracle.Pairs[0].SID != 2 {
		t.Fatalf("device matches %v, oracle %v: the example needs both to match s2 alone", want, oracle.Pairs)
	}

	srv := New("S", s)
	got, err := wire.DecodeObjects(srv.Handle(wire.AppendRange(nil, p, eps)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("RANGE answered %v, want s2 alone", got)
	}
	n, err := wire.DecodeCountReply(srv.Handle(wire.AppendRangeCount(nil, p, eps)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RANGE-COUNT answered %d, want 1", n)
	}
	// In float64 the same holds without the wire: for this pair Hypot
	// gives exactly 75 and the square 5625.000000000002.
	q := geom.Pt(75.28449185090612, 1534.7570862157847)
	tr := New("T", []geom.Object{geom.PointObject(1, geom.Pt(150.2546572828652, 1536.872339180489))}).Tree()
	if tr.CountDist(q, eps) != 0 || len(tr.SearchDist(q, eps, nil)) != 0 {
		t.Fatal("a pair whose dx²+dy² exceeds eps² is not within eps")
	}
}
