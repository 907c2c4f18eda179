package server

import (
	"context"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

func newRemote(t *testing.T, objs []geom.Object, opts ...Option) *client.Remote {
	t.Helper()
	srv := New("test", objs, opts...)
	tr := netsim.Serve(srv)
	r, err := client.NewRemote("test", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func testObjects() []geom.Object {
	return []geom.Object{
		geom.PointObject(1, geom.Pt(10, 10)),
		geom.PointObject(2, geom.Pt(20, 20)),
		geom.PointObject(3, geom.Pt(90, 90)),
		{ID: 4, MBR: geom.R(50, 50, 60, 60)},
	}
}

func TestWindowQuery(t *testing.T) {
	r := newRemote(t, testObjects())
	objs, err := r.Window(context.Background(), geom.R(0, 0, 25, 25))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objects, want 2", len(objs))
	}
}

func TestCountQuery(t *testing.T) {
	r := newRemote(t, testObjects())
	n, err := r.Count(context.Background(), geom.R(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	n, err = r.Count(context.Background(), geom.R(200, 200, 300, 300))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestRangeQuery(t *testing.T) {
	r := newRemote(t, testObjects())
	objs, err := r.Range(context.Background(), geom.Pt(12, 10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].ID != 1 {
		t.Fatalf("got %v", objs)
	}
	n, err := r.RangeCount(context.Background(), geom.Pt(15, 15), 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("range count = %d, want 2", n)
	}
}

func TestBucketRange(t *testing.T) {
	r := newRemote(t, testObjects())
	groups, err := r.BucketRange(context.Background(), []geom.Point{geom.Pt(10, 10), geom.Pt(0, 0), geom.Pt(55, 55)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	if len(groups[0]) != 1 || groups[0][0].ID != 1 {
		t.Fatalf("group 0 = %v", groups[0])
	}
	if len(groups[1]) != 0 {
		t.Fatalf("group 1 = %v", groups[1])
	}
	if len(groups[2]) != 1 || groups[2][0].ID != 4 {
		t.Fatalf("group 2 = %v", groups[2])
	}
	ns, err := r.BucketRangeCount(context.Background(), []geom.Point{geom.Pt(10, 10), geom.Pt(0, 0)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ns[0] != 1 || ns[1] != 0 {
		t.Fatalf("counts = %v", ns)
	}
}

func TestInfo(t *testing.T) {
	r := newRemote(t, testObjects())
	info, err := r.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Count != 4 {
		t.Fatalf("count = %d", info.Count)
	}
	if info.TreeHeight != 0 {
		t.Fatal("non-publishing server must not reveal tree height")
	}
	rp := newRemote(t, testObjects(), PublishIndex())
	info, err = rp.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.TreeHeight < 1 {
		t.Fatal("publishing server should reveal tree height")
	}
}

func TestAvgArea(t *testing.T) {
	r := newRemote(t, testObjects())
	got, err := r.AvgArea(context.Background(), geom.R(45, 45, 65, 65))
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("avg area = %v, want 100", got)
	}
}

func TestIndexOpsRefusedByDefault(t *testing.T) {
	r := newRemote(t, testObjects())
	if _, err := r.LevelMBRs(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "does not publish") {
		t.Fatalf("LevelMBRs should be refused, got %v", err)
	}
	if _, err := r.MBRMatch(context.Background(), []geom.Rect{geom.R(0, 0, 1, 1)}, 0); err == nil {
		t.Fatal("MBRMatch should be refused")
	}
	if _, err := r.UploadJoin(context.Background(), testObjects(), 1); err == nil {
		t.Fatal("UploadJoin should be refused")
	}
}

func TestIndexOpsWithPublishIndex(t *testing.T) {
	objs := dataset.GaussianClusters(1500, 4, 300, dataset.World, 3)
	r := newRemote(t, objs, PublishIndex())
	info, err := r.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mbrs, err := r.LevelMBRs(context.Background(), int(info.TreeHeight)-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mbrs) != 1 {
		t.Fatalf("root level should have 1 MBR, got %d", len(mbrs))
	}
	leaf, err := r.LevelMBRs(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf) < 4 {
		t.Fatalf("leaf level too small: %d", len(leaf))
	}

	matched, err := r.MBRMatch(context.Background(), leaf[:3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) == 0 {
		t.Fatal("leaf MBRs should match objects")
	}
	// No duplicates even when MBRs overlap.
	seen := map[uint32]bool{}
	for _, o := range matched {
		if seen[o.ID] {
			t.Fatalf("duplicate object %d in MBRMatch", o.ID)
		}
		seen[o.ID] = true
	}

	pairs, err := r.UploadJoin(context.Background(), objs[:50], 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("upload join of the dataset against itself should match")
	}
}

func TestMalformedRequestsReturnErrors(t *testing.T) {
	srv := New("test", testObjects())
	cases := [][]byte{
		nil,
		{},
		{byte(wire.MsgWindow)},         // truncated
		{byte(wire.MsgCount), 1, 2},    // truncated
		{byte(wire.MsgBucketRange), 0}, // truncated
		{200},                          // unknown type
		wire.AppendObjects(nil, nil),   // response type as request
		append(wire.AppendWindow(nil, geom.R(0, 0, 1, 1)), 0xFF), // trailing byte
	}
	for i, req := range cases {
		resp := srv.Handle(req)
		if wire.Type(resp) != wire.MsgError {
			t.Errorf("case %d: got %v, want ERROR", i, wire.Type(resp))
		}
	}
}

func TestServerOverTCP(t *testing.T) {
	objs := dataset.Uniform(200, dataset.World, 5)
	srv, err := netsim.ListenAndServe("127.0.0.1:0", New("tcp-test", objs))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := netsim.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r, err := client.NewRemote("tcp-test", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := r.Count(context.Background(), dataset.World)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("count over TCP = %d", n)
	}
	objs2, err := r.Window(context.Background(), dataset.World)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs2) != 200 {
		t.Fatalf("window over TCP = %d objects", len(objs2))
	}
	if r.Usage().WireBytes == 0 {
		t.Fatal("TCP traffic was not metered")
	}
}

func TestMeteringCountsQueriesAndBytes(t *testing.T) {
	r := newRemote(t, testObjects())
	if _, err := r.Count(context.Background(), geom.R(0, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Window(context.Background(), geom.R(0, 0, 100, 100)); err != nil {
		t.Fatal(err)
	}
	u := r.Usage()
	if u.Queries != 2 {
		t.Fatalf("queries = %d, want 2", u.Queries)
	}
	if u.Messages != 4 {
		t.Fatalf("messages = %d, want 4", u.Messages)
	}
	// COUNT reply is 9 bytes payload; wire adds one 40-byte header.
	link := netsim.DefaultLink()
	wantDown := link.TB(1+wire.CountSize) + link.TB(5+4*wire.ObjectSize)
	if u.DownWireBytes != wantDown {
		t.Fatalf("down wire bytes = %d, want %d", u.DownWireBytes, wantDown)
	}
}

func TestDeviceCanHold(t *testing.T) {
	d := client.Device{BufferObjects: 10}
	if !d.CanHold(10) || d.CanHold(11) {
		t.Fatal("buffer bound incorrect")
	}
	unlimited := client.Device{}
	if !unlimited.CanHold(1 << 30) {
		t.Fatal("zero buffer should mean unlimited")
	}
}
