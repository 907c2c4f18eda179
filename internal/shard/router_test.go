package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// newTestRouter shards objs across n in-process servers behind a Router,
// plus a single unsharded oracle remote over the same dataset.
func newTestRouter(t testing.TB, objs []geom.Object, n int, copts []client.Option, sopts ...server.Option) (*Router, *client.Remote) {
	t.Helper()
	parts := Assign(objs, n)
	rems := make([]Endpoint, n)
	for i, part := range parts {
		name := fmt.Sprintf("D%d/%d", i+1, n)
		tr := netsim.Serve(server.New(name, part, sopts...))
		rem, err := client.NewRemote(name, tr, netsim.DefaultLink(), 1, copts...)
		if err != nil {
			t.Fatal(err)
		}
		rems[i] = rem
	}
	router, err := NewRouter("D", rems)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	tr := netsim.Serve(server.New("D", objs, sopts...))
	oracle, err := client.NewRemote("D", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.Close() })
	return router, oracle
}

// sameObjects compares two answers as sets: the router merges in ID
// order, a single server (and the solo pass-through) answers in tree
// order, so both sides are sorted before the element-wise check.
func sameObjects(t *testing.T, what string, got, want []geom.Object) {
	t.Helper()
	sortObjects(got)
	sortObjects(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d objects, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: object %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestRouterMatchesSingleServer is the merge-semantics guarantee: every
// query type answered through the router over {1, 2, 3, 4} shards equals
// the single unsharded server's answer (object lists compared as sets via
// ID order; counts exactly).
func TestRouterMatchesSingleServer(t *testing.T) {
	objs := dataset.GaussianClusters(500, 4, 600, dataset.World, 11)
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4} {
		router, oracle := newTestRouter(t, objs, n, nil, server.PublishIndex())

		info, err := router.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		winfo, err := oracle.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Count != winfo.Count || info.Bounds != winfo.Bounds || info.PointData != winfo.PointData {
			t.Fatalf("n=%d: merged info %+v, oracle %+v", n, info, winfo)
		}
		if info.TreeHeight == 0 {
			t.Fatalf("n=%d: merged info hides the published index", n)
		}

		for trial := 0; trial < 40; trial++ {
			x := dataset.World.MinX + rng.Float64()*dataset.World.Width()
			y := dataset.World.MinY + rng.Float64()*dataset.World.Height()
			w := geom.R(x, y, x+rng.Float64()*4000, y+rng.Float64()*4000)
			p := geom.Pt(x, y)
			eps := rng.Float64() * 500

			gotN, err := router.Count(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := oracle.Count(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("n=%d COUNT %v: %d, want %d", n, w, gotN, wantN)
			}

			gotO, err := router.Window(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			wantO, err := oracle.Window(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			sameObjects(t, fmt.Sprintf("n=%d WINDOW %v", n, w), gotO, wantO)

			gotR, err := router.Range(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			wantR, err := oracle.Range(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			sameObjects(t, fmt.Sprintf("n=%d RANGE %v", n, p), gotR, wantR)

			gotRC, err := router.RangeCount(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			wantRC, err := oracle.RangeCount(ctx, p, eps)
			if err != nil {
				t.Fatal(err)
			}
			if gotRC != wantRC {
				t.Fatalf("n=%d RANGE-COUNT %v: %d, want %d", n, p, gotRC, wantRC)
			}

			gotA, err := router.AvgArea(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			wantA, err := oracle.AvgArea(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if diff := gotA - wantA; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("n=%d AVG-AREA %v: %v, want %v", n, w, gotA, wantA)
			}
		}

		// Bucket probes: per-probe groups reassemble in probe order.
		pts := make([]geom.Point, 25)
		for i := range pts {
			pts[i] = geom.Pt(
				dataset.World.MinX+rng.Float64()*dataset.World.Width(),
				dataset.World.MinY+rng.Float64()*dataset.World.Height(),
			)
		}
		const eps = 400.0
		gotG, err := router.BucketRange(ctx, pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantG, err := oracle.BucketRange(ctx, pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotG) != len(wantG) {
			t.Fatalf("n=%d: %d bucket groups, want %d", n, len(gotG), len(wantG))
		}
		for i := range gotG {
			sameObjects(t, fmt.Sprintf("n=%d bucket group %d", n, i), gotG[i], wantG[i])
		}
		gotC, err := router.BucketRangeCount(ctx, pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		wantC, err := oracle.BucketRangeCount(ctx, pts, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotC {
			if gotC[i] != wantC[i] {
				t.Fatalf("n=%d bucket count %d: %d, want %d", n, i, gotC[i], wantC[i])
			}
		}

		// SemiJoin surface: MBR-MATCH unions per-shard answers; UPLOAD-JOIN
		// concatenates disjoint pair lists; LevelMBRs covers the dataset.
		rects := []geom.Rect{
			geom.R(0, 0, 4000, 4000),
			geom.R(6000, 6000, 9000, 9000),
			geom.R(2000, 5000, 3000, 8000),
		}
		gotM, err := router.MBRMatch(ctx, rects, 100)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := oracle.MBRMatch(ctx, rects, 100)
		if err != nil {
			t.Fatal(err)
		}
		sameObjects(t, fmt.Sprintf("n=%d MBR-MATCH", n), gotM, wantM)

		up := dataset.GaussianClusters(80, 2, 500, dataset.World, 13)
		gotP, err := router.UploadJoin(ctx, up, 300)
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := oracle.UploadJoin(ctx, up, 300)
		if err != nil {
			t.Fatal(err)
		}
		pairKey := func(p geom.Pair) uint64 { return uint64(p.RID)<<32 | uint64(p.SID) }
		if len(gotP) != len(wantP) {
			t.Fatalf("n=%d UPLOAD-JOIN: %d pairs, want %d", n, len(gotP), len(wantP))
		}
		seen := make(map[uint64]bool, len(wantP))
		for _, p := range wantP {
			seen[pairKey(p)] = true
		}
		for _, p := range gotP {
			if !seen[pairKey(p)] {
				t.Fatalf("n=%d UPLOAD-JOIN: unexpected pair %+v", n, p)
			}
		}

		mbrs, err := router.LevelMBRs(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Coverage is checked with a hair of slack: level MBRs cross the
		// wire as float32, so an advertised edge can round past a boundary
		// object by under the coordinate resolution — true of the unsharded
		// protocol too.
		const slack = 1e-2
		for _, o := range objs {
			covered := false
			for _, m := range mbrs {
				if m.Expand(slack).Intersects(o.MBR) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("n=%d: object %d not covered by any level-1 MBR", n, o.ID)
			}
		}
	}
}

// TestRouterCountSumOverRandomWindows is the protocol-level half of the
// COUNT-sum property: 1000 random windows answered over real shard links
// match the unsharded server exactly.
func TestRouterCountSumOverRandomWindows(t *testing.T) {
	objs := dataset.Uniform(600, dataset.World, 21)
	router, oracle := newTestRouter(t, objs, 4, nil)
	rng := rand.New(rand.NewSource(22))
	ctx := context.Background()
	for trial := 0; trial < 1000; trial++ {
		x := dataset.World.MinX + rng.Float64()*dataset.World.Width()
		y := dataset.World.MinY + rng.Float64()*dataset.World.Height()
		w := geom.R(x, y, x+rng.Float64()*5000, y+rng.Float64()*5000)
		got, err := router.Count(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Count(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("window %v: router count %d, oracle %d", w, got, want)
		}
	}
}

// TestRouterGoBatch drives the batched path: pre-encoded COUNT, WINDOW,
// RANGE and RANGE-COUNT frames routed through per-shard-link batchers
// must complete with the same answers the typed methods give.
func TestRouterGoBatch(t *testing.T) {
	objs := dataset.GaussianClusters(400, 3, 500, dataset.World, 31)
	copts := []client.Option{client.WithBatch(client.BatchConfig{MaxBatch: 8})}
	router, _ := newTestRouter(t, objs, 3, copts)
	ctx := context.Background()

	w1 := geom.R(1000, 1000, 6000, 6000)
	w2 := geom.R(7000, 7000, 9500, 9500)
	p := geom.Pt(5000, 5000)
	reqs := [][]byte{
		wire.AppendCount(bufpool.Get(), w1),
		wire.AppendWindow(bufpool.Get(), w2),
		wire.AppendRange(bufpool.Get(), p, 600),
		wire.AppendRangeCount(bufpool.Get(), p, 600),
		wire.AppendCount(bufpool.Get(), geom.R(-9000, -9000, -8000, -8000)), // no shard overlaps
	}
	calls := router.GoBatch(ctx, reqs)

	gotN, err := calls[0].Count()
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := router.Count(ctx, w1)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("batched COUNT %d, typed %d", gotN, wantN)
	}

	gotO, err := calls[1].Objects()
	if err != nil {
		t.Fatal(err)
	}
	wantO, err := router.Window(ctx, w2)
	if err != nil {
		t.Fatal(err)
	}
	sameObjects(t, "batched WINDOW", gotO, wantO)

	gotR, err := calls[2].Objects()
	if err != nil {
		t.Fatal(err)
	}
	wantR, err := router.Range(ctx, p, 600)
	if err != nil {
		t.Fatal(err)
	}
	sameObjects(t, "batched RANGE", gotR, wantR)

	gotRC, err := calls[3].Count()
	if err != nil {
		t.Fatal(err)
	}
	wantRC, err := router.RangeCount(ctx, p, 600)
	if err != nil {
		t.Fatal(err)
	}
	if gotRC != wantRC {
		t.Fatalf("batched RANGE-COUNT %d, typed %d", gotRC, wantRC)
	}

	if n, err := calls[4].Count(); err != nil || n != 0 {
		t.Fatalf("off-space COUNT = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRouterSoloIsBitIdenticalPassThrough: the 1-shard router must meter
// exactly the bytes of a direct remote for an identical call sequence —
// the wire-compatibility half of the sharding guarantee.
func TestRouterSoloIsBitIdenticalPassThrough(t *testing.T) {
	objs := dataset.GaussianClusters(300, 4, 500, dataset.World, 41)
	router, oracle := newTestRouter(t, objs, 1, nil)
	ctx := context.Background()
	drive := func(q interface {
		Info(context.Context) (wire.Info, error)
		Count(context.Context, geom.Rect) (int, error)
		Window(context.Context, geom.Rect) ([]geom.Object, error)
		RangeCount(context.Context, geom.Point, float64) (int, error)
	}) {
		if _, err := q.Info(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Count(ctx, geom.R(0, 0, 5000, 5000)); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Window(ctx, geom.R(2000, 2000, 4000, 4000)); err != nil {
			t.Fatal(err)
		}
		if _, err := q.RangeCount(ctx, geom.Pt(5000, 5000), 800); err != nil {
			t.Fatal(err)
		}
	}
	drive(router)
	drive(oracle)
	if got, want := router.Usage(), oracle.Usage(); got != want {
		t.Fatalf("solo router usage %+v, direct remote %+v", got, want)
	}
}

// failAfterRT passes round trips through until a trigger count, then
// fails every call — a shard server crashing mid-join.
type failAfterRT struct {
	inner netsim.RoundTripper
	after int32
	n     atomic.Int32
}

var errShardDown = errors.New("shard server down")

func (f *failAfterRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if f.n.Add(1) > f.after {
		return nil, errShardDown
	}
	return f.inner.RoundTrip(ctx, req)
}

func (f *failAfterRT) Close() error { return f.inner.Close() }

// TestRouterShardFailureSurfacesRootCause kills one shard after its INFO
// answer: the next request must fail promptly with the dead shard's error
// (not a generic cancellation), and no goroutine may outlive the router —
// whether the request is a typed call (Do) or submitted through GoBatch.
func TestRouterShardFailureSurfacesRootCause(t *testing.T) {
	submissions := []struct {
		name  string
		count func(ctx context.Context, r *Router) (int, error)
	}{
		{"typed", func(ctx context.Context, r *Router) (int, error) { return r.Count(ctx, dataset.World) }},
		{"gobatch", func(ctx context.Context, r *Router) (int, error) {
			frame := wire.AppendCount(bufpool.Get(), dataset.World)
			resp, err := r.GoBatch(ctx, [][]byte{frame})[0].Frame()
			if err != nil {
				return 0, err
			}
			defer bufpool.Put(resp)
			n, err := wire.DecodeCountReply(resp)
			return int(n), err
		}},
	}
	for _, sm := range submissions {
		t.Run(sm.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			objs := dataset.GaussianClusters(400, 4, 800, dataset.World, 51)
			parts := Assign(objs, 3)
			rems := make([]Endpoint, 3)
			for i, part := range parts {
				name := fmt.Sprintf("D%d/3", i+1)
				var rt netsim.RoundTripper = netsim.Serve(server.New(name, part))
				if i == 1 {
					rt = &failAfterRT{inner: rt, after: 1} // INFO succeeds, everything after fails
				}
				rem, err := client.NewRemote(name, rt, netsim.DefaultLink(), 1)
				if err != nil {
					t.Fatal(err)
				}
				rems[i] = rem
			}
			router, err := NewRouter("D", rems)
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			_, err = sm.count(context.Background(), router)
			if err == nil {
				t.Fatal("Count over a dead shard succeeded")
			}
			if !errors.Is(err, errShardDown) {
				t.Fatalf("error %v does not unwrap to the shard fault", err)
			}
			if !strings.Contains(err.Error(), "D2/3") {
				t.Fatalf("error %q does not name the dead shard", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("failure took %v to surface", elapsed)
			}
			router.Close()
			waitGoroutines(t, baseline)
		})
	}
}

// blockingRT parks every round trip after a trigger count until released.
type blockingRT struct {
	inner   netsim.RoundTripper
	after   int32
	n       atomic.Int32
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (b *blockingRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if b.n.Add(1) > b.after {
		b.once.Do(func() { close(b.reached) })
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.RoundTrip(ctx, req)
}

func (b *blockingRT) Close() error { return b.inner.Close() }

// TestRouterCancelMidScatter hangs one shard mid-scatter and cancels the
// context: the request must return promptly with context.Canceled, every
// sibling sub-query must be joined, and no worker may leak — whether the
// request is a typed call (Do) or submitted through GoBatch.
func TestRouterCancelMidScatter(t *testing.T) {
	submissions := []struct {
		name   string
		window func(ctx context.Context, r *Router) ([]geom.Object, error)
	}{
		{"typed", func(ctx context.Context, r *Router) ([]geom.Object, error) { return r.Window(ctx, dataset.World) }},
		{"gobatch", func(ctx context.Context, r *Router) ([]geom.Object, error) {
			frame := wire.AppendWindow(bufpool.Get(), dataset.World)
			resp, err := r.GoBatch(ctx, [][]byte{frame})[0].Frame()
			if err != nil {
				return nil, err
			}
			defer bufpool.Put(resp)
			return wire.DecodeObjects(resp)
		}},
	}
	for _, sm := range submissions {
		t.Run(sm.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			objs := dataset.GaussianClusters(400, 4, 800, dataset.World, 61)
			parts := Assign(objs, 3)
			hang := &blockingRT{after: 1, reached: make(chan struct{}), release: make(chan struct{})}
			rems := make([]Endpoint, 3)
			for i, part := range parts {
				name := fmt.Sprintf("D%d/3", i+1)
				var rt netsim.RoundTripper = netsim.Serve(server.New(name, part))
				if i == 2 {
					hang.inner = rt
					rt = hang
				}
				rem, err := client.NewRemote(name, rt, netsim.DefaultLink(), 1)
				if err != nil {
					t.Fatal(err)
				}
				rems[i] = rem
			}
			router, err := NewRouter("D", rems)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := sm.window(ctx, router)
				done <- err
			}()
			select {
			case <-hang.reached:
			case <-time.After(2 * time.Second):
				t.Fatal("scatter never reached the hung shard")
			}
			start := time.Now()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("scatter did not return within 2s of cancellation")
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
			close(hang.release)
			router.Close()
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines polls until the goroutine count settles back to at most
// base, failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestRouterRejectsMixedTariffs: the money-cost account needs one shared
// per-byte price; construction must refuse a mix.
func TestRouterRejectsMixedTariffs(t *testing.T) {
	objs := dataset.Uniform(10, dataset.World, 71)
	a, err := client.NewRemote("A", netsim.Serve(server.New("A", objs)), netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.NewRemote("B", netsim.Serve(server.New("B", objs)), netsim.DefaultLink(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := NewRouter("D", []Endpoint{a, b}); err == nil {
		t.Fatal("NewRouter accepted mixed tariffs")
	}
	if _, err := NewRouter("D", nil); err == nil {
		t.Fatal("NewRouter accepted zero shards")
	}
}

// shardReference is the reply a routed list request must get: every
// shard server's own reply to req but the gap's, its records
// concatenated in shard order (a BUCKET-RANGE probe by probe).
func shardReference(t *testing.T, req []byte, srvs []*server.Server, gap int) []byte {
	t.Helper()
	var objs [][]geom.Object
	var groups [][][]geom.Object
	var pairs []geom.Pair
	var rects []geom.Rect
	for i, srv := range srvs {
		if i == gap {
			continue
		}
		reply := srv.Handle(req)
		var err error
		switch wire.Type(reply) {
		case wire.MsgObjects:
			var o []geom.Object
			o, err = wire.DecodeObjects(reply)
			objs = append(objs, o)
		case wire.MsgBucketObjects:
			var g [][]geom.Object
			g, err = wire.DecodeBucketObjects(reply)
			groups = append(groups, g)
		case wire.MsgPairs:
			pairs, err = wire.DecodePairsAppend(reply, pairs)
		case wire.MsgRects:
			rects, err = wire.DecodeRectsAppend(reply, rects)
		default:
			t.Fatalf("%v: shard %d answers %v", wire.Type(req), i, wire.Type(reply))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	switch wire.Type(req) {
	case wire.MsgBucketRange:
		pts, _, err := wire.DecodeBucketRangeLike(req, wire.MsgBucketRange)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]geom.Object, len(pts))
		for p := range out {
			var col [][]geom.Object
			for _, g := range groups {
				col = append(col, g[p])
			}
			out[p] = MergeObjects(nil, col)
		}
		return wire.AppendBucketObjects(nil, out)
	case wire.MsgUploadJoin:
		return wire.AppendPairs(nil, pairs)
	case wire.MsgMBRLevel:
		return wire.AppendRects(nil, rects)
	}
	return wire.AppendObjects(nil, MergeObjects(nil, objs))
}

// TestRoutedListsConcatenateShardReplies pins what a routed list is: the
// shards' own replies, their records concatenated in shard order under
// one header. It covers all six list rows (WINDOW, RANGE, MBR-MATCH,
// BUCKET-RANGE, UPLOAD-JOIN, MBR-LEVEL) over 2, 3 and 5 shards, flat and
// as a fanout-2 tree, with and without a partial-mode gap, through Do
// and GoBatch.
func TestRoutedListsConcatenateShardReplies(t *testing.T) {
	objs := dataset.GaussianClusters(600, 5, 700, dataset.World, 43)
	rng := rand.New(rand.NewSource(44))
	reqs := [][]byte{wire.AppendWindow(nil, dataset.World)}
	for range 4 {
		x, y := rng.Float64()*8000, rng.Float64()*8000
		w := geom.R(x, y, x+rng.Float64()*4000, y+rng.Float64()*4000)
		reqs = append(reqs, wire.AppendWindow(nil, w), wire.AppendRange(nil, geom.Pt(x, y), 1500),
			wire.AppendMBRMatch(nil, []geom.Rect{w, geom.R(y, x, y+500, x+500)}, 300))
	}
	pts := make([]geom.Point, 12)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	reqs = append(reqs, wire.AppendBucketRange(nil, pts, 900), wire.AppendUploadJoin(nil, objs[:60], 200))
	for _, n := range []int{2, 3, 5} {
		srvs := make([]*server.Server, n)
		height := 0
		for i, part := range Assign(objs, n) {
			srvs[i] = server.New(fmt.Sprintf("S%d", i), part, server.PublishIndex())
			if h := srvs[i].Tree().Height(); height == 0 || h < height {
				height = h
			}
		}
		// The levels core asks for lie below every shard's height.
		reqs := append(slices.Clone(reqs), wire.AppendMBRLevel(nil, 0), wire.AppendMBRLevel(nil, height-1))
		for _, fanout := range []int{0, 2} {
			for _, gap := range []int{-1, n / 2} {
				t.Run(fmt.Sprintf("shards=%d/fanout=%d/gap=%d", n, fanout, gap), func(t *testing.T) {
					router, err := ServeLocal("D", objs, LocalConfig{
						Shards: n, TreeFanout: fanout, Workers: 2, Link: netsim.DefaultLink(), Price: 1,
						ServerOpts: []server.Option{server.PublishIndex()},
						WrapTransport: func(label string, rt netsim.RoundTripper) netsim.RoundTripper {
							if label == fmt.Sprintf("D%d/%d", gap+1, n) {
								return &failAfterRT{inner: rt, after: 1} // answers its INFO alone
							}
							return rt
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer router.Close()
					ctx := context.Background()
					rep := health.NewReport()
					if gap >= 0 {
						ctx = health.WithReport(ctx, rep)
					}
					if _, err := router.Info(ctx); err != nil {
						t.Fatal(err)
					}
					for _, req := range reqs {
						want := shardReference(t, req, srvs, gap)
						got, err := router.Do(ctx, slices.Clone(req))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("Do %v: routed reply is not the shard replies concatenated (%d vs %d bytes)",
								wire.Type(req), len(got), len(want))
						}
						got, err = router.GoBatch(ctx, [][]byte{slices.Clone(req)})[0].Frame()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("GoBatch %v: routed reply is not the shard replies concatenated (%d vs %d bytes)",
								wire.Type(req), len(got), len(want))
						}
					}
					if gap >= 0 && len(rep.Gaps()) == 0 {
						t.Fatal("the failed shard left no gap")
					}
				})
			}
		}
	}
}

// fixedLeaf is an Endpoint whose INFO describes a shard over the whole
// world and which answers every other request with reply.
type fixedLeaf struct {
	stubLeaf
	reply []byte
}

func (f *fixedLeaf) Do(_ context.Context, req []byte) ([]byte, error) {
	defer bufpool.Put(req)
	if wire.Type(req) == wire.MsgInfo {
		return wire.AppendInfoReply(nil, wire.Info{Count: 1, Bounds: dataset.World, TreeHeight: 3, PointData: true}), nil
	}
	return slices.Clone(f.reply), nil
}

func (f *fixedLeaf) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	return lazyDo(ctx, f.name, f.Do, reqs)
}

// TestRouterRejectsMalformedChildReplies: the router concatenates child
// replies without decoding them, so it validates them instead. A short
// reply, a wrong type, a group count that is not the plan's, a group
// overrunning its frame and a trailing byte are each an error of the
// request, never a panic or a forwarded frame.
func TestRouterRejectsMalformedChildReplies(t *testing.T) {
	obj := []geom.Object{geom.PointObject(7, geom.Pt(1, 1))}
	objects := wire.AppendObjects(nil, obj)
	bucket := wire.AppendBucketObjects(nil, [][]geom.Object{obj, nil})
	pairs := wire.AppendPairs(nil, []geom.Pair{{RID: 1, SID: 2}})
	rects := wire.AppendRects(nil, []geom.Rect{dataset.World})
	window := wire.AppendWindow(nil, dataset.World)
	probes := wire.AppendBucketRange(nil, []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20)}, 5)
	upload := wire.AppendUploadJoin(nil, obj, 5)
	level := wire.AppendMBRLevel(nil, 0)
	overrun := slices.Clone(bucket)
	overrun[5] = 2 // the first group claims two objects and carries one
	for _, tc := range []struct {
		name       string
		req, reply []byte
	}{
		{"objects/short", window, objects[:len(objects)-1]},
		{"objects/header-only", window, objects[:3]},
		{"objects/wrong-type", window, wire.AppendCountReply(nil, 1)},
		{"objects/trailing", window, append(slices.Clone(objects), 0)},
		{"bucket/short", probes, bucket[:4]},
		{"bucket/wrong-type", probes, objects},
		{"bucket/groups-not-plan", probes, wire.AppendBucketObjects(nil, [][]geom.Object{obj})},
		{"bucket/group-overruns", probes, overrun},
		{"bucket/trailing", probes, append(slices.Clone(bucket), 0)},
		{"pairs/short", upload, pairs[:len(pairs)-1]},
		{"pairs/wrong-type", upload, objects},
		{"pairs/trailing", upload, append(slices.Clone(pairs), 0)},
		{"rects/short", level, rects[:len(rects)-1]},
		{"rects/wrong-type", level, pairs},
		{"rects/trailing", level, append(slices.Clone(rects), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := &fixedLeaf{stubLeaf{name: "good"}, shardReplyFor(tc.req)}
			bad := &fixedLeaf{stubLeaf{name: "bad"}, tc.reply}
			router, err := NewRouter("D", []Endpoint{good, bad})
			if err != nil {
				t.Fatal(err)
			}
			got, err := router.Do(context.Background(), slices.Clone(tc.req))
			if err == nil {
				t.Fatalf("malformed child reply %x forwarded as %x", tc.reply, got)
			}
		})
	}
}

// shardReplyFor returns a well-formed one-shard reply to a list request.
func shardReplyFor(req []byte) []byte {
	obj := []geom.Object{geom.PointObject(3, geom.Pt(2, 2))}
	switch wire.Type(req) {
	case wire.MsgBucketRange:
		return wire.AppendBucketObjects(nil, [][]geom.Object{obj, nil})
	case wire.MsgUploadJoin:
		return wire.AppendPairs(nil, []geom.Pair{{RID: 7, SID: 3}})
	case wire.MsgMBRLevel:
		return wire.AppendRects(nil, []geom.Rect{obj[0].MBR})
	}
	return wire.AppendObjects(nil, obj)
}
