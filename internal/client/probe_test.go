package client

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestRemoteProbeSurface walks every query method of the Remote against
// a real server and cross-checks the answers against each other: counts
// must agree with the object lists they summarize, buckets with their
// per-point ranges, and the self-join must report at least the identity
// pairs. This pins the encode→round-trip→decode path of the full probe
// surface in one place.
func TestRemoteProbeSurface(t *testing.T) {
	objs := dataset.GaussianClusters(300, 4, 500, dataset.World, 31)
	tr := netsim.Serve(server.New("D", objs, server.PublishIndex()))
	r, err := NewRemote("D", tr, netsim.DefaultLink(), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	if got := r.PricePerByte(); got != 2.5 {
		t.Fatalf("PricePerByte = %v, want 2.5", got)
	}

	info, err := r.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int(info.Count) != len(objs) {
		t.Fatalf("INFO count %d, want %d", info.Count, len(objs))
	}

	w := geom.R(1000, 1000, 7000, 7000)
	win, err := r.Window(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := r.Count(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != len(win) || cnt == 0 {
		t.Fatalf("COUNT %d disagrees with WINDOW size %d (want both positive)", cnt, len(win))
	}
	area, err := r.AvgArea(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if area < 0 {
		t.Fatalf("AVGAREA %v, want >= 0", area)
	}

	p := geom.Pt(4000, 4000)
	const eps = 500
	rng, err := r.Range(ctx, p, eps)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := r.RangeCount(ctx, p, eps)
	if err != nil {
		t.Fatal(err)
	}
	if rc != len(rng) {
		t.Fatalf("RANGECOUNT %d disagrees with RANGE size %d", rc, len(rng))
	}

	pts := []geom.Point{p, geom.Pt(2000, 2000)}
	bks, err := r.BucketRange(ctx, pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(bks) != len(pts) || len(bks[0]) != len(rng) {
		t.Fatalf("BUCKETRANGE shape %d buckets / %d first, want %d / %d",
			len(bks), len(bks[0]), len(pts), len(rng))
	}
	bcs, err := r.BucketRangeCount(ctx, pts, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if int(bcs[i]) != len(bks[i]) {
			t.Fatalf("BUCKETRANGECOUNT[%d] = %d disagrees with bucket size %d", i, bcs[i], len(bks[i]))
		}
	}

	mbrs, err := r.LevelMBRs(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(mbrs) == 0 {
		t.Fatal("LEVELMBRS answered no rectangles from a published index")
	}
	match, err := r.MBRMatch(ctx, mbrs[:1], eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(match) == 0 {
		t.Fatal("MBRMATCH against the root MBR matched nothing")
	}

	// Uploading a sample of the server's own objects must at least report
	// every identity pair (distance zero <= eps).
	probe := objs[:20:20]
	pairs, err := r.UploadJoin(ctx, probe, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) < len(probe) {
		t.Fatalf("UPLOADJOIN of %d resident objects reported %d pairs, want >= identity", len(probe), len(pairs))
	}
}

func TestDefaultRetryIsSane(t *testing.T) {
	p := DefaultRetry()
	if p.MaxAttempts < 2 || p.Backoff <= 0 {
		t.Fatalf("DefaultRetry = %+v, want multiple attempts with positive backoff", p)
	}
}

// TestDetachedCall covers the detached completion path the replica
// failover uses: a Call not owned by any batcher, completed by hand, and
// drained through the public Frame accessor.
func TestDetachedCall(t *testing.T) {
	c := NewDetachedCall("probe")
	done := make(chan struct{})
	go func() {
		c.CompleteFrame(wire.AppendCountReply(nil, 7), nil)
		close(done)
	}()
	<-done
	resp, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := wire.DecodeCountReply(resp); err != nil || n != 7 {
		t.Fatalf("decoded (%d, %v), want (7, nil)", n, err)
	}
	// A call delivers its frame exactly once; a second drain must refuse.
	if _, err := c.Count(); err == nil {
		t.Fatal("consumed call answered a second time")
	}
}

// TestLatencyTracker pins the ring semantics and the quantile gate the
// hedge threshold is built on.
func TestLatencyTracker(t *testing.T) {
	lt := NewLatencyTracker()
	if _, ok := lt.Quantile(99, 1); ok {
		t.Fatal("empty tracker answered a quantile")
	}
	const n = latencyWindow
	for i := 1; i <= n; i++ {
		lt.Add(time.Duration(i) * time.Millisecond)
	}
	if got := len(lt.samples); got != n {
		t.Fatalf("%d samples, want %d", got, n)
	}
	if _, ok := lt.Quantile(99, n+1); ok {
		t.Fatal("quantile answered below the MinSamples gate")
	}
	if d, ok := lt.Quantile(50, n); !ok || d != n/2*time.Millisecond {
		t.Fatalf("p50 = (%v, %v), want (%v, true)", d, ok, n/2*time.Millisecond)
	}
	if d, ok := lt.Quantile(100, n); !ok || d != n*time.Millisecond {
		t.Fatalf("p100 = (%v, %v), want (%v, true)", d, ok, n*time.Millisecond)
	}
	if d, ok := lt.Quantile(0, 1); !ok || d != 1*time.Millisecond {
		t.Fatalf("p0 = (%v, %v), want (1ms, true)", d, ok)
	}
	if d, ok := lt.Quantile(200, 1); !ok || d != n*time.Millisecond {
		t.Fatalf("clamped pct = (%v, %v), want (%v, true)", d, ok, n*time.Millisecond)
	}

	// The window is a ring: one sample more evicts the oldest, so the
	// minimum shifts from 1ms to 2ms.
	lt.Add(10 * n * time.Millisecond)
	if got := len(lt.samples); got != n {
		t.Fatalf("%d samples after wrap, want %d", got, n)
	}
	if d, _ := lt.Quantile(0, 1); d != 2*time.Millisecond {
		t.Fatalf("post-wrap minimum %v, want 2ms (oldest sample evicted)", d)
	}
}
