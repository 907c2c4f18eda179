package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// newTestTree shards objs across n in-process servers stacked under a
// NewTree of the given fanout, plus a flat router over an identical
// second fleet as the reference.
func newTestTree(t testing.TB, objs []geom.Object, n, fanout int) (tree, flat *Router) {
	t.Helper()
	boot := func(cfg LocalConfig) *Router {
		r, err := ServeLocal("D", objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	sopts := []server.Option{server.PublishIndex()}
	tree = boot(LocalConfig{Shards: n, TreeFanout: fanout, Link: netsim.DefaultLink(), Price: 1, Workers: 4, ServerOpts: sopts})
	flat = boot(LocalConfig{Shards: n, Link: netsim.DefaultLink(), Price: 1, Workers: 4, ServerOpts: sopts})
	return tree, flat
}

// leafNames walks a routing topology and returns every leaf endpoint
// name in left-to-right order.
func leafNames(r *Router) []string {
	var out []string
	for _, s := range r.Shards() {
		if agg, ok := s.(*Aggregator); ok {
			out = append(out, leafNames(agg)...)
			continue
		}
		out = append(out, s.Name())
	}
	return out
}

// treeDepth returns the number of levels below the root router.
func treeDepth(r *Router) int {
	deepest := 1
	for _, s := range r.Shards() {
		if agg, ok := s.(*Aggregator); ok {
			if d := 1 + treeDepth(agg); d > deepest {
				deepest = d
			}
		}
	}
	return deepest
}

// TestTreeTopologyProperties is the structural property suite: for every
// (shards, fanout) shape, each leaf shard appears in exactly one leaf
// position of the tree, in the same order the flat router would scatter
// over; the root fans out to at most fanout children (plus at most one
// absorbed singleton); NumShards reports leaves, not children; and
// fanout >= shards degenerates to the flat router.
func TestTreeTopologyProperties(t *testing.T) {
	objs := dataset.Uniform(512, dataset.World, 31)
	for _, tc := range []struct{ shards, fanout, wantDepth int }{
		{4, 4, 1}, // degenerate: flat
		{4, 2, 2},
		{8, 2, 3},
		{9, 2, 3}, // odd fleet: trailing singleton absorbed
		{16, 4, 2},
		{64, 8, 2},
		{7, 3, 2},
	} {
		t.Run(fmt.Sprintf("shards=%d/fanout=%d", tc.shards, tc.fanout), func(t *testing.T) {
			parts := Assign(objs, tc.shards)
			eps := make([]Endpoint, len(parts))
			for i := range parts {
				eps[i] = &stubLeaf{name: fmt.Sprintf("D%d/%d", i+1, tc.shards)}
			}
			root, err := NewTree("D", eps, tc.fanout, netsim.DefaultLink())
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, e := range eps {
				want = append(want, e.Name())
			}
			got := leafNames(root)
			if !slices.Equal(got, want) {
				t.Fatalf("leaves %v, want every shard exactly once in order: %v", got, want)
			}
			if n := root.NumShards(); n != tc.shards {
				t.Fatalf("NumShards() = %d, want leaf count %d", n, tc.shards)
			}
			if d := treeDepth(root); d != tc.wantDepth {
				t.Fatalf("depth %d, want %d", d, tc.wantDepth)
			}
			if len(root.Shards()) > tc.fanout {
				t.Fatalf("root fans out to %d children, want <= fanout %d", len(root.Shards()), tc.fanout)
			}
			if tc.wantDepth == 1 {
				for _, s := range root.Shards() {
					if _, ok := s.(*Aggregator); ok {
						t.Fatal("fanout >= shards must degenerate to the flat router, found an interior node")
					}
				}
			}
		})
	}
}

// stubLeaf is a minimal Endpoint for topology-only assertions: the seam
// and the meter accessors, no typed surface.
type stubLeaf struct {
	name  string
	usage netsim.Usage
}

func (s *stubLeaf) Name() string { return s.name }
func (s *stubLeaf) Do(_ context.Context, req []byte) ([]byte, error) {
	bufpool.Put(req)
	return nil, fmt.Errorf("%s: stub leaf answers nothing", s.name)
}
func (s *stubLeaf) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	return lazyDo(ctx, s.name, s.Do, reqs)
}
func (s *stubLeaf) Usage() netsim.Usage   { return s.usage }
func (s *stubLeaf) PricePerByte() float64 { return 1 }
func (s *stubLeaf) Retries() int64        { return 0 }
func (s *stubLeaf) Close() error          { return nil }

// lazyDo is a stub endpoint's GoBatch: each call runs do on its request
// when it is waited for.
func lazyDo(ctx context.Context, name string, do func(context.Context, []byte) ([]byte, error), reqs [][]byte) []*client.Call {
	calls := make([]*client.Call, len(reqs))
	for i, req := range reqs {
		calls[i] = client.NewLazyCall(name, func() ([]byte, error) { return do(ctx, req) })
	}
	return calls
}

// TestTreeMatchesFlatRouter drives every query type through a depth-2
// and depth-3 tree and a flat router over identical fleets, asserting
// byte-for-byte equal answers — the merge layer is shared, so the
// gathered order is identical at any depth.
func TestTreeMatchesFlatRouter(t *testing.T) {
	objs := dataset.GaussianClusters(600, 5, 700, dataset.World, 33)
	rng := rand.New(rand.NewSource(35))
	for _, tc := range []struct{ shards, fanout int }{
		{4, 2},
		{8, 2},
		{9, 3},
	} {
		t.Run(fmt.Sprintf("shards=%d/fanout=%d", tc.shards, tc.fanout), func(t *testing.T) {
			tree, flat := newTestTree(t, objs, tc.shards, tc.fanout)
			ctx := context.Background()

			ti, err := tree.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			fi, err := flat.Info(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if ti != fi {
				t.Fatalf("merged info diverges: tree %+v, flat %+v", ti, fi)
			}

			windows := []geom.Rect{dataset.World, geom.R(0, 0, 4000, 4000), geom.R(3000, 2000, 8000, 9000)}
			for i := 0; i < 6; i++ {
				x, y := rng.Float64()*9000, rng.Float64()*9000
				windows = append(windows, geom.R(x, y, x+rng.Float64()*2500, y+rng.Float64()*2500))
			}
			for _, w := range windows {
				tn, err := tree.Count(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				fn, err := flat.Count(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				if tn != fn {
					t.Fatalf("Count(%v): tree %d, flat %d", w, tn, fn)
				}
				tw, err := tree.Window(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				fw, err := flat.Window(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(tw, fw) {
					t.Fatalf("Window(%v): tree and flat answers diverge (%d vs %d objects)", w, len(tw), len(fw))
				}
				ta, err := tree.AvgArea(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				fa, err := flat.AvgArea(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				if ta != fa {
					t.Fatalf("AvgArea(%v): tree %v, flat %v", w, ta, fa)
				}
			}

			pts := make([]geom.Point, 24)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			}
			const eps = 900
			for _, p := range pts[:8] {
				tr, err := tree.Range(ctx, p, eps)
				if err != nil {
					t.Fatal(err)
				}
				fr, err := flat.Range(ctx, p, eps)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(tr, fr) {
					t.Fatalf("Range(%v): answers diverge", p)
				}
				tn, err := tree.RangeCount(ctx, p, eps)
				if err != nil {
					t.Fatal(err)
				}
				fn, err := flat.RangeCount(ctx, p, eps)
				if err != nil {
					t.Fatal(err)
				}
				if tn != fn {
					t.Fatalf("RangeCount(%v): tree %d, flat %d", p, tn, fn)
				}
			}

			tg, err := tree.BucketRange(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := flat.BucketRange(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(tg) != len(fg) {
				t.Fatalf("BucketRange groups: %d vs %d", len(tg), len(fg))
			}
			for i := range tg {
				if !slices.Equal(tg[i], fg[i]) {
					t.Fatalf("BucketRange group %d diverges", i)
				}
			}
			tc2, err := tree.BucketRangeCount(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			fc2, err := flat.BucketRangeCount(ctx, pts, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tc2, fc2) {
				t.Fatalf("BucketRangeCount diverges: %v vs %v", tc2, fc2)
			}

			tm, err := tree.LevelMBRs(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			fm, err := flat.LevelMBRs(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tm, fm) {
				t.Fatalf("LevelMBRs diverges: %d vs %d rects", len(tm), len(fm))
			}
			tmm, err := tree.MBRMatch(ctx, tm[:min(len(tm), 6)], eps)
			if err != nil {
				t.Fatal(err)
			}
			fmm, err := flat.MBRMatch(ctx, fm[:min(len(fm), 6)], eps)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tmm, fmm) {
				t.Fatalf("MBRMatch diverges")
			}

			uploads := slices.Clone(objs[:80])
			tp, err := tree.UploadJoin(ctx, uploads, eps)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := flat.UploadJoin(ctx, uploads, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tp, fp) {
				t.Fatalf("UploadJoin diverges: %d vs %d pairs", len(tp), len(fp))
			}

			// Leaf-level traffic is identical too: the same sub-queries hit
			// the same leaf servers whether an aggregator or the device
			// itself scattered them. (AvgArea is the one exception — its
			// companion COUNT re-issues per level — so this comparison runs
			// on the query mix above minus nothing: the companion COUNTs the
			// tree adds are answered by the same leaves with the same bytes
			// per query; assert >= instead of == to keep this robust.)
			treeLeaves := tree.LevelUsages()
			flatLeaves := flat.LevelUsages()
			if len(treeLeaves) < 2 {
				t.Fatalf("tree reports %d levels, want >= 2", len(treeLeaves))
			}
			if got, want := treeLeaves[len(treeLeaves)-1].WireBytes, flatLeaves[0].WireBytes; got < want {
				t.Fatalf("tree leaf level carried %d wire bytes, flat %d — leaves must see at least the flat load", got, want)
			}
		})
	}
}

// TestTreeGoBatchMatchesFlat drives the batched probe path through both
// topologies: identical merged replies per call.
func TestTreeGoBatchMatchesFlat(t *testing.T) {
	objs := dataset.GaussianClusters(500, 4, 800, dataset.World, 37)
	tree, flat := newTestTree(t, objs, 8, 2)
	ctx := context.Background()
	if _, err := tree.Info(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Info(ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	frames := func() [][]byte {
		var reqs [][]byte
		for i := 0; i < 12; i++ {
			x, y := rng.Float64()*8000, rng.Float64()*8000
			switch i % 4 {
			case 0:
				reqs = append(reqs, wire.AppendCount(bufpool.Get(), geom.R(x, y, x+2000, y+2000)))
			case 1:
				reqs = append(reqs, wire.AppendWindow(bufpool.Get(), geom.R(x, y, x+1500, y+1500)))
			case 2:
				reqs = append(reqs, wire.AppendRange(bufpool.Get(), geom.Pt(x, y), 700))
			default:
				reqs = append(reqs, wire.AppendRangeCount(bufpool.Get(), geom.Pt(x, y), 700))
			}
		}
		return reqs
	}
	rng = rand.New(rand.NewSource(39))
	treeReqs := frames()
	rng = rand.New(rand.NewSource(39))
	flatReqs := frames()
	tCalls := tree.GoBatch(ctx, treeReqs)
	fCalls := flat.GoBatch(ctx, flatReqs)
	for i := range tCalls {
		tf, terr := tCalls[i].Frame()
		ff, ferr := fCalls[i].Frame()
		if (terr == nil) != (ferr == nil) {
			t.Fatalf("call %d: tree err %v, flat err %v", i, terr, ferr)
		}
		if !slices.Equal(tf, ff) {
			t.Fatalf("call %d: merged reply frames diverge (%d vs %d bytes)", i, len(tf), len(ff))
		}
		bufpool.Put(tf)
		bufpool.Put(ff)
	}
}

// TestTreeRootBytesScaling is the headline acceptance criterion: growing
// the fleet 8× (8 → 64 shards) under an aggregate-heavy workload grows
// the root-link wire bytes >= 6× with the flat scatter but <= 2× under
// the tree overlay — the interior partial merges absorb the fan-in.
func TestTreeRootBytesScaling(t *testing.T) {
	objs := dataset.Uniform(4096, dataset.World, 41)
	const fanout = 8
	rootBytes := func(n, fanout int) int {
		r, err := ServeLocal("D", objs, LocalConfig{
			Shards: n, TreeFanout: fanout, Workers: 8,
			Link: netsim.DefaultLink(), Price: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		ctx := context.Background()
		if _, err := r.Info(ctx); err != nil {
			t.Fatal(err)
		}
		before := r.LevelUsages()[0].WireBytes
		for i := 0; i < 16; i++ {
			if _, err := r.Count(ctx, dataset.World); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RangeCount(ctx, geom.Pt(5000, 5000), 8000); err != nil {
				t.Fatal(err)
			}
		}
		return r.LevelUsages()[0].WireBytes - before
	}
	flat8 := rootBytes(8, 0)
	flat64 := rootBytes(64, 0)
	tree8 := rootBytes(8, fanout)   // degenerates to flat: the baseline
	tree64 := rootBytes(64, fanout) // two levels: root sees 8 children
	flatGrowth := float64(flat64) / float64(flat8)
	treeGrowth := float64(tree64) / float64(tree8)
	t.Logf("root bytes 8→64 shards: flat %d→%d (%.1f×), tree %d→%d (%.1f×)",
		flat8, flat64, flatGrowth, tree8, tree64, treeGrowth)
	if flatGrowth < 6 {
		t.Fatalf("flat root bytes grew only %.1f× from 8→64 shards, expected >= 6×", flatGrowth)
	}
	if treeGrowth > 2 {
		t.Fatalf("tree root bytes grew %.1f× from 8→64 shards, want <= 2×", treeGrowth)
	}
}

// TestTreeUsageAccountsEveryLevel pins the byte accounting: the root
// Usage must equal leaf traffic plus every interior uplink, and the
// hedged/breaker columns of the leaves must surface in the root fold.
func TestTreeUsageAccountsEveryLevel(t *testing.T) {
	leaves := make([]Endpoint, 8)
	for i := range leaves {
		leaves[i] = &stubLeaf{
			name: fmt.Sprintf("D%d/8", i+1),
			usage: netsim.Usage{
				WireBytes: 100, HedgedWireBytes: 7, HedgedMessages: 1,
				BreakerOpens: 1, BreakerSkips: 2,
			},
		}
	}
	root, err := NewTree("D", leaves, 2, netsim.DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	u := root.Usage()
	if u.HedgedWireBytes != 8*7 || u.HedgedMessages != 8 {
		t.Fatalf("hedged columns lost in the tree fold: %+v", u)
	}
	if u.BreakerOpens != 8 || u.BreakerSkips != 16 {
		t.Fatalf("breaker columns lost in the tree fold: %+v", u)
	}
	// Wire bytes: leaves carry 8×100; interior uplinks are unused (no
	// queries ran), so the fold is exactly the leaf sum here.
	if u.WireBytes != 800 {
		t.Fatalf("WireBytes = %d, want 800", u.WireBytes)
	}
	lv := root.LevelUsages()
	if len(lv) != 3 {
		t.Fatalf("%d levels for 8 leaves at fanout 2, want 3", len(lv))
	}
	if lv[2].WireBytes != 800 {
		t.Fatalf("leaf level carries %d wire bytes, want 800", lv[2].WireBytes)
	}
}

// TestTreeRoutesAroundDeadSubtree kills every replica of one subtree's
// shards after the INFO warm-up and asserts the tentpole's failure
// semantics: partial queries keep answering from the live subtree, the
// gaps come back in leaf shard units, the subtree folds to unhealthy as
// soon as its breakers open, and the root's route-around is visible in
// BreakerSkips while the dead links receive no further traffic.
func TestTreeRoutesAroundDeadSubtree(t *testing.T) {
	objs := dataset.GaussianClusters(400, 4, 800, dataset.World, 43)
	parts := Assign(objs, 4)
	reg := health.NewRegistry(quietBreakers())
	defer reg.Close()
	var dead atomic.Bool
	var deadCalls atomic.Int64
	router, err := ServeLocal("D", objs, LocalConfig{
		Shards: 4, Replicas: 2, TreeFanout: 2, Health: reg,
		Link: netsim.DefaultLink(), Price: 1,
		WrapTransport: func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
			// Shards 3 and 4 form the right subtree at fanout 2.
			if len(name) >= 4 && (name[:4] == "D3/4" || name[:4] == "D4/4") {
				return &gateDeadRT{inner: rt, dead: &dead, calls: &deadCalls}
			}
			return rt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	if _, err := router.Info(ctx); err != nil {
		t.Fatal(err)
	}
	if n := router.NumShards(); n != 4 {
		t.Fatalf("NumShards() = %d, want 4 leaves", n)
	}
	dead.Store(true)
	rep := health.NewReport()
	pctx := health.WithReport(ctx, rep)
	var got int
	for k := 0; k < 6; k++ {
		if got, err = router.Count(pctx, dataset.World); err != nil {
			t.Fatalf("partial count %d: %v", k, err)
		}
	}
	if want := len(parts[0]) + len(parts[1]); got != want {
		t.Fatalf("partial count %d, want the live subtree's %d", got, want)
	}
	gaps := rep.Gaps()
	var names []string
	for _, g := range gaps {
		if g.Relation != "D" {
			t.Fatalf("gap relation %q, want D (leaf units under the root relation)", g.Relation)
		}
		names = append(names, g.Shard)
	}
	slices.Sort(names)
	if !slices.Equal(names, []string{"D3/4", "D4/4"}) {
		t.Fatalf("gap shards %v, want the dead subtree's leaves [D3/4 D4/4]", names)
	}
	// The subtree must fold to unhealthy and further queries must not
	// touch the dead links.
	deadAgg, ok := router.Shards()[1].(*Aggregator)
	if !ok {
		t.Fatalf("child 1 is %T, want *Aggregator", router.Shards()[1])
	}
	if deadAgg.Healthy() {
		t.Fatal("dead subtree still reports healthy after its breakers opened")
	}
	for i, s := range deadAgg.Shards() {
		if s.(healthChecked).Healthy() {
			t.Fatalf("leaf %d of the dead subtree still reports healthy", i)
		}
	}
	calls0 := deadCalls.Load()
	for k := 0; k < 6; k++ {
		if _, err := router.Count(pctx, dataset.World); err != nil {
			t.Fatal(err)
		}
	}
	if n := deadCalls.Load(); n != calls0 {
		t.Fatalf("dead subtree's links received %d more calls after route-around, want 0", n-calls0)
	}
	if u := router.Usage(); u.BreakerSkips == 0 {
		t.Fatal("no breaker skips recorded while routing around a dead subtree")
	}
}

// TestRouterInfoCooldownPerShard pins the satellite fix: the INFO
// re-probe cooldown is per shard, so a still-cooling dead shard does not
// block the refresh that revives a sibling whose cooldown has lapsed.
func TestRouterInfoCooldownPerShard(t *testing.T) {
	objs := dataset.GaussianClusters(200, 3, 600, dataset.World, 45)
	var dead1, dead2 atomic.Bool
	var calls1, calls2 atomic.Int64
	router, err := ServeLocal("D", objs, LocalConfig{
		Shards: 3, Link: netsim.DefaultLink(), Price: 1,
		WrapTransport: func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
			switch name {
			case "D1/3":
				return &gateDeadRT{inner: rt, dead: &dead1, calls: &calls1}
			case "D2/3":
				return &gateDeadRT{inner: rt, dead: &dead2, calls: &calls2}
			}
			return rt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	dead1.Store(true)
	dead2.Store(true)
	rep := health.NewReport()
	pctx := health.WithReport(context.Background(), rep)
	if _, err := router.Info(pctx); err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Gaps()); n != 2 {
		t.Fatalf("%d gaps after partial INFO, want 2", n)
	}
	// Both dead shards are cooling down. Lapse shard 2's cooldown only
	// (white box: backdate its re-probe deadline) and revive it.
	dead2.Store(false)
	router.mu.Lock()
	router.infoRetryAt[1] = time.Now().Add(-time.Millisecond)
	still := router.infoRetryAt[0]
	router.mu.Unlock()
	if !time.Now().Before(still) {
		t.Fatal("test invariant: shard 1 must still be inside its cooldown")
	}
	probes1 := calls1.Load()
	rep2 := health.NewReport()
	if _, err := router.Info(health.WithReport(context.Background(), rep2)); err != nil {
		t.Fatal(err)
	}
	// Shard 2 rejoined: its INFO was re-probed despite shard 1 cooling.
	router.mu.Lock()
	ok2 := router.infoOK[1]
	router.mu.Unlock()
	if !ok2 {
		t.Fatal("revived shard 2 not re-probed while shard 1 cools down (router-global cooldown regression)")
	}
	// Shard 1's cooldown was honored: no new probe paid against it, and
	// it is this query's only gap.
	if n := calls1.Load(); n != probes1 {
		t.Fatalf("still-cooling shard 1 re-probed (%d new calls), want 0", n-probes1)
	}
	gaps := rep2.Gaps()
	if len(gaps) != 1 || gaps[0].Shard != "D1/3" {
		t.Fatalf("gaps after partial refresh: %+v, want exactly D1/3", gaps)
	}
}

// leafQueries sums the request frames received by every leaf endpoint
// below e — the leaf round trips, with interior uplinks left out.
func leafQueries(e Endpoint) int {
	n := 0
	for _, leaf := range leafEndpoints(e) {
		n += leaf.Usage().Queries
	}
	return n
}

// TestTreeRoutingLocality is the regression test for shards that are
// not spatial: on clustered data — fewer occupied regions than shards,
// the paper's case — a small window or an ε-probe must reach the one or
// two leaves whose data it can touch, not the whole fleet, and answer
// exactly what one unsharded server answers.
func TestTreeRoutingLocality(t *testing.T) {
	objs := dataset.GaussianClusters(4000, 8, 250, dataset.World, 46)
	tree, err := ServeLocal("D", objs, LocalConfig{
		Shards: 16, Replicas: 2, TreeFanout: 4, Workers: 2,
		Link: netsim.DefaultLink(), Price: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	oracle := newLocalOracle(t, objs)
	ctx := context.Background()
	if _, err := tree.Info(ctx); err != nil { // pay the INFO fan-out up front
		t.Fatal(err)
	}
	const eps, probes = 75.0, 200
	rng := rand.New(rand.NewSource(46))
	before := leafQueries(tree)
	for i := 0; i < probes; i++ {
		c := objs[rng.Intn(len(objs))].MBR.Center()
		w := geom.R(c.X-eps, c.Y-eps, c.X+eps, c.Y+eps)
		got, err := tree.Count(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracle.Count(ctx, w); got != want {
			t.Fatalf("COUNT %v = %d, unsharded %d", w, got, want)
		}
		p := objs[rng.Intn(len(objs))].MBR.Center()
		near, err := tree.Range(ctx, p, eps)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracle.Range(ctx, p, eps)
		sameObjects(t, fmt.Sprintf("RANGE %v", p), near, want)
	}
	perProbe := float64(leafQueries(tree)-before) / (2 * probes)
	t.Logf("%.2f leaf sub-requests per probe", perProbe)
	if perProbe > 2 {
		t.Fatalf("%.2f leaf sub-requests per probe over 16 shards, want <= 2: shard bounds do not follow the data", perProbe)
	}
}

// leafTrips records the round trips reaching a fleet's leaf servers: how
// many, and for the last one whether it ran below the function named
// caller — on that function's goroutine — and how many goroutines existed
// while it did.
type leafTrips struct {
	caller        string
	n, goroutines atomic.Int64
	onStack       atomic.Bool
}

type tripRT struct {
	netsim.RoundTripper
	trips *leafTrips
}

func (rt tripRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	stack := make([]byte, 1<<16)
	rt.trips.n.Add(1)
	rt.trips.onStack.Store(bytes.Contains(stack[:runtime.Stack(stack, false)], []byte(rt.trips.caller)))
	rt.trips.goroutines.Store(int64(runtime.NumGoroutine()))
	return rt.RoundTripper.RoundTrip(ctx, req)
}

// newBatchedTree16 boots the fleet-tree shape — 16 shards × 2 replicas
// under a fanout-4 tree, every link batched — with its INFO fan-out paid,
// and returns it with the recorder wrapped around every leaf transport.
func newBatchedTree16(t *testing.T, objs []geom.Object, link netsim.LinkConfig) (*Router, *leafTrips) {
	t.Helper()
	trips := &leafTrips{caller: t.Name()}
	tree, err := ServeLocal("D", objs, LocalConfig{
		Shards: 16, Replicas: 2, TreeFanout: 4, Workers: 2, Link: link, Price: 1,
		ClientOpts: []client.Option{client.WithBatch(client.BatchConfig{MaxBatch: 16})},
		WrapTransport: func(_ string, rt netsim.RoundTripper) netsim.RoundTripper {
			return tripRT{rt, trips}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	if _, err := tree.Info(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tree, trips
}

// TestTreeLoneCountStaysOnCallersStack: a batched COUNT that routes to
// one leaf crosses the whole tree — root router, aggregator uplink,
// replica set, link batcher — on the stack of the goroutine that waits
// for it, spawning nothing, and answers as the unsharded server does.
func TestTreeLoneCountStaysOnCallersStack(t *testing.T) {
	objs := dataset.GaussianClusters(4000, 8, 250, dataset.World, 46)
	tree, trips := newBatchedTree16(t, objs, netsim.DefaultLink())
	oracle := newLocalOracle(t, objs)
	ctx := context.Background()
	oneLeaf := 0
	for _, o := range objs[:64] {
		c := o.MBR.Center()
		w := geom.R(c.X-20, c.Y-20, c.X+20, c.Y+20)
		before, goroutines := trips.n.Load(), int64(runtime.NumGoroutine())
		got, err := tree.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracle.Count(ctx, w); got != want {
			t.Fatalf("COUNT %v = %d, unsharded %d", w, got, want)
		}
		if trips.n.Load()-before != 1 {
			continue // straddles a cut: several leaves, gathered off-stack
		}
		oneLeaf++
		if !trips.onStack.Load() {
			t.Fatalf("COUNT %v: the leaf round trip did not run on its waiter's stack", w)
		}
		// (Fewer is fine: an earlier test's fleet may still be winding down.)
		if n := trips.goroutines.Load(); n > goroutines {
			t.Fatalf("COUNT %v: %d goroutines during the leaf round trip, %d before the probe", w, n, goroutines)
		}
	}
	if oneLeaf < 32 {
		t.Fatalf("only %d of 64 probes routed to one leaf: the windows do not test the lone path", oneLeaf)
	}
}

// TestTreeMultiLeafCountOverlapsLinks: a batched COUNT whose plan spans
// three leaves has all three links' round trips under way before it
// waits on the first, so over links with a real RTT it completes in
// under two round-trip times, not three.
func TestTreeMultiLeafCountOverlapsLinks(t *testing.T) {
	objs := dataset.GaussianClusters(4000, 8, 250, dataset.World, 46)
	ctx := context.Background()
	// The layout is a pure function of objs, so a zero-latency twin finds
	// the window.
	scout, trips := newBatchedTree16(t, objs, netsim.DefaultLink())
	var w geom.Rect
	for _, o := range objs {
		c := o.MBR.Center()
		w = geom.R(c.X-150, c.Y-150, c.X+150, c.Y+150)
		before := trips.n.Load()
		if _, err := scout.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count(); err != nil {
			t.Fatal(err)
		}
		if trips.n.Load()-before == 3 {
			break
		}
		w = geom.Rect{}
	}
	if w == (geom.Rect{}) {
		t.Fatal("no probe window spans exactly three leaves")
	}

	const rtt = 10 * time.Millisecond
	link := netsim.DefaultLink()
	link.RTT = rtt
	tree, trips := newBatchedTree16(t, objs, link)
	want, _ := newLocalOracle(t, objs).Count(ctx, w)
	// Scheduling noise only ever adds time, and three round trips in a row
	// can never take less than three RTTs: the fastest of a few tries
	// decides.
	best := time.Hour
	for try := 0; try < 3; try++ {
		before, t0 := trips.n.Load(), time.Now()
		got, err := tree.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count()
		best = min(best, time.Since(t0))
		if err != nil || got != want {
			t.Fatalf("COUNT %v = %d, %v; unsharded %d", w, got, err, want)
		}
		if n := trips.n.Load() - before; n != 3 {
			t.Fatalf("COUNT %v reached %d leaves on the RTT fleet, 3 on its twin", w, n)
		}
	}
	if best >= 2*rtt {
		t.Errorf("three-leaf COUNT took %v over %v links: the round trips ran one after another", best, rtt)
	}
}
