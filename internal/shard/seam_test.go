package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// typedEndpoint is what every layer of the probe stack must offer: the
// seam plus the typed surface it gets from embedding client.Typed. The
// conversions in seamStacks are the compile-time check.
type typedEndpoint interface {
	Endpoint
	Info(ctx context.Context) (wire.Info, error)
	Count(ctx context.Context, w geom.Rect) (int, error)
	Window(ctx context.Context, w geom.Rect) ([]geom.Object, error)
	AvgArea(ctx context.Context, w geom.Rect) (float64, error)
	Range(ctx context.Context, p geom.Point, eps float64) ([]geom.Object, error)
	RangeCount(ctx context.Context, p geom.Point, eps float64) (int, error)
	BucketRange(ctx context.Context, pts []geom.Point, eps float64) ([][]geom.Object, error)
	BucketRangeCount(ctx context.Context, pts []geom.Point, eps float64) ([]int64, error)
	LevelMBRs(ctx context.Context, level int) ([]geom.Rect, error)
	MBRMatch(ctx context.Context, rects []geom.Rect, eps float64) ([]geom.Object, error)
	UploadJoin(ctx context.Context, objs []geom.Object, eps float64) ([]geom.Pair, error)
}

// seamCase is one request message: the frame, the typed call that sends
// the same request, the reply decoder, and how an answer compares to the
// single-server reference (nil: the answer depends on how the relation
// is partitioned, so only typed ≡ batched is checked).
type seamCase struct {
	frame   func() []byte
	typed   func(ctx context.Context, p typedEndpoint) (any, error)
	decode  func(resp []byte) (any, error)
	sameRef func(got, ref any) bool
}

func seamRow[T any](frame func() []byte,
	typed func(context.Context, typedEndpoint) (T, error),
	decode func([]byte) (T, error),
	sameRef func(got, ref T) bool) seamCase {
	c := seamCase{
		frame:  frame,
		typed:  func(ctx context.Context, p typedEndpoint) (any, error) { return typed(ctx, p) },
		decode: func(resp []byte) (any, error) { return decode(resp) },
	}
	if sameRef != nil {
		c.sameRef = func(got, ref any) bool { return sameRef(got.(T), ref.(T)) }
	}
	return c
}

func byID(objs []geom.Object) []geom.Object {
	out := slices.Clone(objs)
	sortObjects(out)
	return out
}

func sameObjectSet(got, ref []geom.Object) bool { return slices.Equal(byID(got), byID(ref)) }

func equal[T comparable](got, ref T) bool { return got == ref }

// seamCases covers every request message of the protocol.
func seamCases(objs []geom.Object) map[wire.MsgType]seamCase {
	w := geom.R(1500, 1500, 7000, 6500)
	p := geom.Pt(4200, 3900)
	const eps = 450.0
	pts := []geom.Point{p, geom.Pt(800, 900), geom.Pt(9000, 9100), geom.Pt(5000, 5000), geom.Pt(2500, 7400)}
	rects := []geom.Rect{geom.R(1000, 1000, 2500, 2500), geom.R(4000, 4000, 6000, 5500), geom.R(7000, 1000, 9000, 3000)}
	upload := objs[:40]
	get := bufpool.Get
	return map[wire.MsgType]seamCase{
		wire.MsgWindow: seamRow(
			func() []byte { return wire.AppendWindow(get(), w) },
			func(ctx context.Context, e typedEndpoint) ([]geom.Object, error) { return e.Window(ctx, w) },
			wire.DecodeObjects, sameObjectSet),
		wire.MsgCount: seamRow(
			func() []byte { return wire.AppendCount(get(), w) },
			func(ctx context.Context, e typedEndpoint) (int64, error) {
				n, err := e.Count(ctx, w)
				return int64(n), err
			},
			wire.DecodeCountReply, equal[int64]),
		wire.MsgAvgArea: seamRow(
			func() []byte { return wire.AppendAvgArea(get(), w) },
			func(ctx context.Context, e typedEndpoint) (float64, error) { return e.AvgArea(ctx, w) },
			wire.DecodeFloatReply,
			func(got, ref float64) bool { return ref > 0 && math.Abs(got-ref) <= 1e-9*ref }),
		wire.MsgRange: seamRow(
			func() []byte { return wire.AppendRange(get(), p, eps) },
			func(ctx context.Context, e typedEndpoint) ([]geom.Object, error) { return e.Range(ctx, p, eps) },
			wire.DecodeObjects, sameObjectSet),
		wire.MsgRangeCount: seamRow(
			func() []byte { return wire.AppendRangeCount(get(), p, eps) },
			func(ctx context.Context, e typedEndpoint) (int64, error) {
				n, err := e.RangeCount(ctx, p, eps)
				return int64(n), err
			},
			wire.DecodeCountReply, equal[int64]),
		wire.MsgBucketRange: seamRow(
			func() []byte { return wire.AppendBucketRange(get(), pts, eps) },
			func(ctx context.Context, e typedEndpoint) ([][]geom.Object, error) {
				return e.BucketRange(ctx, pts, eps)
			},
			wire.DecodeBucketObjects,
			func(got, ref [][]geom.Object) bool { return slices.EqualFunc(got, ref, sameObjectSet) }),
		wire.MsgBucketRangeCount: seamRow(
			func() []byte { return wire.AppendBucketRangeCount(get(), pts, eps) },
			func(ctx context.Context, e typedEndpoint) ([]int64, error) { return e.BucketRangeCount(ctx, pts, eps) },
			wire.DecodeCountsReply, slices.Equal[[]int64]),
		wire.MsgInfo: seamRow(
			func() []byte { return wire.AppendInfo(get()) },
			func(ctx context.Context, e typedEndpoint) (wire.Info, error) { return e.Info(ctx) },
			wire.DecodeInfoReply,
			func(got, ref wire.Info) bool {
				return got.Count == ref.Count && got.Bounds == ref.Bounds && got.PointData == ref.PointData
			}),
		wire.MsgMBRLevel: seamRow(
			func() []byte { return wire.AppendMBRLevel(get(), 0) },
			func(ctx context.Context, e typedEndpoint) ([]geom.Rect, error) { return e.LevelMBRs(ctx, 0) },
			wire.DecodeRects, nil),
		wire.MsgMBRMatch: seamRow(
			func() []byte { return wire.AppendMBRMatch(get(), rects, eps) },
			func(ctx context.Context, e typedEndpoint) ([]geom.Object, error) { return e.MBRMatch(ctx, rects, eps) },
			wire.DecodeObjects, sameObjectSet),
		wire.MsgUploadJoin: seamRow(
			func() []byte { return wire.AppendUploadJoin(get(), upload, eps) },
			func(ctx context.Context, e typedEndpoint) ([]geom.Pair, error) { return e.UploadJoin(ctx, upload, eps) },
			wire.DecodePairs,
			func(got, ref []geom.Pair) bool {
				got, ref = slices.Clone(got), slices.Clone(ref)
				sortPairs(got)
				sortPairs(ref)
				return slices.Equal(got, ref)
			}),
	}
}

// seamStacks boots every shape of the probe stack over objs (batching
// off: each request is one message on one link, so message counts compare
// across paths).
func seamStacks(t *testing.T, objs []geom.Object) map[string]typedEndpoint {
	t.Helper()
	sopts := []server.Option{server.PublishIndex()}
	leaf := func(name string, part []geom.Object) *client.Remote {
		rem, err := client.NewRemote(name, netsim.Serve(server.New(name, part, sopts...)), netsim.DefaultLink(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return rem
	}
	local := func(cfg LocalConfig) *Router {
		cfg.Link, cfg.Price, cfg.ServerOpts = netsim.DefaultLink(), 1, sopts
		r, err := ServeLocal("D", objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rset, err := NewReplicaSet("D", []*client.Remote{leaf("D-r1", objs), leaf("D-r2", objs)}, ReplicaConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stacks := map[string]typedEndpoint{
		"remote":        leaf("D", objs),
		"replicas2":     rset,
		"solo-router":   local(LocalConfig{Shards: 1}),
		"router4":       local(LocalConfig{Shards: 4, Workers: 2}),
		"tree8-fanout2": local(LocalConfig{Shards: 8, TreeFanout: 2, Workers: 2}),
		// TestTreeRoutingLocality's fleet: most leaves and whole
		// subtrees are pruned on their bounds, by both executors alike.
		"tree16-fanout4-replicas2": local(LocalConfig{Shards: 16, Replicas: 2, TreeFanout: 4, Workers: 2}),
	}
	for _, s := range stacks {
		t.Cleanup(func() { s.Close() })
	}
	return stacks
}

// leafEndpoints returns every leaf shard endpoint below e, in scatter
// order (a replica set is one leaf: which replica served is the
// rotation's business).
func leafEndpoints(e Endpoint) []Endpoint {
	var shards []Endpoint
	switch v := e.(type) {
	case *Router:
		shards = v.Shards()
	default:
		return []Endpoint{e}
	}
	var out []Endpoint
	for _, s := range shards {
		out = append(out, leafEndpoints(s)...)
	}
	return out
}

// leafMessages returns the message count of every leaf shard below e.
func leafMessages(e Endpoint) []int {
	var out []int
	for _, leaf := range leafEndpoints(e) {
		out = append(out, leaf.Usage().Messages)
	}
	return out
}

func messagesSince(e Endpoint, before []int) []int {
	after := leafMessages(e)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestTypedMatchesBatched pins the one-seam property over every stack
// shape × every request message: the typed call and the same frame
// through GoBatch decode to the same answer, agree with a single
// unsharded server, and touch the same leaf links — both paths execute
// one routing table, so they cannot prune or merge differently.
func TestTypedMatchesBatched(t *testing.T) {
	objs := dataset.ClusteredRects(600, 5, 900, 60, dataset.World, 41)
	cases := seamCases(objs)
	oracle := newLocalOracle(t, objs)
	ctx := context.Background()
	for name, stack := range seamStacks(t, objs) {
		for mt, c := range cases {
			t.Run(fmt.Sprintf("%s/%v", name, mt), func(t *testing.T) {
				// Warm the routing metadata so neither path pays the INFO
				// fan-out inside the measured window.
				if _, err := stack.Info(ctx); err != nil {
					t.Fatal(err)
				}
				m0 := leafMessages(stack)
				typed, err := c.typed(ctx, stack)
				if err != nil {
					t.Fatalf("typed: %v", err)
				}
				typedMsgs := messagesSince(stack, m0)

				m0 = leafMessages(stack)
				call := stack.GoBatch(ctx, [][]byte{c.frame()})[0]
				resp, err := call.Frame()
				if err != nil {
					t.Fatalf("batched: %v", err)
				}
				batched, err := c.decode(resp)
				bufpool.Put(resp)
				if err != nil {
					t.Fatalf("batched reply: %v", err)
				}
				batchedMsgs := messagesSince(stack, m0)

				if !reflect.DeepEqual(typed, batched) {
					t.Fatalf("typed answer %v, batched %v", typed, batched)
				}
				if !slices.Equal(typedMsgs, batchedMsgs) {
					t.Fatalf("typed touched leaf links %v, batched %v", typedMsgs, batchedMsgs)
				}
				if c.sameRef == nil {
					if reflect.ValueOf(typed).Len() == 0 {
						t.Fatal("empty answer")
					}
					return
				}
				ref, err := c.typed(ctx, oracle)
				if err != nil {
					t.Fatal(err)
				}
				if !c.sameRef(typed, ref) {
					t.Fatalf("answer %v, single-server reference %v", typed, ref)
				}
			})
		}
	}
}

// TestRoutingTableComplete asks the dataset server which message types
// it answers and requires a routing-table row — and a TestTypedMatchesBatched
// case — for each: adding a wire message means adding one row, and
// forgetting it fails here instead of at "cannot route" in production.
func TestRoutingTableComplete(t *testing.T) {
	objs := dataset.Uniform(64, dataset.World, 42)
	srv := server.New("D", objs, server.PublishIndex())
	cases := seamCases(objs)
	answered := 0
	for b := 1; b < 256; b++ {
		mt := wire.MsgType(b)
		resp := srv.HandleAppend([]byte{byte(b)}, nil)
		if bytes.Contains(resp, []byte("unsupported request")) || mt == wire.MsgBatch {
			continue // not a request; the batch envelope belongs to the link batcher
		}
		answered++
		if int(mt) >= len(routes) || routes[mt] == nil {
			t.Errorf("%v: the server answers it but the routing table has no row", mt)
		}
		if _, ok := cases[mt]; !ok {
			t.Errorf("%v: no typed ≡ batched case", mt)
		}
	}
	if answered != len(cases) {
		t.Fatalf("server answers %d request types, %d cases", answered, len(cases))
	}
}

// TestSoloRouterBatchedPartialAbsorbsGap is the regression test for the
// solo pass-through under partial mode: a lone shard that fails while its
// breakers are still closed must be absorbed as a gap — empty answer, no
// error — by the batched path exactly as by the typed one.
func TestSoloRouterBatchedPartialAbsorbsGap(t *testing.T) {
	objs := dataset.GaussianClusters(200, 3, 700, dataset.World, 43)
	reg := health.NewRegistry(quietBreakers())
	defer reg.Close()
	var dead atomic.Bool
	var calls atomic.Int64
	router, err := ServeLocal("D", objs, LocalConfig{
		Shards: 1, Replicas: 2, Health: reg,
		Link: netsim.DefaultLink(), Price: 1,
		WrapTransport: func(_ string, rt netsim.RoundTripper) netsim.RoundTripper {
			return &gateDeadRT{inner: rt, dead: &dead, calls: &calls}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	if n, err := router.Count(ctx, dataset.World); err != nil || n != len(objs) {
		t.Fatalf("healthy count = %d, %v; want %d", n, err, len(objs))
	}
	dead.Store(true)

	oneGap := func(what string, rep *health.Report) {
		t.Helper()
		gaps := rep.Gaps()
		if len(gaps) != 1 || gaps[0].Shard != "D" || gaps[0].Queries != 1 {
			t.Fatalf("%s: gaps %+v, want one gap of one query for shard D", what, gaps)
		}
	}
	rep := health.NewReport()
	if n, err := router.Count(health.WithReport(ctx, rep), dataset.World); n != 0 || err != nil {
		t.Fatalf("typed count against the dead shard = %d, %v; want 0, nil", n, err)
	}
	oneGap("typed", rep)
	if !routerShardHealthy(router, 0) {
		t.Fatal("breakers opened after one failed probe: the batched probe below would be routed around, not absorbed")
	}

	rep = health.NewReport()
	pctx := health.WithReport(ctx, rep)
	call := router.GoBatch(pctx, [][]byte{wire.AppendCount(bufpool.Get(), dataset.World)})[0]
	if n, err := call.Count(); n != 0 || err != nil {
		t.Fatalf("batched count against the dead shard = %d, %v; want 0, nil", n, err)
	}
	oneGap("batched", rep)
}

// TestAggregatorTypedCallsCrossUplink pins how an interior tree node
// meters its uplink on every path a frame takes through it — a typed
// call (client.Typed bound to the node's own Do), GoBatch of one, GoBatch
// of several, and a partial-mode request one of whose children is dead:
// each request frame is charged Up exactly once and each merged reply
// Down exactly once, no more, no less.
func TestAggregatorTypedCallsCrossUplink(t *testing.T) {
	objs := dataset.GaussianClusters(300, 4, 700, dataset.World, 44)
	var dead atomic.Bool
	var deadCalls atomic.Int64
	tree, err := ServeLocal("D", objs, LocalConfig{
		Shards: 4, TreeFanout: 2, Link: netsim.DefaultLink(), Price: 1,
		WrapTransport: func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
			if name == "D2/4" {
				return &gateDeadRT{inner: rt, dead: &dead, calls: &deadCalls}
			}
			return rt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	node := tree.Shards()[0].(*Router) // interior: leaves D1/4 and D2/4
	ctx := context.Background()
	if _, err := node.Info(ctx); err != nil {
		t.Fatal(err)
	}

	// An exchange sends request frames into the node and returns the
	// length of each request frame and of each merged reply.
	type exchange func(ctx context.Context) (reqs, replies []int)
	batch := func(frames ...[]byte) exchange {
		return func(ctx context.Context) (reqs, replies []int) {
			for _, f := range frames {
				reqs = append(reqs, len(f))
			}
			for _, c := range node.GoBatch(ctx, frames) {
				f, err := c.Frame()
				if err != nil {
					t.Fatal(err)
				}
				replies = append(replies, len(f))
				bufpool.Put(f)
			}
			return reqs, replies
		}
	}
	count := func() []byte { return wire.AppendCount(bufpool.Get(), dataset.World) }
	for _, tc := range []struct {
		name    string
		partial bool // D2/4 is dead and the request runs in partial mode
		run     exchange
	}{
		{"typed-count", false, func(ctx context.Context) ([]int, []int) {
			if _, err := node.Count(ctx, dataset.World); err != nil {
				t.Fatal(err)
			}
			return []int{len(count())}, []int{len(wire.AppendCountReply(nil, 0))}
		}},
		{"gobatch-one", false, batch(wire.AppendWindow(bufpool.Get(), dataset.World))},
		{"gobatch-several", false, batch(count(), wire.AppendWindow(bufpool.Get(), geom.R(0, 0, 5000, 5000)),
			wire.AppendRangeCount(bufpool.Get(), geom.Pt(5000, 5000), 3000))},
		{"partial-dead-child", true, batch(wire.AppendWindow(bufpool.Get(), dataset.World))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, rep := ctx, health.NewReport()
			if tc.partial {
				dead.Store(true)
				defer dead.Store(false)
				ctx = health.WithReport(ctx, rep)
			}
			calls0 := deadCalls.Load()
			before := node.uplink.Usage()
			reqs, replies := tc.run(ctx)
			want, err := netsim.NewMeter(netsim.DefaultLink(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range reqs {
				want.Charge(n, netsim.Up)
			}
			for _, n := range replies {
				want.Charge(n, netsim.Down)
			}
			if got, want := node.uplink.Usage(), before.Add(want.Usage()); got != want {
				t.Fatalf("uplink usage %+v, want %+v (one Up per request frame %v, one Down per reply %v)",
					got, want, reqs, replies)
			}
			if tc.partial && (len(rep.Gaps()) != 1 || deadCalls.Load() == calls0) {
				t.Fatalf("the dead child was not tried and absorbed: gaps %+v", rep.Gaps())
			}
		})
	}
}

// TestSoloRouterAddsNoAllocs measures the solo pass-through: a typed
// call through a 1-shard router (Typed → Router.Do → Remote.Do) must
// allocate no more than the same call on the bare Remote.
func TestSoloRouterAddsNoAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are meaningless under -race")
	}
	objs := dataset.Uniform(200, dataset.World, 45)
	rem, err := client.NewRemote("D", netsim.Serve(server.New("D", objs)), netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter("D", []Endpoint{rem})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx, w := context.Background(), dataset.World
	count := func(p typedEndpoint) func() {
		return func() {
			if n, err := p.Count(ctx, w); err != nil || n != len(objs) {
				t.Fatalf("count = %d, %v", n, err)
			}
		}
	}
	bare, solo := count(rem), count(router)
	bare() // warm the pool
	solo()
	base, got := testing.AllocsPerRun(200, bare), testing.AllocsPerRun(200, solo)
	t.Logf("allocs/op: bare remote %.1f, solo router %.1f", base, got)
	if got > base {
		t.Errorf("solo router Count allocates %.1f/op, bare remote %.1f/op: the pass-through must add none", got, base)
	}
}
