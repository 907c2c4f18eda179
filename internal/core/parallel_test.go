package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// newTestExec builds a bare exec (no environment) for engine-level tests.
func newTestExec(par *gate) *exec {
	x := &exec{par: par}
	x.ctx, x.cancelRun = context.WithCancel(context.Background())
	return x
}

// testEnvParallel is testEnv with the concurrent engine enabled: the
// environment carries the knob.
func testEnvParallel(t *testing.T, robjs, sobjs []geom.Object, buffer, parallelism int, opts ...server.Option) *Env {
	t.Helper()
	trR := netsim.Serve(server.New("R", robjs, opts...))
	trS := netsim.Serve(server.New("S", sobjs, opts...))
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	t.Cleanup(func() { r.Close(); s.Close() })
	env := NewEnv(r, s, client.Device{BufferObjects: buffer}, costmodel.Default(), geom.Rect{})
	env.Parallelism = parallelism
	return env
}

// requestLog records the multiset of queries one link carried, envelopes
// unpacked: how they were framed is the batcher's business, which queries
// were asked is the algorithm's. order is the same queries in the order
// the link carried them — meaningful for a sequential run only. Embedding
// the interface hides the transport's Pipeliner, so netsim.Pipeline sends
// a sequential run's chunks through a requestLog one request at a time,
// in order.
type requestLog struct {
	netsim.RoundTripper
	t     *testing.T
	mu    sync.Mutex
	seen  map[string]int
	order []string
}

func (l *requestLog) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	l.mu.Lock()
	for _, sub := range subRequests(l.t, req) {
		l.seen[string(sub)]++
		l.order = append(l.order, string(sub))
	}
	l.mu.Unlock()
	return l.RoundTripper.RoundTrip(ctx, req)
}

// arrivalLog records, on the server's side of a real connection, the
// requests in the order they arrived: what a link carried when the
// client's transport is not ours to wrap (wrapping it would hide its
// Pipeliner, the thing under test).
type arrivalLog struct {
	netsim.AppendHandler
	mu    sync.Mutex
	order []string
}

func (l *arrivalLog) HandleAppend(req, dst []byte) []byte {
	l.mu.Lock()
	l.order = append(l.order, string(req))
	l.mu.Unlock()
	return l.AppendHandler.HandleAppend(req, dst)
}

// runTCP runs alg unbatched on the paper's own topology: loopback TCP to
// each server over a pool of one connection per unit of parallelism, so
// every chunk of a probe group travels pipelined on a connection of its
// own. It returns what each server saw, in arrival order.
func runTCP(t *testing.T, alg Algorithm, spec Spec, robjs, sobjs []geom.Object, buffer, parallelism int, bucket bool) (*Result, [2][]string) {
	t.Helper()
	logs := [2]*arrivalLog{{AppendHandler: server.New("R", robjs)}, {AppendHandler: server.New("S", sobjs)}}
	var rts [2]netsim.RoundTripper
	for i, l := range logs {
		srv, err := netsim.ListenAndServe("127.0.0.1:0", l)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if rts[i], err = netsim.DialTCPPool(srv.Addr(), max(parallelism, 1)); err != nil {
			t.Fatal(err)
		}
	}
	env := envOver(t, rts[0], rts[1], buffer, parallelism, 0, 0, 0)
	defer env.R.Close()
	defer env.S.Close()
	env.Model.Bucket, env.Seed = bucket, 3
	res, err := alg.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatalf("%s parallelism %d over TCP: %v", alg.Name(), parallelism, err)
	}
	return res, [2][]string{logs[0].order, logs[1].order}
}

// diff describes how the queries of l differ from those of want, by
// message type ("" when they are the same multiset).
func (l *requestLog) diff(want *requestLog) string {
	type gap struct{ extra, missing int }
	gaps := map[wire.MsgType]gap{}
	note := func(req string, got, wanted int) {
		g := gaps[wire.Type([]byte(req))]
		g.extra += max(got-wanted, 0)
		g.missing += max(wanted-got, 0)
		gaps[wire.Type([]byte(req))] = g
	}
	for req, n := range l.seen {
		if m := want.seen[req]; m != n {
			note(req, n, m)
		}
	}
	for req, m := range want.seen {
		if _, asked := l.seen[req]; !asked {
			note(req, 0, m)
		}
	}
	var out []string
	for typ, g := range gaps {
		out = append(out, fmt.Sprintf("%v: %d extra, %d missing", typ, g.extra, g.missing))
	}
	slices.Sort(out)
	return strings.Join(out, "; ")
}

// engineConfig is one way to run the engine over the same two datasets.
type engineConfig struct {
	name               string
	parallelism, batch int
	rtt                time.Duration // of the links and of the cost model's link alike
}

// The three configurations TestParallelMatchesSequential compares: the
// paper's device; the concurrent engine with its pool of Parallelism; and
// the batched run over a latency-bearing link, whose pool of live
// partitions is Parallelism × BatchSize.
var (
	sequential = engineConfig{name: "sequential", parallelism: 1}
	parallel4  = engineConfig{name: "parallel", parallelism: 4}
	rttBatched = engineConfig{name: "rtt-batched", parallelism: 4, batch: 16, rtt: 100 * time.Microsecond}
)

// arrived is the request log of what a server saw, for diff.
func arrived(order []string) *requestLog {
	l := &requestLog{seen: map[string]int{}}
	for _, req := range order {
		l.seen[req]++
	}
	return l
}

// run executes alg under the configuration over fresh servers and returns
// the result with the queries each link carried.
func (c engineConfig) run(t *testing.T, alg Algorithm, spec Spec, robjs, sobjs []geom.Object, buffer int, bucket bool) (*Result, [2]*requestLog) {
	t.Helper()
	logs := [2]*requestLog{
		{RoundTripper: netsim.Serve(server.New("R", robjs)), t: t, seen: map[string]int{}},
		{RoundTripper: netsim.Serve(server.New("S", sobjs)), t: t, seen: map[string]int{}},
	}
	env := envOver(t, logs[0], logs[1], buffer, c.parallelism, c.batch, c.rtt, c.rtt)
	defer env.R.Close()
	defer env.S.Close()
	env.Model.Bucket, env.Seed = bucket, 3
	res, err := alg.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatalf("%s %s: %v", alg.Name(), c.name, err)
	}
	return res, logs
}

// TestParallelMatchesSequential is the engine's core guarantee: under
// either pool, every algorithm asks exactly the queries the sequential run
// asks — the same multiset on each link — takes the same decisions and
// returns the same result, for every join kind and for bucket submission.
// The unbatched parallel run also meters exactly the sequential frames
// and bytes (a batched run frames the same queries differently). Both
// unbatched engines are pinned over real TCP too, where probe groups
// cross the connections pipelined: sequentially every link carries the
// very sequence of frames the one-request-at-a-time loop sends — not just
// the same multiset — and at Parallelism 4, over a pool of four
// connections a link, the same multiset; both meter the same bytes. Run
// under -race this also exercises the sink, ledger, and meter
// synchronization.
func TestParallelMatchesSequential(t *testing.T) {
	robjs := dataset.GaussianClusters(600, 4, 300, dataset.World, 201)
	sobjs := dataset.GaussianClusters(600, 4, 300, dataset.World, 202)
	specs := []struct {
		name   string
		spec   Spec
		bucket bool
	}{
		{"distance", Spec{Kind: Distance, Eps: 120}, false},
		{"distance-bucket", Spec{Kind: Distance, Eps: 120}, true},
		{"intersection", Spec{Kind: Intersection}, false},
		{"iceberg", Spec{Kind: IcebergSemi, Eps: 200, MinMatches: 3}, false},
		{"iceberg-bucket", Spec{Kind: IcebergSemi, Eps: 200, MinMatches: 3}, true},
	}
	for _, sc := range specs {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, alg := range allAlgorithms() {
				for _, buffer := range []int{150, 800} {
					seq, seqLogs := sequential.run(t, alg, sc.spec, robjs, sobjs, buffer, sc.bucket)
					tcp, tcpOrder := runTCP(t, alg, sc.spec, robjs, sobjs, buffer, 1, sc.bucket)
					if !pairSetsEqual(seq.Pairs, tcp.Pairs) || len(seq.Objects) != len(tcp.Objects) {
						t.Fatalf("%s buffer=%d over TCP: %d pairs, %d objects; one at a time %d, %d", alg.Name(), buffer,
							len(tcp.Pairs), len(tcp.Objects), len(seq.Pairs), len(seq.Objects))
					}
					for i, side := range []string{"R", "S"} {
						if !slices.Equal(tcpOrder[i], seqLogs[i].order) {
							t.Fatalf("%s buffer=%d over TCP: the %d frames %s received are not the %d sent one at a time, in order",
								alg.Name(), buffer, len(tcpOrder[i]), side, len(seqLogs[i].order))
						}
					}
					if !reflect.DeepEqual(seq.Stats, tcp.Stats) {
						t.Fatalf("%s buffer=%d over TCP: stats %+v, one at a time %+v", alg.Name(), buffer, tcp.Stats, seq.Stats)
					}
					ptcp, ptcpOrder := runTCP(t, alg, sc.spec, robjs, sobjs, buffer, 4, sc.bucket)
					if !pairSetsEqual(seq.Pairs, ptcp.Pairs) || len(seq.Objects) != len(ptcp.Objects) {
						t.Fatalf("%s buffer=%d parallel over TCP: %d pairs, %d objects; sequential %d, %d", alg.Name(), buffer,
							len(ptcp.Pairs), len(ptcp.Objects), len(seq.Pairs), len(seq.Objects))
					}
					for i, side := range []string{"R", "S"} {
						if d := arrived(ptcpOrder[i]).diff(seqLogs[i]); d != "" {
							t.Fatalf("%s buffer=%d parallel over TCP: queries to %s differ from the sequential run's: %s", alg.Name(), buffer, side, d)
						}
					}
					if a, b := seq.Stats, ptcp.Stats; a.TotalQueries() != b.TotalQueries() || a.TotalBytes() != b.TotalBytes() {
						t.Fatalf("%s buffer=%d parallel over TCP: %d frames, %d bytes; sequential %d, %d", alg.Name(), buffer,
							b.TotalQueries(), b.TotalBytes(), a.TotalQueries(), a.TotalBytes())
					}
					for _, cfg := range []engineConfig{parallel4, rttBatched} {
						got, logs := cfg.run(t, alg, sc.spec, robjs, sobjs, buffer, sc.bucket)
						at := fmt.Sprintf("%s buffer=%d %s", alg.Name(), buffer, cfg.name)
						if !pairSetsEqual(seq.Pairs, got.Pairs) {
							t.Fatalf("%s: %d pairs, sequential %d", at, len(got.Pairs), len(seq.Pairs))
						}
						if len(seq.Objects) != len(got.Objects) {
							t.Fatalf("%s: %d objects, sequential %d", at, len(got.Objects), len(seq.Objects))
						}
						for i := range seq.Objects {
							if seq.Objects[i].ID != got.Objects[i].ID {
								t.Fatalf("%s: object %d differs", at, i)
							}
						}
						for i, side := range []string{"R", "S"} {
							if d := logs[i].diff(seqLogs[i]); d != "" {
								t.Fatalf("%s: queries to %s differ from the sequential run's: %s", at, side, d)
							}
						}
						a, b := seq.Stats, got.Stats
						if a.AggQueries != b.AggQueries || a.HBSJ != b.HBSJ || a.NLSJ != b.NLSJ ||
							a.Repartitions != b.Repartitions || a.Pruned != b.Pruned {
							t.Fatalf("%s: decisions agg/hbsj/nlsj/repart/pruned %d/%d/%d/%d/%d, sequential %d/%d/%d/%d/%d", at,
								b.AggQueries, b.HBSJ, b.NLSJ, b.Repartitions, b.Pruned,
								a.AggQueries, a.HBSJ, a.NLSJ, a.Repartitions, a.Pruned)
						}
						if cfg.batch > 1 {
							continue // same queries, other frames: the meters count frames
						}
						if a.TotalQueries() != b.TotalQueries() {
							t.Fatalf("%s: %d query frames, sequential %d", at, b.TotalQueries(), a.TotalQueries())
						}
						if a.TotalBytes() != b.TotalBytes() {
							t.Fatalf("%s: metered %d bytes, sequential %d", at, b.TotalBytes(), a.TotalBytes())
						}
					}
				}
			}
		})
	}
}

// TestParallelMatchesOracle pins the parallel engine directly against the
// local oracle on a workload whose small buffer forces deep recursive
// splitting (lots of sibling fan-out).
func TestParallelMatchesOracle(t *testing.T) {
	robjs := dataset.GaussianClusters(500, 8, 200, dataset.World, 211)
	sobjs := dataset.GaussianClusters(500, 8, 200, dataset.World, 212)
	spec := Spec{Kind: Distance, Eps: 100}
	want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
	for _, alg := range allAlgorithms() {
		env := testEnvParallel(t, robjs, sobjs, 100, 8)
		got, err := alg.Run(context.Background(), env, spec)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !pairSetsEqual(got.Pairs, want.Pairs) {
			t.Fatalf("%s parallel: %d pairs, oracle %d", alg.Name(), len(got.Pairs), len(want.Pairs))
		}
	}
}

// TestParallelSemiJoin covers the cooperative comparator under the
// concurrent engine (its three protocol hops are inherently sequential,
// but the environment preparation overlaps its INFO round trips).
func TestParallelSemiJoin(t *testing.T) {
	robjs := dataset.Uniform(200, dataset.World, 221)
	sobjs := dataset.Uniform(300, dataset.World, 222)
	spec := Spec{Kind: Distance, Eps: 150}
	want := Oracle(robjs, sobjs, spec, dataset.World)
	env := testEnvParallel(t, robjs, sobjs, 800, 4, server.PublishIndex())
	env.Window = dataset.World
	got, err := SemiJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetsEqual(got.Pairs, want.Pairs) {
		t.Fatalf("semiJoin parallel: %d pairs, oracle %d", len(got.Pairs), len(want.Pairs))
	}
}

// TestParallelOverTCP runs the concurrent engine over the pooled TCP
// transport and checks byte-count parity with the channel transport.
func TestParallelOverTCP(t *testing.T) {
	robjs := dataset.GaussianClusters(200, 4, 200, dataset.World, 231)
	sobjs := dataset.GaussianClusters(200, 4, 200, dataset.World, 232)
	spec := Spec{Kind: Distance, Eps: 120}

	envCh := testEnvParallel(t, robjs, sobjs, 300, 4)
	envCh.Seed = 7
	a, err := UpJoin{}.Run(context.Background(), envCh, spec)
	if err != nil {
		t.Fatal(err)
	}

	srvR, err := netsim.ListenAndServe("127.0.0.1:0", server.New("R", robjs))
	if err != nil {
		t.Fatal(err)
	}
	defer srvR.Close()
	srvS, err := netsim.ListenAndServe("127.0.0.1:0", server.New("S", sobjs))
	if err != nil {
		t.Fatal(err)
	}
	defer srvS.Close()
	trR, err := netsim.DialTCPPool(srvR.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	trS, err := netsim.DialTCPPool(srvS.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRemote(t, "R", trR, netsim.DefaultLink(), 1)
	s := mustRemote(t, "S", trS, netsim.DefaultLink(), 1)
	defer r.Close()
	defer s.Close()
	env := NewEnv(r, s, client.Device{BufferObjects: 300}, costmodel.Default(), geom.Rect{})
	env.Seed = 7
	env.Parallelism = 4
	b, err := UpJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetsEqual(a.Pairs, b.Pairs) {
		t.Fatalf("TCP parallel: %d pairs, channel %d", len(b.Pairs), len(a.Pairs))
	}
	if a.Stats.TotalBytes() != b.Stats.TotalBytes() {
		t.Fatalf("transport changed accounting: channel %d vs TCP %d",
			a.Stats.TotalBytes(), b.Stats.TotalBytes())
	}
}

// TestWindowRandDeterministic pins the scheduling-independence of
// UpJoin's randomized confirmation probes: the RNG for a window depends
// only on (seed, side, window), never on visit order.
func TestWindowRandDeterministic(t *testing.T) {
	w := geom.R(100, 200, 900, 1000)
	a := randomQuadrantWindow(windowRand(3, sideR, w), w)
	b := randomQuadrantWindow(windowRand(3, sideR, w), w)
	if a != b {
		t.Fatalf("same (seed, side, window) must give the same probe: %v vs %v", a, b)
	}
	if c := randomQuadrantWindow(windowRand(3, sideS, w), w); c == a {
		t.Fatal("different sides should (generically) give different probes")
	}
	if d := randomQuadrantWindow(windowRand(4, sideR, w), w); d == a {
		t.Fatal("different seeds should (generically) give different probes")
	}
}

// TestFanoutBounded checks that the pool never has more tasks live than
// it has places — and does get that many live — at the size every
// zero-RTT run keeps (Parallelism) and at the wide one (Parallelism ×
// BatchSize), and that a nil gate degrades to pure sequential order. A
// task stays live until the pool has filled, so the bound is provably
// reached: a pool that stopped short of it would leave every live task
// waiting.
func TestFanoutBounded(t *testing.T) {
	for _, live := range []int{3, 3 * 16} {
		x := newTestExec(newGate(3, live))
		var (
			mu      sync.Mutex
			active  int
			maxSeen int
			filled  bool
			full    = make(chan struct{})
		)
		timeout := time.After(10 * time.Second)
		err := x.fanout(16*live, func(int) error {
			mu.Lock()
			active++
			maxSeen = max(maxSeen, active)
			if active == live && !filled {
				filled = true
				close(full)
			}
			mu.Unlock()
			select {
			case <-full:
			case <-timeout:
				return fmt.Errorf("pool of %d never had %d tasks live", live, live)
			}
			mu.Lock()
			active--
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxSeen != live {
			t.Fatalf("pool of %d had %d tasks live at once", live, maxSeen)
		}
	}

	var order []int
	xs := newTestExec(nil) // sequential
	if err := xs.fanout(5, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential fanout out of order: %v", order)
		}
	}
}

// TestFanoutStopsLaunchingAfterError checks the cheap-abort behavior:
// once a task fails, no further tasks are launched (running ones may
// finish, but whole subtrees are not started on a dead run).
func TestFanoutStopsLaunchingAfterError(t *testing.T) {
	boom := fmt.Errorf("boom")

	// Sequential: deterministic stop at the first failure.
	var seqRuns int
	xs := newTestExec(nil)
	if err := xs.fanout(10, func(i int) error {
		seqRuns++
		if i == 2 {
			return boom
		}
		return nil
	}); err != boom {
		t.Fatalf("sequential fanout error = %v, want boom", err)
	}
	if seqRuns != 3 {
		t.Fatalf("sequential fanout ran %d tasks after failure at index 2", seqRuns)
	}

	// Parallel, either pool size: every task fails instantly; after the
	// first recorded failure the launch loop must break, so far fewer than
	// n start — and none outlives the call.
	for _, live := range []int{3, 3 * 16} {
		baseline := runtime.NumGoroutine()
		x := newTestExec(newGate(3, live))
		var launched atomic.Int64
		err := x.fanout(1000, func(int) error {
			launched.Add(1)
			return boom
		})
		if err != boom {
			t.Fatalf("pool of %d: fanout error = %v, want boom", live, err)
		}
		if n := launched.Load(); n >= 1000 {
			t.Fatalf("pool of %d: fanout launched all %d tasks despite immediate failures", live, n)
		}
		waitGoroutines(t, baseline)
	}
}
