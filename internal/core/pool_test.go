package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
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

// These tests pin the two bounds of the concurrent engine (parallel.go's
// gate): how many partitions are live, and how many hold downloaded
// objects. They drive a run step by step instead of racing it: every
// round trip of interest parks at a stepGate, the test waits until the
// whole engine has come to rest (settle), looks at what is parked, and
// lets some of it go. Nothing sleeps, and what a rest state shows does not
// depend on scheduling.

// stepGate parks the round trips hold selects (all of them when nil) until
// the test releases them, honoring the caller's context while parked.
type stepGate struct {
	inner netsim.RoundTripper
	hold  func(req []byte) bool

	mu     sync.Mutex
	parked []*parkedTrip
}

// parkedTrip is one round trip held at a stepGate.
type parkedTrip struct {
	req     []byte // a copy: the caller may recycle its frame if it abandons the trip
	waiter  bool   // sent on the stack of the engine goroutine that waits for it, not by a dispatcher
	release chan struct{}
}

func (g *stepGate) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if g.hold == nil || g.hold(req) {
		p := &parkedTrip{req: bytes.Clone(req), release: make(chan struct{})}
		stack := make([]byte, 1<<14)
		p.waiter = bytes.Contains(stack[:runtime.Stack(stack, false)], []byte("core.(*exec)"))
		g.mu.Lock()
		g.parked = append(g.parked, p)
		g.mu.Unlock()
		select {
		case <-p.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.RoundTrip(ctx, req)
}

func (g *stepGate) Close() error { return g.inner.Close() }

// take removes and returns the parked trips keep selects (all when nil).
func (g *stepGate) take(keep func(*parkedTrip) bool) []*parkedTrip {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out, rest []*parkedTrip
	for _, p := range g.parked {
		if keep == nil || keep(p) {
			out = append(out, p)
		} else {
			rest = append(rest, p)
		}
	}
	g.parked = rest
	return out
}

// subRequests returns the queries a request frame carries: the
// sub-requests of an envelope, or the frame itself.
func subRequests(t testing.TB, req []byte) [][]byte {
	if wire.Type(req) != wire.MsgBatch {
		return [][]byte{req}
	}
	subs, err := wire.DecodeBatch(req, wire.MsgBatch)
	if err != nil {
		t.Errorf("undecodable envelope: %v", err) // not Fatalf: links call this off the test's goroutine
	}
	return subs
}

// restStates are the goroutine wait reasons (as runtime.Stack prints
// them) of a goroutine that stays where it is until another goroutine
// acts — channel operations, locks, wait groups — and of the runtime's
// own idle workers. Anything else — running, runnable, sleeping, in a
// system call — may move on by itself. So may a plain "semacquire": it is
// a sync primitive's wait on older runtimes (at rest; the stack then shows
// sync.runtime_Semacquire) but also a goroutine queueing for a runtime
// semaphore, such as one about to start a GC cycle while this snapshot
// holds the world stopped.
var restStates = [][]byte{
	[]byte("chan receive"), []byte("chan send"), []byte("select"),
	[]byte("sync.Mutex.Lock"), []byte("sync.RWMutex."),
	[]byte("sync.WaitGroup.Wait"), []byte("sync.Cond.Wait"),
	[]byte("GC worker (idle)"), []byte("GC sweep wait"), []byte("GC scavenge wait"),
	[]byte("force gc (idle)"), []byte("finalizer wait"), []byte("cleanup wait"),
}

// settle returns once every goroutine but the caller is at rest.
// runtime.Stack stops the world for the snapshot, so a snapshot in which
// nothing can run is a rest state: nothing moves again until the caller
// acts. (The transports of these tests have no latency and the engine
// owns no timer, so no clock can wake anything either.)
func settle(t testing.TB) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(20 * time.Second)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		moving := movingGoroutine(buf[:n])
		if moving == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the engine never came to rest; still moving:\n%s", moving)
		}
		runtime.Gosched()
	}
}

// movingGoroutine returns the stack of a goroutine in dump (the first,
// the caller's own, aside) that is not at rest, or nil.
func movingGoroutine(dump []byte) []byte {
next:
	for _, s := range bytes.Split(dump, []byte("\n\n"))[1:] {
		open := bytes.IndexByte(s, '[')
		if open < 0 {
			continue
		}
		for _, st := range restStates {
			if bytes.HasPrefix(s[open+1:], st) {
				continue next
			}
		}
		if bytes.HasPrefix(s[open+1:], []byte("semacquire")) && bytes.Contains(s, []byte("sync.runtime_Semacquire")) {
			continue
		}
		return s
	}
	return nil
}

// countingProbe counts the COUNT queries submitted through GoBatch.
type countingProbe struct {
	Probe
	counts atomic.Int64
}

func (p *countingProbe) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	for _, req := range reqs {
		if wire.Type(req) == wire.MsgCount {
			p.counts.Add(1)
		}
	}
	return p.Probe.GoBatch(ctx, reqs)
}

// envOver wires an environment over two transports. batch > 1 batches
// both links; linkRTT is the latency the links really impose and modelRTT
// the one the cost model is told of — which is the one the pool rule
// reads, so a test that parks or fails its round trips itself widens the
// pool through the model alone and stays off the clock.
func envOver(t testing.TB, trR, trS netsim.RoundTripper, buffer, parallelism, batch int, linkRTT, modelRTT time.Duration, copts ...client.Option) *Env {
	t.Helper()
	if batch > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: batch}))
	}
	link := netsim.DefaultLink()
	link.RTT = linkRTT
	r := mustRemote(t, "R", trR, link, 1, copts...)
	s := mustRemote(t, "S", trS, link, 1, copts...)
	model := costmodel.Default()
	model.Link.RTT = modelRTT
	env := NewEnv(r, s, client.Device{BufferObjects: buffer}, model, geom.Rect{})
	env.Parallelism, env.BatchSize = parallelism, batch
	return env
}

// gatedEnv is envOver over stepGates in front of in-process servers.
func gatedEnv(t *testing.T, robjs, sobjs []geom.Object, buffer, parallelism, batch int, rtt time.Duration, hold func([]byte) bool) (*Env, *stepGate, *stepGate) {
	t.Helper()
	gr := &stepGate{inner: netsim.Serve(server.New("R", robjs)), hold: hold}
	gs := &stepGate{inner: netsim.Serve(server.New("S", sobjs)), hold: hold}
	env := envOver(t, gr, gs, buffer, parallelism, batch, 0, rtt)
	t.Cleanup(func() { env.R.Close(); env.S.Close() })
	return env, gr, gs
}

// TestLiveTasksFollowsTheLink pins the pool rule: the live-partition pool
// widens to Parallelism × BatchSize only for a batched run over a
// latency-bearing link; every other configuration keeps Parallelism.
func TestLiveTasksFollowsTheLink(t *testing.T) {
	for _, c := range []struct {
		par, batch int
		rtt        time.Duration
		want       int
	}{
		{4, 16, 2 * time.Millisecond, 64},
		{4, 16, 0, 4},                     // batched, but a round trip costs nothing
		{4, 1, 2 * time.Millisecond, 4},   // latency, but nothing to fill
		{4, 0, 2 * time.Millisecond, 4},   // BatchSize 0 is 1
		{8, 4, time.Microsecond, 32},      // any latency at all
		{1, 16, 2 * time.Millisecond, 16}, // moot: Parallelism 1 builds no gate
	} {
		env := &Env{Parallelism: c.par, BatchSize: c.batch}
		env.Model.Link.RTT = c.rtt
		if got := liveTasks(env); got != c.want {
			t.Errorf("liveTasks(par %d, batch %d, rtt %v) = %d, want %d", c.par, c.batch, c.rtt, got, c.want)
		}
	}
	if g := newGate(1, 16); g != nil {
		t.Error("Parallelism 1 built a gate")
	}
	if g := newGate(4, 64); cap(g.live) != 63 || cap(g.slots) != 4 {
		t.Errorf("gate(4, 64): %d pool places, %d transfer slots; want 63, 4", cap(g.live), cap(g.slots))
	}
}

// TestRTTBatchedCountsFillTheWindow: with Parallelism 4 and BatchSize 16
// over a latency-bearing link, enough partitions are live that UpJoin's
// COUNT statistics fill the link's window. The test holds the window:
// every round trip parks until the engine rests, and only then is
// everything parked let go — so at each rest state everything the live
// partitions can ask without an answer has been asked.
//
// Which waiter cuts the first envelopes of a round, and with how much of
// the queue, is a race the batcher is free to decide either way, so the
// fill of individual envelopes is logged, not asserted. What a rest state
// shows is not: the COUNTs outstanding on a link. They must reach 8 per
// envelope of the window (4 envelopes), and some COUNT envelopes must
// have left from behind a full window — sent by a dispatcher that took
// over a finished round trip's slot, not by their own waiter. With the
// pool of Parallelism every zero-RTT run keeps, neither can happen: four
// live partitions have one quadrant group each outstanding, which the
// window swallows whole.
func TestRTTBatchedCountsFillTheWindow(t *testing.T) {
	robjs := dataset.GaussianClusters(4000, 12, 300, dataset.World, 301)
	sobjs := dataset.GaussianClusters(4000, 12, 300, dataset.World, 302)
	spec := Spec{Kind: Distance, Eps: 10}
	want := Oracle(robjs, sobjs, spec, dataset.Bounds(robjs).Union(dataset.Bounds(sobjs)))
	const window, parallelism, batch = 4, 4, 16 // window: the client batcher's in-flight window

	for _, rtt := range []time.Duration{2 * time.Millisecond, 0} {
		env, gr, gs := gatedEnv(t, robjs, sobjs, 60, parallelism, batch, rtt, nil)
		env.Seed = 5
		links := []*countingProbe{{Probe: env.R}, {Probe: env.S}}
		env.R, env.S = links[0], links[1]
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := UpJoin{}.Run(context.Background(), env, spec)
			done <- outcome{res, err}
		}()

		var (
			answered     [2]int64 // COUNTs let through, per link
			peak         int64    // most COUNTs outstanding on one link at rest
			behind, fill int      // COUNT envelopes sent from behind a full window, and the COUNTs aboard
		)
		for running := true; running; {
			settle(t)
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				if !pairSetsEqual(o.res.Pairs, want.Pairs) {
					t.Fatalf("rtt %v: %d pairs, oracle %d", rtt, len(o.res.Pairs), len(want.Pairs))
				}
				running = false
				continue
			default:
			}
			released := 0
			for i, g := range []*stepGate{gr, gs} {
				peak = max(peak, links[i].counts.Load()-answered[i])
				for _, p := range g.take(nil) {
					subs := subRequests(t, p.req)
					counts := 0
					for _, sub := range subs {
						if wire.Type(sub) == wire.MsgCount {
							counts++
						}
					}
					answered[i] += int64(counts)
					if counts == len(subs) && !p.waiter {
						behind++
						fill += counts
					}
					close(p.release)
					released++
				}
			}
			if released == 0 {
				t.Fatalf("rtt %v: the run is at rest with nothing parked at a link", rtt)
			}
		}
		t.Logf("rtt %v: at most %d COUNTs outstanding on a link; %d COUNT envelopes from behind a full window carrying %d",
			rtt, peak, behind, fill)
		if rtt > 0 {
			if peak < window*8 {
				t.Errorf("at most %d COUNTs outstanding on a link: a mean fill of %.1f over its window of %d envelopes, want ≥ 8",
					peak, float64(peak)/window, window)
			}
			if behind == 0 {
				t.Error("no COUNT envelope ever left from behind a full window")
			}
		} else {
			if peak > parallelism*4 {
				t.Errorf("%d COUNTs outstanding on a link: more than %d live partitions' quadrant groups", peak, parallelism)
			}
			if behind != 0 {
				t.Errorf("%d COUNT envelopes left from behind a full window: more than %d partitions were live", behind, parallelism)
			}
		}
	}
}

// cellWorkload is sixteen partitions that share nothing: a 4 × 4 grid
// over the world, each cell holding its own few R and S points well
// inside it, so every object request of a run — a window download, an
// ε-range probe — names exactly one cell.
type cellWorkload struct {
	cells        []geom.Rect
	robjs, sobjs []geom.Object
}

func newCellWorkload(perCell int, seed int64) cellWorkload {
	rng := rand.New(rand.NewSource(seed))
	var w cellWorkload
	side := dataset.World.Width() / 4
	for i := 0; i < 16; i++ {
		x0, y0 := float64(i%4)*side, float64(i/4)*side
		w.cells = append(w.cells, geom.R(x0, y0, x0+side, y0+side))
		for k := 0; k < perCell; k++ {
			p := geom.Pt(x0+side*(0.4+0.2*rng.Float64()), y0+side*(0.4+0.2*rng.Float64()))
			q := geom.Pt(p.X+side*0.01*rng.Float64(), p.Y)
			w.robjs = append(w.robjs, geom.PointObject(uint32(len(w.robjs)), p))
			w.sobjs = append(w.sobjs, geom.PointObject(uint32(len(w.sobjs)), q))
		}
	}
	return w
}

// cellsOf returns the cells whose objects a request frame asks for: none
// for statistics and metadata, which download nothing.
func (w cellWorkload) cellsOf(t testing.TB, req []byte) []int {
	var cells []int
	for _, sub := range subRequests(t, req) {
		var p geom.Point
		switch wire.Type(sub) {
		case wire.MsgWindow:
			r, err := wire.DecodeWindowLike(sub, wire.MsgWindow)
			if err != nil {
				t.Fatal(err)
			}
			p = r.Center()
		case wire.MsgRange:
			var err error
			if p, _, err = wire.DecodeRangeLike(sub, wire.MsgRange); err != nil {
				t.Fatal(err)
			}
		default:
			continue
		}
		for i, c := range w.cells {
			if c.ContainsPoint(p) {
				cells = append(cells, i)
				break
			}
		}
	}
	return cells
}

// TestTransferSlotsBoundResidentPartitions: however many partitions are
// live, never more than Parallelism of them are between the start of their
// first object download and their last use of those objects — and that
// many are, so the bound is a bound and not slack. Sixteen independent
// partitions run one physical operator each on the pool; every request
// that carries objects parks at the links, statistics pass. At each rest
// state the partitions with an object request parked are the ones holding
// a buffer-full: an HBSJ leaf waits on one of its two window downloads, an
// NLSJ on its outer download or on probes of its outer objects. Then one
// partition's requests are let go, and the engine runs to its next rest.
func TestTransferSlotsBoundResidentPartitions(t *testing.T) {
	const parallelism = 4
	work := newCellWorkload(10, 41)
	spec := Spec{Kind: Distance, Eps: dataset.World.Width() / 4 * 0.02}
	want := Oracle(work.robjs, work.sobjs, spec, dataset.World)
	ops := map[string]func(x *exec, w geom.Rect) error{
		// Approximate counts: each operator first confirms them with COUNTs,
		// which hold no slot.
		"HBSJ": func(x *exec, w geom.Rect) error { return x.doHBSJ(w, approx(10), approx(10), 0) },
		"NLSJ": func(x *exec, w geom.Rect) error { return x.doNLSJ(w, sideR, approx(10), approx(10)) },
	}
	for _, pool := range []struct {
		batch int
		rtt   time.Duration
		live  int
	}{{1, 0, parallelism}, {16, 2 * time.Millisecond, parallelism * 16}} {
		for name, op := range ops {
			carriesObjects := func(req []byte) bool { return len(work.cellsOf(t, req)) > 0 }
			env, gr, gs := gatedEnv(t, work.robjs, work.sobjs, 1000, parallelism, pool.batch, pool.rtt, carriesObjects)
			env.Window = dataset.World
			x, err := newExec(context.Background(), env, spec, "test")
			if err != nil {
				t.Fatal(err)
			}
			if got := cap(x.par.live) + 1; got != pool.live {
				t.Fatalf("batch %d, rtt %v: pool of %d live partitions, want %d", pool.batch, pool.rtt, got, pool.live)
			}
			done := make(chan error, 1)
			go func() {
				done <- x.fanout(len(work.cells), func(i int) error { return op(x, work.cells[i]) })
			}()

			peak := 0
			for running := true; running; {
				settle(t)
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					running = false
					continue
				default:
				}
				resident := map[int]bool{}
				for _, g := range []*stepGate{gr, gs} {
					g.mu.Lock()
					for _, p := range g.parked {
						for _, c := range work.cellsOf(t, p.req) {
							resident[c] = true
						}
					}
					g.mu.Unlock()
				}
				if len(resident) == 0 {
					t.Fatalf("%s, pool %d: the run is at rest with no object request parked", name, pool.live)
				}
				if len(resident) > parallelism {
					t.Fatalf("%s, pool %d: %d partitions hold downloaded objects at once, Parallelism is %d",
						name, pool.live, len(resident), parallelism)
				}
				peak = max(peak, len(resident))
				first := len(work.cells)
				for c := range resident {
					first = min(first, c)
				}
				for _, g := range []*stepGate{gr, gs} {
					for _, p := range g.take(func(p *parkedTrip) bool { return slices.Contains(work.cellsOf(t, p.req), first) }) {
						close(p.release)
					}
				}
			}
			x.close()
			if peak != parallelism {
				t.Errorf("%s, pool %d: at most %d partitions held objects at once; the %d transfer slots were never all taken",
					name, pool.live, peak, parallelism)
			}
			if got := x.result(); !pairSetsEqual(got.Pairs, want.Pairs) {
				t.Errorf("%s, pool %d: %d pairs, oracle %d", name, pool.live, len(got.Pairs), len(want.Pairs))
			}
		}
	}
}

// TestUnbatchedGroupOverlapsParallelism: on the parallel engine an
// unbatched probe group is cut into Parallelism chunks, each submitted by
// a task of its own, so the group keeps Parallelism round trips in flight
// on its one link whatever the link does with a chunk — here one request
// after another, since a stepGate cannot pipeline. Every COUNT parks; at
// each rest state exactly Parallelism are parked, and a group of n takes
// n / Parallelism rounds. A group collapsed into one chunk would have one
// in flight at a time.
func TestUnbatchedGroupOverlapsParallelism(t *testing.T) {
	const parallelism = 4
	objs := dataset.Uniform(300, dataset.World, 61)
	ws := dataset.World.Grid(4) // n = 16 = 4 × Parallelism windows
	isCount := func(req []byte) bool { return wire.Type(req) == wire.MsgCount }
	env, _, gs := gatedEnv(t, objs, objs, 1000, parallelism, 1, 0, isCount)
	x, err := newExec(context.Background(), env, Spec{Kind: Intersection}, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer x.close()
	type outcome struct {
		ns  []int
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ns, err := x.countAll(sideS, ws)
		done <- outcome{ns, err}
	}()

	rounds := 0
	for running := true; running; {
		settle(t)
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			for i, w := range ws {
				want := 0
				for _, o := range objs {
					if o.MBR.Intersects(w) {
						want++
					}
				}
				if o.ns[i] != want {
					t.Errorf("window %d: COUNT %d, want %d", i, o.ns[i], want)
				}
			}
			running = false
			continue
		default:
		}
		parked := gs.take(nil)
		if len(parked) != parallelism {
			t.Fatalf("round %d: %d COUNTs in flight on the link, want %d", rounds, len(parked), parallelism)
		}
		for _, p := range parked {
			close(p.release)
		}
		rounds++
	}
	if want := len(ws) / parallelism; rounds != want {
		t.Errorf("the group of %d took %d rounds, want %d", len(ws), rounds, want)
	}
}
