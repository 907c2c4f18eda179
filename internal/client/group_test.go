package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// This file pins the unbatched probe group (group.go) at the layer
// boundary: what Do guards must stay guarded when n requests cross one
// link as a pipeline — per-frame metering, the quota gate, MsgError
// containment, the retry policy and its per-frame attempts, frame
// recycling, cancellation — and the pipelining client must interoperate
// with a peer that knows nothing of it. A group crosses real loopback
// TCP, its chunks written back to back, or the in-process transport,
// which netsim.Pipeline sends one frame after another as it sends Faulty
// and Switch. Nothing sleeps.

// tcpServed boots a dataset server on loopback TCP and returns its
// address.
func tcpServed(t *testing.T, objs []geom.Object) string {
	t.Helper()
	srv, err := netsim.ListenAndServe("127.0.0.1:0", server.New("G", objs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// tcpRemote dials addr over a pool of one connection — the sequential
// device's link.
func tcpRemote(t *testing.T, addr string, opts ...Option) *Remote {
	t.Helper()
	rt, err := netsim.DialTCPPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRemote("G", rt, netsim.DefaultLink(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// inProcRemote returns a remote over an in-process transport, or over
// whatever wraps one.
func inProcRemote(t *testing.T, rt netsim.RoundTripper, opts ...Option) *Remote {
	t.Helper()
	r, err := NewRemote("G", rt, netsim.DefaultLink(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// countReqs encodes n COUNT probes of window w.
func countReqs(n int, w geom.Rect) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = wire.AppendCount(bufpool.Get(), w)
	}
	return reqs
}

// rangeReqs encodes one ε-RANGE probe per point.
func rangeReqs(pts []geom.Point) [][]byte {
	reqs := make([][]byte, len(pts))
	for i, p := range pts {
		reqs[i] = wire.AppendRange(bufpool.Get(), p, 400)
	}
	return reqs
}

func centers(objs []geom.Object, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = objs[i].Center()
	}
	return pts
}

// TestGroupMetersLikeTypedCalls (a): a pipelined group of n — several
// chunks deep — returns the typed calls' answers and meters exactly what
// n typed calls meter: every Usage column, the tenant's columns, and the
// hedged column under WithHedged.
func TestGroupMetersLikeTypedCalls(t *testing.T) {
	objs := dataset.Uniform(400, dataset.World, 5)
	addr := tcpServed(t, objs)
	pts := centers(objs, 70) // three chunks
	ctx := netsim.WithHedged(netsim.WithTenant(context.Background(), "t1"))
	tenants := WithScheduler(NewScheduler()) // arms the tenant columns

	typed := tcpRemote(t, addr, tenants)
	want := make([][]geom.Object, len(pts))
	for i, p := range pts {
		var err error
		if want[i], err = typed.Range(ctx, p, 400); err != nil {
			t.Fatal(err)
		}
	}
	grouped := tcpRemote(t, addr, tenants)
	for i, c := range grouped.GoBatch(ctx, rangeReqs(pts)) {
		got, err := c.Objects()
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if len(got) != len(want[i]) || (len(got) > 0 && got[0] != want[i][0]) {
			t.Fatalf("probe %d: %d objects, typed call got %d", i, len(got), len(want[i]))
		}
	}
	if got, want := grouped.Usage(), typed.Usage(); got != want {
		t.Errorf("link usage: group %+v, typed calls %+v", got, want)
	}
	if got, want := grouped.TenantUsage("t1"), typed.TenantUsage("t1"); got != want || got != grouped.Usage() {
		t.Errorf("tenant usage: group %+v, typed calls %+v, link %+v", got, want, grouped.Usage())
	}
	if u := grouped.Usage(); u.Messages != 2*len(pts) || u.HedgedMessages != u.Messages || u.HedgedWireBytes != u.WireBytes {
		t.Errorf("group usage %+v: want %d messages, all of them in the hedged column", u, 2*len(pts))
	}
}

// TestGroupServerErrorFailsItsCallOnly (c): a request the server refuses
// in the middle of a chunk fails that call with the server's error; its
// chunk-mates on either side are answered.
func TestGroupServerErrorFailsItsCallOnly(t *testing.T) {
	objs := dataset.Uniform(50, dataset.World, 5)
	r := tcpRemote(t, tcpServed(t, objs))
	w := dataset.Bounds(objs).Expand(1)
	reqs := [][]byte{
		wire.AppendCount(bufpool.Get(), w),
		append(bufpool.Get(), byte(wire.MsgCount), 1, 2), // truncated: the server answers MsgError
		wire.AppendCount(bufpool.Get(), w),
	}
	calls := r.GoBatch(context.Background(), reqs)
	for _, i := range []int{0, 2} {
		if n, err := calls[i].Count(); err != nil || n != len(objs) {
			t.Errorf("call %d beside the refused one: count %d, %v", i, n, err)
		}
	}
	if _, err := calls[1].Count(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("refused request: err = %v, want the server's error", err)
	}
	if r.Retries() != 0 {
		t.Errorf("a server error was retried %d times", r.Retries())
	}
}

// TestGroupQuotaRejectsBeforeCharging (e): once a tenant has crossed its
// quota, its next group is rejected before any frame of the chunk is
// charged — every call fails with the quota error and the meter does not
// move.
func TestGroupQuotaRejectsBeforeCharging(t *testing.T) {
	objs := dataset.Uniform(200, dataset.World, 5)
	ledger := netsim.NewLedger()
	ledger.SetQuota("poor", 500)
	r := tcpRemote(t, tcpServed(t, objs), WithLedger(ledger))
	ctx := netsim.WithTenant(context.Background(), "poor")
	pts := centers(objs, 10)
	for i, c := range r.GoBatch(ctx, rangeReqs(pts)) {
		if _, err := c.Objects(); err != nil {
			t.Fatalf("within quota, probe %d: %v", i, err)
		}
	}
	if ledger.Spent("poor") < 500 {
		t.Fatalf("first group spent %d, the test needs it to cross the quota", ledger.Spent("poor"))
	}
	before := r.Usage()
	for i, c := range r.GoBatch(ctx, rangeReqs(pts)) {
		if _, err := c.Objects(); !errors.Is(err, netsim.ErrOverQuota) {
			t.Errorf("over quota, probe %d: err = %v, want the quota error", i, err)
		}
	}
	if after := r.Usage(); after != before {
		t.Errorf("a rejected group was charged: %+v → %+v", before, after)
	}
}

// peer is a test-only frame server: netsim's TCP framing spoken by hand,
// the way a server that has never heard of pipelining speaks it — one
// reply written per request, on its own. It can dribble a reply out byte
// by byte, sever a connection after a number of replies, and park inside
// a chosen request, so a test reaches "mid-chunk" by an event, not a
// sleep.
type peer struct {
	ln      net.Listener
	handler netsim.Handler
	dribble bool
	// severAfter, when positive, closes the first connection once it has
	// written that many replies; later connections serve normally.
	severAfter int
	// hold, when non-nil, is called before request number i (0-based,
	// over the peer's lifetime) is answered.
	hold func(i int)

	accepted, requests atomic.Int32
	wg                 sync.WaitGroup
}

func newPeer(t *testing.T, p *peer) *peer {
	t.Helper()
	var err error
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := p.ln.Accept()
			if err != nil {
				return
			}
			first := p.accepted.Add(1) == 1
			p.wg.Add(1)
			go p.serve(conn, first)
		}
	}()
	t.Cleanup(func() {
		p.ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *peer) serve(conn net.Conn, first bool) {
	defer p.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	for replies := 0; ; replies++ {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		req := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, req); err != nil {
			return
		}
		if first && p.severAfter > 0 && replies == p.severAfter {
			return
		}
		if i := int(p.requests.Add(1)) - 1; p.hold != nil {
			p.hold(i)
		}
		resp := p.handler.Handle(req)
		out := append(binary.LittleEndian.AppendUint32(nil, uint32(len(resp))), resp...)
		if !p.dribble {
			if _, err := conn.Write(out); err != nil {
				return
			}
			continue
		}
		for i := range out {
			if _, err := conn.Write(out[i : i+1]); err != nil {
				return
			}
		}
	}
}

// TestGroupInteropWithFrameAtATimePeer (f): against a peer that answers
// one frame per write — and one that dribbles its replies a byte at a
// time — the pipelining client reads the same replies, in order, as the
// coalescing server gives it.
func TestGroupInteropWithFrameAtATimePeer(t *testing.T) {
	objs := dataset.Uniform(300, dataset.World, 9)
	pts := centers(objs, 40)
	answers := func(r *Remote) [][]geom.Object {
		out := make([][]geom.Object, len(pts))
		for i, c := range r.GoBatch(context.Background(), rangeReqs(pts)) {
			var err error
			if out[i], err = c.Objects(); err != nil {
				t.Fatalf("probe %d: %v", i, err)
			}
		}
		return out
	}
	want := answers(tcpRemote(t, tcpServed(t, objs)))
	for name, p := range map[string]*peer{
		"frame at a time": {handler: server.New("G", objs)},
		"dribbling":       {handler: server.New("G", objs), dribble: true},
	} {
		got := answers(tcpRemote(t, newPeer(t, p).ln.Addr().String()))
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s peer: probe %d has %d objects, coalescing server gave %d", name, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s peer: probe %d object %d differs", name, i, j)
				}
			}
		}
	}
}

// severingSwitch serves h in-process behind a netsim.Switch that the
// handler arms, while it serves request k − 1, to sever request k's
// reply: the in-process twin of a peer with severAfter k. The first k
// replies arrive, request k is served and its reply lost, and the chunk
// is cut there.
func severingSwitch(h netsim.Handler, k int) *netsim.Switch {
	var sw *netsim.Switch
	var served atomic.Int32
	sw = netsim.NewSwitch(netsim.Serve(netsim.HandlerFunc(func(req []byte) []byte {
		if served.Add(1) == int32(k) {
			sw.Sever(1)
		}
		return h.Handle(req)
	})))
	return sw
}

// TestGroupSeveredMidChunk (d): the link dies after k of a chunk's n
// replies — over TCP the connection closes, in-process a Switch severs
// request k's reply. Under a fail-fast policy the k stand and the n − k
// fail with the transport's error, nothing re-issued; under DefaultRetry
// exactly the n − k are re-issued, and Retries() and the meter say so.
func TestGroupSeveredMidChunk(t *testing.T) {
	objs := dataset.Uniform(100, dataset.World, 3)
	w := dataset.Bounds(objs).Expand(1)
	const n, k = 8, 3
	legs := map[string]func(t *testing.T, retry RetryPolicy) *Remote{
		"tcp": func(t *testing.T, retry RetryPolicy) *Remote {
			p := newPeer(t, &peer{handler: server.New("G", objs), severAfter: k})
			return tcpRemote(t, p.ln.Addr().String(), WithRetry(retry))
		},
		"in-process": func(t *testing.T, retry RetryPolicy) *Remote {
			return inProcRemote(t, severingSwitch(server.New("G", objs), k), WithRetry(retry))
		},
	}
	t.Run("fail-fast", func(t *testing.T) {
		for leg, remote := range legs {
			t.Run(leg, func(t *testing.T) {
				r := remote(t, RetryPolicy{})
				for i, c := range r.GoBatch(context.Background(), countReqs(n, w)) {
					got, err := c.Count()
					switch {
					case i < k && (err != nil || got != len(objs)):
						t.Errorf("reply %d arrived before the sever: count %d, %v", i, got, err)
					case i >= k && err == nil:
						t.Errorf("request %d was answered though the link died before its reply", i)
					case i >= k && errors.Is(err, context.Canceled):
						t.Errorf("request %d: %v, want the transport's error", i, err)
					}
				}
				if u := r.Usage(); r.Retries() != 0 || u.Queries != n || u.Messages != n+k {
					t.Errorf("retries %d, %d queries, %d messages; want 0, %d, %d", r.Retries(), u.Queries, u.Messages, n, n+k)
				}
			})
		}
	})
	t.Run("default-retry", func(t *testing.T) {
		for leg, remote := range legs {
			t.Run(leg, func(t *testing.T) {
				r := remote(t, DefaultRetry())
				for i, c := range r.GoBatch(context.Background(), countReqs(n, w)) {
					if got, err := c.Count(); err != nil || got != len(objs) {
						t.Errorf("request %d: count %d, %v", i, got, err)
					}
				}
				if r.Retries() != n-k {
					t.Errorf("retries = %d, want exactly the %d unanswered requests", r.Retries(), n-k)
				}
				if u := r.Usage(); u.Queries != n+(n-k) || u.Messages != 2*n+(n-k) {
					t.Errorf("%d queries, %d messages; want %d (each unanswered request charged twice) and %d", u.Queries, u.Messages, n+(n-k), 2*n+(n-k))
				}
			})
		}
	})
}

// TestGroupCancelMidChunk (b): the context ends while the chunk's third
// request is parked, inside the server over TCP and on the link
// in-process. The waiter returns promptly with the context's error for
// every unanswered call, the link serves the next group — over TCP the
// poisoned connection is not reused, a second group dials a fresh one —
// and no goroutine is left behind.
func TestGroupCancelMidChunk(t *testing.T) {
	objs := dataset.Uniform(100, dataset.World, 3)
	w := dataset.Bounds(objs).Expand(1)
	for _, leg := range []string{"tcp", "in-process"} {
		t.Run(leg, func(t *testing.T) {
			before := runtime.NumGoroutine()
			entered, release := make(chan struct{}), make(chan struct{})
			hold := func(i int) {
				if i == 2 {
					close(entered)
					<-release
				}
			}
			var p *peer
			var r *Remote
			if leg == "tcp" {
				p = newPeer(t, &peer{handler: server.New("G", objs), hold: hold})
				r = tcpRemote(t, p.ln.Addr().String())
			} else {
				// In-process the server is a function call: the third
				// request parks on its link, which honours the context.
				var sent atomic.Int32
				inner := netsim.Serve(server.New("G", objs))
				r = inProcRemote(t, rtFunc(func(ctx context.Context, req []byte) ([]byte, error) {
					if sent.Add(1) == 3 {
						close(entered)
						select {
						case <-release:
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
					return inner.RoundTrip(ctx, req)
				}))
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-entered
				cancel()
			}()
			answered := 0
			for i, c := range r.GoBatch(ctx, countReqs(6, w)) {
				switch _, err := c.Count(); {
				case err == nil:
					answered++
				case !errors.Is(err, context.Canceled):
					t.Errorf("call %d: %v, want the context's error", i, err)
				}
			}
			if answered > 2 {
				t.Errorf("%d calls answered though the third was parked", answered)
			}
			close(release)
			for i, c := range r.GoBatch(context.Background(), countReqs(6, w)) {
				if got, err := c.Count(); err != nil || got != len(objs) {
					t.Fatalf("second group, call %d: count %d, %v", i, got, err)
				}
			}
			if p != nil && p.accepted.Load() != 2 {
				t.Errorf("peer accepted %d connections, want 2: the cancelled chunk's connection must not be reused", p.accepted.Load())
			}
			if r.Retries() != 0 {
				t.Errorf("a cancelled chunk was retried %d times", r.Retries())
			}
			r.Close()
			if p != nil {
				p.ln.Close()
				p.wg.Wait()
			}
			waitFor(t, "goroutines of the cancelled group to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// severingRT is a transport that pipelines and fails every chunk after
// its first reply, to completion (nothing retained): the failure path of
// a pipelined attempt without a socket in the way of the allocation
// count.
type severingRT struct{ h netsim.AppendHandler }

func (s severingRT) RoundTrip(_ context.Context, req []byte) ([]byte, error) {
	return s.h.HandleAppend(req, bufpool.Get()), nil
}

func (s severingRT) Pipeline(ctx context.Context, reqs, resps [][]byte) (int, error) {
	resps[0], _ = s.RoundTrip(ctx, reqs[0])
	return 1, errors.New("link severed")
}

func (severingRT) Close() error { return nil }

// TestPipelineFailureRecyclesFrames: request frames of a pipelined group
// are recycled exactly once — on success, on a failed attempt whose
// requests are then re-issued, and on one that fails for good — so a
// steady stream of groups allocates calls and errors but no frame
// buffers.
func TestPipelineFailureRecyclesFrames(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are meaningless under -race")
	}
	objs := dataset.Uniform(50, dataset.World, 3)
	w := dataset.Bounds(objs).Expand(1)
	for name, tc := range map[string]struct {
		retry  RetryPolicy
		failed int // calls of a group of 6 that must fail
		max    float64
	}{
		// Observed steady states: 170 and 20 allocations per run of ten
		// groups of six (the group, one allocation, and error wrappers). A
		// leaked frame is a 1 KiB buffer the pool must replace: one more
		// allocation per leaked request, +50 per run when the unanswered
		// five leak.
		"fail-fast": {RetryPolicy{}, 5, 180},
		"retried":   {RetryPolicy{MaxAttempts: 2}, 0, 28},
	} {
		r, err := NewRemote("F", severingRT{server.New("F", objs)}, netsim.DefaultLink(), 1, WithRetry(tc.retry))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			for round := 0; round < 10; round++ {
				reqs := make([][]byte, 6)
				for i := range reqs {
					reqs[i] = wire.AppendCount(bufpool.Get(), w)
				}
				failed := 0
				for _, c := range r.GoBatch(context.Background(), reqs) {
					if _, err := c.Count(); err != nil {
						failed++
					}
				}
				if failed != tc.failed {
					t.Fatalf("%s: %d calls of the group failed, want %d", name, failed, tc.failed)
				}
			}
		}
		run() // warm the pool
		avg := testing.AllocsPerRun(50, run)
		t.Logf("%s: allocs/run = %.1f", name, avg)
		if avg > tc.max {
			t.Errorf("%s: allocs/run = %.1f, want ≤ %.0f (request frames leaking on the pipelined failure path?)", name, avg, tc.max)
		}
		r.Close()
	}
}

// TestGroupSpawnsNothing: submitting and collecting an unbatched group
// starts no goroutine — the waiter runs it — and a group nobody has
// waited for yet has sent nothing.
func TestGroupSpawnsNothing(t *testing.T) {
	objs := dataset.Uniform(50, dataset.World, 3)
	r := tcpRemote(t, tcpServed(t, objs))
	w := dataset.Bounds(objs).Expand(1)
	if _, err := r.Count(context.Background(), w); err != nil { // the server's connection goroutine is up
		t.Fatal(err)
	}
	sent := r.Usage().Messages
	before := runtime.NumGoroutine()
	calls := r.GoBatch(context.Background(), [][]byte{
		wire.AppendCount(bufpool.Get(), w), wire.AppendCount(bufpool.Get(), w), wire.AppendCount(bufpool.Get(), w)})
	peak := runtime.NumGoroutine()
	if got := r.Usage().Messages - sent; got != 0 {
		t.Errorf("%d messages metered before anyone waited", got)
	}
	for _, c := range calls {
		if n, err := c.Count(); err != nil || n != len(objs) {
			t.Fatalf("count %d, %v", n, err)
		}
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak > before {
		t.Errorf("goroutines rose from %d to %d around an unbatched group", before, peak)
	}
}

// frameOf is a lazy call's work that waits for another call.
type frameOf struct{ c *Call }

func (frameOf) Send()                   {}
func (f frameOf) Eval() ([]byte, error) { return f.c.Frame() }

// TestGroupCallsAreTheCallers: the calls slice a group returns belongs to
// the caller, element by element — a layer above may overwrite each call
// with one of its own, as Router.GoBatch's lone-request path does — and
// the group, carved in one allocation with
// that slice at every size up to a chunk's depth, still answers each
// request exactly once: a second consumption of a call fails. Waiters
// race for the run from as many goroutines as there are calls, over
// loopback TCP and over the in-process transport; under -race this also
// pins that the run never reads the caller's slice.
func TestGroupCallsAreTheCallers(t *testing.T) {
	objs := dataset.Uniform(200, dataset.World, 7)
	remotes := map[string]*Remote{"tcp": tcpRemote(t, tcpServed(t, objs)), "in-process": inProcRemote(t, netsim.Serve(server.New("G", objs)))}
	for name, r := range remotes {
		for _, n := range []int{1, 4, 5, netsim.PipelineDepth, netsim.PipelineDepth + 1} {
			want := make([]int, n)
			reqs := make([][]byte, n)
			for i := range reqs {
				w := objs[i].MBR.Expand(800)
				for _, o := range objs {
					if o.MBR.Intersects(w) {
						want[i]++
					}
				}
				reqs[i] = wire.AppendCount(bufpool.Get(), w)
			}
			calls := r.GoBatch(context.Background(), reqs)
			inner := append([]*Call(nil), calls...)
			for i, in := range inner {
				calls[i] = NewLazyCall("wrapper", frameOf{in})
			}
			var wg sync.WaitGroup
			for i := n - 1; i >= 0; i-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := calls[i].Count(); err != nil || got != want[i] {
						t.Errorf("%s, group of %d: call %d answered (%d, %v), want %d", name, n, i, got, err, want[i])
					}
				}()
			}
			wg.Wait()
			for i, c := range inner {
				if _, err := c.Count(); err == nil || !strings.Contains(err.Error(), "call already consumed") {
					t.Errorf("%s, group of %d: call %d consumed twice: %v", name, n, i, err)
				}
			}
		}
	}
}

// TestGroupLandsEveryRequestThroughFaults pins the retry guarantee on
// the path every unbatched group takes. Over Faulty no run of faults is
// longer than MaxConsecutive, so MaxAttempts = MaxConsecutive + 1 lands a
// lone Do — and it must land every request of a group too, though a
// chunk stops at its first fault and leaves its tail unanswered: only the
// frame that met the fault has spent an attempt. The meter conserves on
// every seed: each uplink frame is a request's first transmission or one
// of Retries().
func TestGroupLandsEveryRequestThroughFaults(t *testing.T) {
	objs := dataset.Uniform(200, dataset.World, 5)
	w := dataset.Bounds(objs).Expand(1)
	tr := netsim.Serve(server.New("G", objs))
	defer tr.Close()
	const seeds, n, maxRun = 200, 32, 3
	var failed, faults, queries, retries int64
	for seed := int64(1); seed <= seeds; seed++ {
		ft := netsim.NewFaulty(tr, netsim.FaultConfig{Seed: seed, DropProb: 0.3, SeverProb: 0.2, MaxConsecutive: maxRun})
		r, err := NewRemote("G", ft, netsim.DefaultLink(), 1, WithRetry(RetryPolicy{MaxAttempts: maxRun + 1}))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.GoBatch(context.Background(), countReqs(n, w)) {
			if got, err := c.Count(); err != nil || got != len(objs) {
				failed++
			}
		}
		u := r.Usage()
		if int64(u.Queries) != n+r.Retries() {
			t.Errorf("seed %d: %d queries metered, want %d requests + %d retries", seed, u.Queries, n, r.Retries())
		}
		st := ft.Stats()
		faults += int64(st.Drops + st.Severs)
		queries += int64(u.Queries)
		retries += r.Retries()
	}
	t.Logf("%d seeds × %d requests: %d faults injected, %d retries, %d queries", seeds, n, faults, retries, queries)
	if failed > 0 {
		t.Errorf("%d of %d requests failed with MaxAttempts = MaxConsecutive + 1", failed, seeds*n)
	}
	if faults == 0 {
		t.Fatal("vacuous: no fault was injected")
	}
}
