package client

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// This file pins the batcher-sharing bugfix sweep: the detached dispatch
// context (one caller's cancellation must not poison its batch-mates),
// frame recycling on round-trip failure, and the bounded dispatch
// goroutine spawn.

// gateRT parks every round trip until the gate opens, honoring the
// caller's context while parked. It lets a test hold an envelope in
// flight at a precise point.
type gateRT struct {
	inner netsim.RoundTripper
	gate  chan struct{}
}

func (g *gateRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.RoundTrip(ctx, req)
}

func (g *gateRT) Close() error { return g.inner.Close() }

// failRT fails every round trip to completion: the query just didn't get
// an answer.
type failRT struct{}

func (failRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	return nil, errors.New("link down")
}

func (failRT) Close() error { return nil }

// TestBatchCancelledCallerDoesNotPoisonBatchMates is the regression test
// for the shared-context dispatch bug: the envelope's round trip used to
// run under batch[0].ctx, so cancelling the first submitter killed every
// batch-mate's call with it. Post-fix the trip is detached — cancelled
// only when ALL batched contexts are done — the cancelled caller returns
// promptly with its own context error, and the mate completes normally.
func TestBatchCancelledCallerDoesNotPoisonBatchMates(t *testing.T) {
	objs := dataset.Uniform(40, dataset.World, 11)
	gate := &gateRT{inner: netsim.Serve(server.New("B", objs)), gate: make(chan struct{})}
	r, err := NewRemote("B", gate, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.Bounds(objs).Expand(1)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	c1 := r.GoBatch(ctx1, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
	// The second submission fills the batch: the envelope dispatches and
	// parks on the gate with both calls aboard.
	c2 := r.GoBatch(context.Background(), [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]

	// Cancel the first caller while the envelope is still in flight. Its
	// call must settle promptly with the caller's own context error even
	// though the shared trip is parked.
	errc := make(chan error, 1)
	go func() {
		_, err := c1.Count()
		errc <- err
	}()
	cancel1()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller still blocked on the shared envelope")
	}

	// Open the gate: the batch-mate's half of the envelope must complete
	// normally — pre-fix the trip had already died with ctx1.
	close(gate.gate)
	n, err := c2.Count()
	if err != nil {
		t.Fatalf("batch-mate poisoned by sibling cancellation: %v", err)
	}
	if n != 40 {
		t.Fatalf("batch-mate count = %d, want 40", n)
	}
}

// TestBatchAllCancelledAbandonsEnvelope: the detachment has a far edge —
// once EVERY batched context is done, nobody wants the replies, and the
// derived trip context must cancel so the transport is released.
func TestBatchAllCancelledAbandonsEnvelope(t *testing.T) {
	objs := dataset.Uniform(10, dataset.World, 12)
	gate := &gateRT{inner: netsim.Serve(server.New("B", objs)), gate: make(chan struct{})}
	defer close(gate.gate)
	r, err := NewRemote("B", gate, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.Bounds(objs).Expand(1)

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	c1 := r.GoBatch(ctx1, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
	c2 := r.GoBatch(ctx2, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
	cancel1()
	cancel2()
	for i, c := range []*Call{c1, c2} {
		if _, err := c.Count(); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
		}
	}
	// With all callers gone the trip context cancels and the parked
	// round trip returns; the dispatch goroutine must not linger on the
	// gate forever. Settle detection: the window slot frees.
	waitFor(t, "the abandoned envelope's dispatch to return", func() bool { return len(r.b.sem) == 0 })
}

// TestRoundTripFailureRecyclesFrames pins the frame-recycling fix: a
// round trip that fails with every attempt run to completion must return
// the encoded envelope — and, via the dispatch path, the per-call request
// frames — to the pool. Pre-fix the failure path leaked the request
// buffer on every error, which this allocation bound catches (each leaked
// pooled buffer costs a fresh allocation on the next run).
func TestRoundTripFailureRecyclesFrames(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are meaningless under -race")
	}
	r, err := NewRemote("F", failRT{}, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.World

	run := func() {
		for round := 0; round < 10; round++ {
			reqs := make([][]byte, 4)
			for i := range reqs {
				reqs[i] = wire.AppendCount(bufpool.Get(), w)
			}
			calls := r.GoBatch(context.Background(), reqs)
			for _, c := range calls {
				if _, err := c.Count(); err == nil {
					t.Fatal("round trip unexpectedly succeeded")
				}
			}
		}
	}
	run() // warm the pool and the batcher
	avg := testing.AllocsPerRun(50, run)
	// A run (10 failed envelopes) allocates call futures, channels, and
	// error wrappers — but no frame buffers: the forty request frames and
	// the ten envelopes all come from (and return to) the warm pool.
	// Leaking the envelope on the failure path — the pre-fix bug — adds
	// ten allocations per run; the observed steady state is ~190.
	t.Logf("allocs/run = %.1f", avg)
	if avg > 196 {
		t.Errorf("allocs/run = %.1f, want ≤ 196 (frame buffers leaking on the failure path?)", avg)
	}
}

// TestTypedAdaptorAddsNoAllocs measures the interface hop the shared
// typed adaptor adds on a bare Remote: a typed Count (Typed.Count → Doer
// → Remote.Do → decode) must allocate no more than the same request
// hand-rolled against Do.
func TestTypedAdaptorAddsNoAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are meaningless under -race")
	}
	objs := dataset.Uniform(200, dataset.World, 17)
	r, err := NewRemote("A", netsim.Serve(server.New("A", objs)), netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, w := context.Background(), dataset.World
	raw := func() {
		resp, err := r.Do(ctx, wire.AppendCount(bufpool.Get(), w))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := wire.DecodeCountReply(resp); err != nil || n != int64(len(objs)) {
			t.Fatalf("count = %d, %v", n, err)
		}
		bufpool.Put(resp)
	}
	typed := func() {
		if n, err := r.Count(ctx, w); err != nil || n != len(objs) {
			t.Fatalf("count = %d, %v", n, err)
		}
	}
	raw() // warm the pool
	typed()
	base, got := testing.AllocsPerRun(200, raw), testing.AllocsPerRun(200, typed)
	t.Logf("allocs/op: raw Do %.1f, typed %.1f", base, got)
	if got > base {
		t.Errorf("typed Count allocates %.1f/op, raw Do %.1f/op: the adaptor must add none", got, base)
	}
}

// peakRT records the most round trips ever in flight at once.
type peakRT struct {
	netsim.RoundTripper
	cur, peak atomic.Int64
}

func (p *peakRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	n := p.cur.Add(1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	defer p.cur.Add(-1)
	return p.RoundTripper.RoundTrip(ctx, req)
}

// TestBatchDispatchBounded pins the window. Size-triggered cuts used to
// launch one goroutine each with no limit, so a burst of submissions
// against a slow link stacked goroutines without bound. Now at most
// inflightWindow envelopes are in flight on a link at once, whatever cut
// them — the size trigger on a spawned dispatcher or a waiter on its own
// stack — the excess stays queued, and everything drains without
// deadlock.
func TestBatchDispatchBounded(t *testing.T) {
	objs := dataset.Uniform(25, dataset.World, 13)
	const submitters = 8
	gate := &gateRT{inner: netsim.Serve(server.New("B", objs)), gate: make(chan struct{})}
	link := &peakRT{RoundTripper: gate}
	r, err := NewRemote("B", link, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.Bounds(objs).Expand(1)

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var submitted, answered atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Even submitters hand in one full cut, odd ones a lone probe
			// only its waiter can send.
			reqs := [][]byte{wire.AppendCount(bufpool.Get(), w)}
			if i%2 == 0 {
				reqs = append(reqs, wire.AppendCount(bufpool.Get(), w))
			}
			calls := r.GoBatch(context.Background(), reqs)
			submitted.Add(1)
			for _, c := range calls {
				if n, err := c.Count(); err != nil || n != 25 {
					t.Errorf("count %d, %v", n, err)
				}
				answered.Add(1)
			}
		}()
	}

	// While the gate is closed, the goroutine population must stay
	// bounded: the submitters themselves plus at most inflightWindow parked
	// dispatches (plus watcher slack) — NOT one goroutine per cut.
	waitFor(t, "the window to fill behind the gate", func() bool {
		return submitted.Load() == submitters && link.cur.Load() == inflightWindow
	})
	if n := runtime.NumGoroutine(); n > base+submitters+inflightWindow+4 {
		t.Errorf("goroutines while gated = %d (base %d), want ≤ base+%d",
			n, base, submitters+inflightWindow+4)
	}

	close(gate.gate)
	wg.Wait()
	if got, want := answered.Load(), int64(submitters+submitters/2); got != want {
		t.Fatalf("collected %d calls, want %d", got, want)
	}
	if peak := link.peak.Load(); peak > inflightWindow {
		t.Errorf("%d envelopes were in flight at once, window is %d", peak, inflightWindow)
	}

	// Leak check: once drained, the population returns to the baseline.
	waitFor(t, "the dispatchers to exit", func() bool { return runtime.NumGoroutine() <= base })
}
