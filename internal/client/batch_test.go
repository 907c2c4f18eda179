package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// waitFor yields until cond holds: the tests' way of reaching a state
// other goroutines are about to produce, without guessing a sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func newBatched(t *testing.T, objs []geom.Object, cfg BatchConfig) *Remote {
	t.Helper()
	tr := netsim.Serve(server.New("B", objs))
	r, err := NewRemote("B", tr, netsim.DefaultLink(), 1, WithBatch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestGoBatchSizeTriggerOneFrame: submitting exactly MaxBatch requests in
// one GoBatch yields exactly one wire frame carrying all of them.
func TestGoBatchSizeTriggerOneFrame(t *testing.T) {
	objs := dataset.Uniform(200, dataset.World, 3)
	r := newBatched(t, objs, BatchConfig{MaxBatch: 8})
	w := dataset.Bounds(objs).Expand(1)

	reqs := make([][]byte, 8)
	for i := range reqs {
		reqs[i] = wire.AppendCount(bufpool.Get(), w)
	}
	calls := r.GoBatch(context.Background(), reqs)
	for i, c := range calls {
		n, err := c.Count()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if n != 200 {
			t.Fatalf("call %d: count %d, want 200", i, n)
		}
	}
	u := r.Usage()
	if u.Messages != 2 { // one MsgBatch up, one MsgBatchReply down
		t.Errorf("messages = %d, want 2 (one envelope each way)", u.Messages)
	}
	if f := r.b.frames.Load(); f != 1 {
		t.Errorf("batch frames = %d, want 1", f)
	}
}

// TestGoBatchWaiterDispatchesPartial: a partial group stays queued until
// its submitter waits for it, then leaves as one envelope.
func TestGoBatchWaiterDispatchesPartial(t *testing.T) {
	objs := dataset.Uniform(50, dataset.World, 4)
	r := newBatched(t, objs, BatchConfig{MaxBatch: 16})
	w := dataset.Bounds(objs).Expand(1)

	reqs := [][]byte{
		wire.AppendCount(bufpool.Get(), w),
		wire.AppendWindow(bufpool.Get(), w),
		wire.AppendRange(bufpool.Get(), w.Center(), 100),
	}
	calls := r.GoBatch(context.Background(), reqs)
	if f := r.b.frames.Load(); f != 0 {
		t.Fatalf("%d frames left before anyone waited", f)
	}
	if n, err := calls[0].Count(); err != nil || n != 50 {
		t.Fatalf("count: %d, %v", n, err)
	}
	if objs, err := calls[1].Objects(); err != nil || len(objs) != 50 {
		t.Fatalf("window: %d objs, %v", len(objs), err)
	}
	if _, err := calls[2].Objects(); err != nil {
		t.Fatalf("range: %v", err)
	}
	if got := r.Usage().Messages; got != 2 {
		t.Errorf("messages = %d, want 2", got)
	}
}

// TestBatchWaiterSendsStraggler: a lone request far below the size
// trigger is sent by its waiter — as a bare frame, costing exactly what
// an unbatched request costs.
func TestBatchWaiterSendsStraggler(t *testing.T) {
	objs := dataset.Uniform(10, dataset.World, 5)
	r := newBatched(t, objs, BatchConfig{MaxBatch: 64})
	w := dataset.Bounds(objs).Expand(1)

	c := r.GoBatch(context.Background(), [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
	n, err := c.Count()
	if err != nil || n != 10 {
		t.Fatalf("count: %d, %v", n, err)
	}
	bare, err := NewRemote("B", netsim.Serve(server.New("B", objs)), netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Count(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Usage(), bare.Usage(); got != want {
		t.Errorf("straggler usage %+v, want the unbatched request's %+v", got, want)
	}
}

// TestBatchIdleProbeRunsOnWaiter: a lone batched COUNT on an idle link
// crosses the batcher on the stack of the goroutine that waits for it —
// no timer fires for it and no dispatcher is spawned.
func TestBatchIdleProbeRunsOnWaiter(t *testing.T) {
	objs := dataset.Uniform(10, dataset.World, 5)
	inner := netsim.Serve(server.New("B", objs))
	defer inner.Close()
	// The link notes whether the round trip ran below this test function —
	// on its goroutine, in other words — and how many goroutines existed.
	var onStack bool
	var during int
	link := rtFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		stack := make([]byte, 1<<16)
		onStack = bytes.Contains(stack[:runtime.Stack(stack, false)], []byte(t.Name()+"("))
		during = runtime.NumGoroutine()
		return inner.RoundTrip(ctx, req)
	})
	r, err := NewRemote("B", link, netsim.DefaultLink(), 1, WithBatch(BatchConfig{MaxBatch: 16}))
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	c := r.GoBatch(context.Background(), [][]byte{wire.AppendCount(bufpool.Get(), dataset.World)})[0]
	if n, err := c.Count(); err != nil || n != 10 {
		t.Fatalf("count: %d, %v", n, err)
	}
	if !onStack {
		t.Error("the round trip did not run on its waiter's stack")
	}
	if during > before { // fewer is fine: an earlier test's transport may still be winding down
		t.Errorf("%d goroutines during the round trip, %d before the probe: the batcher spawned something", during, before)
	}
}

// TestBatchPerSubRequestErrors pins the satellite fix: a server-side
// error for one sub-request surfaces on that Call only; batch-mates
// succeed. (Transport-level failures, by contrast, fail the whole batch.)
func TestBatchPerSubRequestErrors(t *testing.T) {
	objs := dataset.Uniform(30, dataset.World, 6)
	r := newBatched(t, objs, BatchConfig{MaxBatch: 3})
	w := dataset.Bounds(objs).Expand(1)

	reqs := [][]byte{
		wire.AppendCount(bufpool.Get(), w),
		wire.AppendMBRLevel(bufpool.Get(), 0), // refused: index not published
		wire.AppendCount(bufpool.Get(), w),
	}
	calls := r.GoBatch(context.Background(), reqs)
	if n, err := calls[0].Count(); err != nil || n != 30 {
		t.Fatalf("call 0: %d, %v", n, err)
	}
	_, err := calls[1].frame()
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("call 1: err = %v, want *wire.ServerError", err)
	}
	if n, err := calls[2].Count(); err != nil || n != 30 {
		t.Fatalf("call 2: %d, %v", n, err)
	}
}

// TestBatchConcurrentCallersDemux: probes that arrive while the link's
// window is full coalesce — N waiters queue N probes behind the window's
// held envelopes and, once the link moves again, leave in at most
// ⌈N/MaxBatch⌉ further frames — and each waiter gets its own answer back.
func TestBatchConcurrentCallersDemux(t *testing.T) {
	// One object per unit cell so every probe has a distinguishable count.
	var objs []geom.Object
	for i := 0; i < 64; i++ {
		for j := 0; j <= i%4; j++ { // cell i holds (i%4)+1 coincident points
			objs = append(objs, geom.PointObject(uint32(len(objs)), geom.Pt(float64(i)+0.5, 0.5)))
		}
	}
	const maxBatch, n = 8, 60
	gate := &gateRT{inner: netsim.Serve(server.New("B", objs)), gate: make(chan struct{})}
	r, err := NewRemote("B", gate, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: maxBatch}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	probe := func(i int) {
		defer wg.Done()
		w := geom.R(float64(i), 0, float64(i)+1, 1)
		c := r.GoBatch(context.Background(), [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
		if got, err := c.Count(); err != nil {
			errs <- err
		} else if want := i%4 + 1; got != want {
			errs <- fmt.Errorf("probe %d: count %d, want %d", i, got, want)
		}
	}
	// Fill the window: each of these waiters sends its lone probe at once,
	// and the gate holds the frame in flight.
	wg.Add(inflightWindow)
	for i := 0; i < inflightWindow; i++ {
		go probe(i)
		waitFor(t, "the window to fill", func() bool { return r.b.frames.Load() == int64(i+1) })
	}
	// N more waiters find the window full; all they can do is queue.
	wg.Add(n)
	for i := 0; i < n; i++ {
		go probe(inflightWindow + i)
	}
	waitFor(t, "every waiter to park behind the window", func() bool {
		r.b.mu.Lock()
		defer r.b.mu.Unlock()
		return r.b.npend == n && r.b.parked == n
	})
	close(gate.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if extra, most := r.b.frames.Load()-inflightWindow, int64((n+maxBatch-1)/maxBatch); extra > most {
		t.Errorf("%d probes queued behind a full window left in %d frames, want ≤ %d", n, extra, most)
	}
}

// TestBatchTransportFaultRetriesWholeEnvelope: a dropped envelope is
// re-issued as a unit by the retry policy and every call still completes.
func TestBatchTransportFaultRetriesWholeEnvelope(t *testing.T) {
	objs := dataset.Uniform(40, dataset.World, 8)
	tr := netsim.NewFaulty(netsim.Serve(server.New("B", objs)), netsim.FaultConfig{
		Seed: 9, DropProb: 0.5, MaxConsecutive: 3,
	})
	r, err := NewRemote("B", tr, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 10, Backoff: 10 * time.Microsecond}),
		WithBatch(BatchConfig{MaxBatch: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.Bounds(objs).Expand(1)
	reqs := make([][]byte, 4)
	for i := range reqs {
		reqs[i] = wire.AppendCount(bufpool.Get(), w)
	}
	for i, c := range r.GoBatch(context.Background(), reqs) {
		if n, err := c.Count(); err != nil || n != 40 {
			t.Fatalf("call %d: %d, %v", i, n, err)
		}
	}
	if r.Retries() == 0 {
		t.Log("no faults injected this run (seed-dependent); retry path not exercised")
	}
}

// TestGoBatchWithoutBatcher: a remote without WithBatch still serves
// GoBatch — each request as its own bare frame, in submission order, sent
// by whoever first waits on one of the calls (see group_test.go for the
// pipelined crossing of a real connection).
func TestGoBatchWithoutBatcher(t *testing.T) {
	objs := dataset.Uniform(20, dataset.World, 11)
	tr := netsim.Serve(server.New("B", objs))
	r, err := NewRemote("B", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.b != nil {
		t.Fatal("batching should be disabled by default")
	}
	w := dataset.Bounds(objs).Expand(1)
	reqs := [][]byte{wire.AppendCount(bufpool.Get(), w), wire.AppendCount(bufpool.Get(), w)}
	for _, c := range r.GoBatch(context.Background(), reqs) {
		if n, err := c.Count(); err != nil || n != 20 {
			t.Fatalf("count: %d, %v", n, err)
		}
	}
	if got := r.Usage().Messages; got != 4 {
		t.Errorf("messages = %d, want 4 (two bare round trips)", got)
	}
}
