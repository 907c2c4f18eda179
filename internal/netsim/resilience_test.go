package netsim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPPoolSurvivesServerRestart is the pool-health guarantee:
// concurrent round trips while the server is killed and restarted on the
// same address must observe errors only transiently — the pool evicts
// broken connections and re-dials — and no pooled frame may be recycled
// twice (the race detector and bufpool aliasing guards patrol that).
func TestTCPPoolSurvivesServerRestart(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr, err := DialTCPPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const workers = 8
	var (
		wg        sync.WaitGroup
		successes atomic.Int64
		failures  atomic.Int64
		stop      atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				resp, err := tr.RoundTrip(context.Background(), []byte("ping"))
				if err != nil {
					failures.Add(1)
					time.Sleep(time.Millisecond)
					continue
				}
				if string(resp) != "echo:ping" {
					t.Errorf("worker %d: corrupted frame %q after restart", w, resp)
					stop.Store(true)
					return
				}
				successes.Add(1)
			}
		}(w)
	}

	// Let traffic flow, kill the server mid-flight, restart it on the
	// same address (retrying the bind briefly), repeat.
	for round := 0; round < 3; round++ {
		time.Sleep(20 * time.Millisecond)
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		time.Sleep(10 * time.Millisecond) // in-flight trips fail here
		var rerr error
		for attempt := 0; attempt < 100; attempt++ {
			srv, rerr = ListenAndServe(addr, echoHandler{})
			if rerr == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if rerr != nil {
			t.Fatalf("round %d: could not rebind %s: %v", round, addr, rerr)
		}
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	defer srv.Close()

	if successes.Load() == 0 {
		t.Fatal("no round trip ever succeeded")
	}
	if failures.Load() == 0 {
		t.Fatal("vacuous restart test: no round trip ever failed")
	}
	// The pool must recover after the final restart: stale pooled
	// connections are evicted one failed attempt at a time (a real
	// client's RetryPolicy makes these attempts), after which a fresh
	// dial succeeds.
	recovered := false
	for attempt := 0; attempt < 16 && !recovered; attempt++ {
		_, err := tr.RoundTrip(context.Background(), []byte("again"))
		recovered = err == nil
	}
	if !recovered {
		t.Fatal("pool did not recover after restarts")
	}
}

// TestTCPShutdownDrainsInFlight submits a slow request, shuts the server
// down mid-service, and requires the response to be delivered before the
// connection closes.
func TestTCPShutdownDrainsInFlight(t *testing.T) {
	h := mirrorHandler{delay: 50 * time.Millisecond}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	resp := make(chan error, 1)
	go func() {
		r, err := tr.RoundTrip(context.Background(), frameFor(7))
		if err == nil && len(r) == 0 {
			err = errors.New("empty response")
		}
		resp <- err
	}()
	time.Sleep(10 * time.Millisecond) // request is now in service
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-resp:
		if err != nil {
			t.Fatalf("in-flight request lost during drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("drained response never arrived")
	}
	// After the drain the server is gone: new round trips must fail.
	if _, err := tr.RoundTrip(context.Background(), frameFor(8)); err == nil {
		t.Fatal("round trip succeeded against a drained server")
	}
}

// TestTCPShutdownTimeoutForcesClose bounds the drain: a handler stuck
// longer than the context's deadline is cut off.
func TestTCPShutdownTimeoutForcesClose(t *testing.T) {
	h := mirrorHandler{delay: time.Second}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	go tr.RoundTrip(context.Background(), frameFor(1)) //nolint:errcheck // the drain cuts it
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("bounded shutdown took %v", elapsed)
	}
}

// TestTCPShutdownIdle drains a server with idle connections immediately.
func TestTCPShutdownIdle(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.RoundTrip(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle drain took %v", elapsed)
	}
	// Shutdown after shutdown is a calm no-op.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestTCPRoundTripHonorsCancellation interrupts a round trip against a
// slow handler mid-read.
func TestTCPRoundTripHonorsCancellation(t *testing.T) {
	h := mirrorHandler{delay: time.Second}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tr.RoundTrip(ctx, frameFor(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The abandoned connection must not poison the pool: once the slow
	// server answers are irrelevant, a fresh round trip re-dials.
	srv2, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	tr2, err := DialTCP(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if _, err := tr2.RoundTrip(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestTCPRoundTripHonorsDeadline applies a context deadline to the
// socket reads of a round trip.
func TestTCPRoundTripHonorsDeadline(t *testing.T) {
	h := mirrorHandler{delay: time.Second}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := tr.RoundTrip(ctx, frameFor(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestSwitchHangHonorsCancellation: a round trip over a hung Switch
// blocks until its context ends, then returns context.Canceled promptly;
// one blocked until Revive is answered by the server.
func TestSwitchHangHonorsCancellation(t *testing.T) {
	sw := NewSwitch(Serve(echoHandler{}))
	defer sw.Close()
	sw.Hang()
	hung := func(ctx context.Context) <-chan error {
		errc := make(chan error, 1)
		go func() {
			resp, err := sw.RoundTrip(ctx, []byte("x"))
			if err == nil && string(resp) != "echo:x" {
				err = fmt.Errorf("resp = %q", resp)
			}
			errc <- err
		}()
		select {
		case err := <-errc:
			t.Fatalf("round trip over a hung Switch returned %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		return errc
	}
	wait := func(errc <-chan error) error {
		select {
		case err := <-errc:
			return err
		case <-time.After(time.Second):
			t.Fatal("round trip still blocked a second later")
			return nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := hung(ctx)
	cancel()
	if err := wait(errc); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v, want context.Canceled", err)
	}
	errc = hung(context.Background())
	sw.Revive()
	if err := wait(errc); err != nil {
		t.Fatalf("revived: %v", err)
	}
}

// TestFaultyInjectsDeterministically pins the seeded fault schedule and
// the MaxConsecutive progress guarantee.
func TestFaultyInjectsDeterministically(t *testing.T) {
	run := func() ([]error, FaultStats) {
		inner := Serve(echoHandler{})
		defer inner.Close()
		f := NewFaulty(inner, FaultConfig{Seed: 5, DropProb: 0.3, SeverProb: 0.2, MaxConsecutive: 2})
		var errs []error
		for i := 0; i < 200; i++ {
			_, err := f.RoundTrip(context.Background(), []byte("q"))
			errs = append(errs, err)
		}
		return errs, f.Stats()
	}
	errsA, statsA := run()
	errsB, statsB := run()
	if statsA != statsB {
		t.Fatalf("same seed, different schedules: %+v vs %+v", statsA, statsB)
	}
	if statsA.Drops == 0 || statsA.Severs == 0 {
		t.Fatalf("fault mix not exercised: %+v", statsA)
	}
	consecutive := 0
	for i, err := range errsA {
		if !errors.Is(err, errsB[i]) && !(err == nil && errsB[i] == nil) {
			t.Fatalf("schedule diverged at %d: %v vs %v", i, err, errsB[i])
		}
		if err != nil {
			consecutive++
			if consecutive > 2 {
				t.Fatalf("%d consecutive faults despite MaxConsecutive=2", consecutive)
			}
		} else {
			consecutive = 0
		}
	}
}

// TestFaultySeverReturnsAfterServerWork verifies sever semantics: the
// handler runs (the response existed) but the caller sees an error.
func TestFaultySeverReturnsAfterServerWork(t *testing.T) {
	var served atomic.Int64
	inner := Serve(HandlerFunc(func(req []byte) []byte {
		served.Add(1)
		return append([]byte(nil), req...)
	}))
	defer inner.Close()
	f := NewFaulty(inner, FaultConfig{Seed: 1, SeverProb: 1, MaxConsecutive: 1 << 30})
	if _, err := f.RoundTrip(context.Background(), []byte("q")); !errors.Is(err, ErrInjectedSever) {
		t.Fatalf("err = %v, want ErrInjectedSever", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d; a severed response implies the server did the work", served.Load())
	}
	f2 := NewFaulty(inner, FaultConfig{Seed: 1, DropProb: 1, MaxConsecutive: 1 << 30})
	if _, err := f2.RoundTrip(context.Background(), []byte("q")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("err = %v, want ErrInjectedDrop", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d; a dropped request must never reach the server", served.Load())
	}
}
