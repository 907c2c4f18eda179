package netsim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// TestNonBlockingHandlerServedInline checks that the in-process
// transport starts no goroutine, whatever the worker count, that it
// calls HandleAppend alone, and that it is no Sender: the round trip
// runs at receive.
func TestNonBlockingHandlerServedInline(t *testing.T) {
	base := runtime.NumGoroutine()
	h := &appendEcho{}
	tr := ServeParallel(h, 4)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("serving a handler started %d goroutines", n-base)
	}
	if _, ok := RoundTripper(tr).(Sender); ok {
		t.Fatal("the in-process transport is a Sender; nothing is taken at send")
	}
	m := mustMeter(t, DefaultLink(), 1)
	resp, err := NewMetered(tr, m).RoundTrip(context.Background(), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{2, 3, 4}) {
		t.Fatalf("resp = %v", resp)
	}
	bufpool.Put(resp)
	if h.appendCalls != 1 || h.handleCalls != 0 {
		t.Fatalf("append/handle calls = %d/%d, want 1/0", h.appendCalls, h.handleCalls)
	}
	if u := m.Usage(); u.Messages != 2 || u.WireBytes != 2*DefaultLink().TB(3) {
		t.Fatalf("usage = %+v, want one 3-byte frame each way", u)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left after Close", n-base)
	}
}

// TestNonBlockingRoundTripRefusesClosedAndCanceled checks the inline
// round trip's two refusals: ErrClosed after Close and the context's
// error under a done context, neither calling the handler.
func TestNonBlockingRoundTripRefusesClosedAndCanceled(t *testing.T) {
	h := &appendEcho{}
	tr := Serve(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.RoundTrip(ctx, []byte{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := tr.RoundTrip(dctx, []byte{1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired: err = %v, want context.DeadlineExceeded", err)
	}
	tr.Close()
	if _, err := tr.RoundTrip(context.Background(), []byte{1}); err != ErrClosed {
		t.Fatalf("closed: err = %v, want ErrClosed", err)
	}
	if h.appendCalls != 0 || h.handleCalls != 0 {
		t.Fatalf("handler called %d times on refused round trips", h.appendCalls+h.handleCalls)
	}
}

// TestNonBlockingConcurrentRoundTrips serves one stateless handler to
// many goroutines at once over a metered link: every caller runs the
// handler itself and gets its own reply, and the meter counts every
// frame.
func TestNonBlockingConcurrentRoundTrips(t *testing.T) {
	tr := Serve(mirrorHandler{})
	defer tr.Close()
	m := mustMeter(t, DefaultLink(), 1)
	c := NewMetered(tr, m)
	const callers, trips = 16, 50
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < trips; i++ {
				req := frameFor(g*trips + i)
				resp, err := c.RoundTrip(context.Background(), req)
				if err != nil || !bytes.Equal(resp, req) {
					t.Errorf("caller %d trip %d: response %x, %v for request %x", g, i, resp, err, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if u := m.Usage(); u.Messages != 2*callers*trips {
		t.Fatalf("metered %d frames, want %d", u.Messages, 2*callers*trips)
	}
}
