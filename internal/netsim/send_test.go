package netsim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits until no more than base goroutines run, failing
// the test after a second.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a flight left one behind", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMeteredSendsOverlap: three sends and then three receives over a
// 10 ms link pay the RTT once, not three times, whether the transport
// sends at once (an idle connection) or leaves the round trip to the
// receive (in-process) — and they charge, column by column, exactly what
// three round trips charge.
func TestMeteredSendsOverlap(t *testing.T) {
	const rtt = 10 * time.Millisecond
	link := DefaultLink()
	link.RTT = rtt
	srv, err := ListenAndServe("127.0.0.1:0", mirrorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	transports := map[string]func() RoundTripper{
		"channel": func() RoundTripper { return Serve(mirrorHandler{}) },
		"tcp": func() RoundTripper {
			tr, err := DialTCPPool(srv.Addr(), 4)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
	ctx := WithHedged(WithTenant(context.Background(), "a"))
	for name, open := range transports {
		t.Run(name, func(t *testing.T) {
			trips, flights := mustMeter(t, link, 1), mustMeter(t, link, 1)
			trips.EnableTenants()
			flights.EnableTenants()
			rt, st := NewMetered(open(), trips), NewMetered(open(), flights)
			defer rt.Close()
			defer st.Close()
			for i := 0; i < 3; i++ {
				if _, err := rt.RoundTrip(ctx, frameFor(i)); err != nil {
					t.Fatal(err)
				}
			}
			start := time.Now()
			var sent [3]Flight
			for i := range sent {
				sent[i] = st.Send(ctx, frameFor(i))
			}
			for i := range sent {
				resp, err := sent[i].Recv()
				if err != nil || !bytes.Equal(resp, frameFor(i)) {
					t.Fatalf("flight %d answered %v, %v", i, resp, err)
				}
			}
			if took := time.Since(start); took >= 2*rtt {
				t.Errorf("three flights took %v over a %v link: their RTTs did not overlap", took, rtt)
			}
			if got, want := flights.Usage(), trips.Usage(); got != want {
				t.Errorf("flights charged %+v, round trips %+v", got, want)
			}
			if got, want := flights.TenantUsage("a"), trips.TenantUsage("a"); got != want {
				t.Errorf("flights charged tenant a %+v, round trips %+v", got, want)
			}
		})
	}
}

// TestMeteredRecvAbandoned: a flight received under a context that ended
// returns the context's error at once, and leaves no goroutine behind.
func TestMeteredRecvAbandoned(t *testing.T) {
	t.Run("reply in", func(t *testing.T) {
		link := DefaultLink()
		link.RTT = 10 * time.Millisecond
		tr := Serve(mirrorHandler{})
		defer tr.Close()
		m := NewMetered(tr, mustMeter(t, link, 1))
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		f := m.Send(ctx, frameFor(1))
		cancel()
		if _, err := f.Recv(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Recv = %v, want context.Canceled", err)
		}
		settleGoroutines(t, base)
	})
}

// TestTCPSendsLeaveARoundTripAConnection: a send never takes a pool's last
// free connection, so a caller holding unreceived flights can always make
// a round trip — here, receive them in either order — even over one
// connection.
func TestTCPSendsLeaveARoundTripAConnection(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", mirrorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, conns := range []int{1, 2} {
		for _, reverse := range []bool{false, true} {
			tr, err := DialTCPPool(srv.Addr(), conns)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMetered(tr, mustMeter(t, DefaultLink(), 1))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			flights := []Flight{m.Send(ctx, frameFor(0)), m.Send(ctx, frameFor(1))}
			order := []int{0, 1}
			if reverse {
				order = []int{1, 0}
			}
			for _, i := range order {
				resp, err := flights[i].Recv()
				if err != nil || !bytes.Equal(resp, frameFor(i)) {
					t.Fatalf("%d connections, order %v: flight %d answered %v, %v", conns, order, i, resp, err)
				}
			}
			cancel()
			tr.Close()
		}
	}
}
