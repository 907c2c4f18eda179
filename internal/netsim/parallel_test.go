package netsim

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// mirrorHandler returns the request frame unchanged (after an optional
// artificial service time).
type mirrorHandler struct{ delay time.Duration }

func (h mirrorHandler) Handle(req []byte) []byte {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	out := make([]byte, len(req))
	copy(out, req)
	return out
}

// frameFor builds a distinguishable frame for request i.
func frameFor(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// TestChannelTransportConcurrentRoundTrips hammers a channel transport
// from many goroutines and checks every caller gets its own response
// back.
func TestChannelTransportConcurrentRoundTrips(t *testing.T) {
	tr := Serve(mirrorHandler{})
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := frameFor(i)
			resp, err := tr.RoundTrip(context.Background(), req)
			if err != nil || !bytes.Equal(resp, req) {
				t.Errorf("response %x, %v for request %x", resp, err, req)
			}
		}(i)
	}
	wg.Wait()
}

// TestChannelTransportParallelServiceOverlaps shows concurrent callers
// are served concurrently: 8 requests of 10ms each finish far sooner
// than 80ms, each caller running the handler on its own goroutine.
func TestChannelTransportParallelServiceOverlaps(t *testing.T) {
	const d = 10 * time.Millisecond
	tr := Serve(mirrorHandler{delay: d})
	defer tr.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := tr.RoundTrip(context.Background(), frameFor(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 6*d {
		t.Fatalf("8 overlapping 10ms requests took %v; callers are not served concurrently", elapsed)
	}
}

// TestTCPTransportConcurrentRoundTrips exercises the TCP connection pool
// under concurrent callers, including a pool smaller than the caller
// count (forcing waits for free connections).
func TestTCPTransportConcurrentRoundTrips(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", mirrorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, maxConns := range []int{1, 2, 8} {
		tr, err := DialTCPPool(srv.Addr(), maxConns)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := frameFor(i)
				resp, err := tr.RoundTrip(context.Background(), req)
				if err != nil {
					t.Errorf("maxConns=%d: %v", maxConns, err)
					return
				}
				if !bytes.Equal(resp, req) {
					t.Errorf("maxConns=%d: response %x for request %x", maxConns, resp, req)
				}
			}(i)
		}
		wg.Wait()
		tr.Close()
	}
}

// TestTCPTransportClosedReturnsErrClosed pins the error after Close.
func TestTCPTransportClosedReturnsErrClosed(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", mirrorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(context.Background(), frameFor(1)); err != ErrClosed {
		t.Fatalf("round trip after close: %v, want ErrClosed", err)
	}
}

// TestMeterConcurrentCharges checks the lock-free meter sums exactly
// under concurrent charging from both directions.
func TestMeterConcurrentChargesBothDirections(t *testing.T) {
	m := mustMeter(t, DefaultLink(), 2)
	const (
		goroutines = 8
		perG       = 500
		payload    = 100
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dir := Up
			if g%2 == 1 {
				dir = Down
			}
			for i := 0; i < perG; i++ {
				m.Charge(context.Background(), payload, dir)
			}
		}(g)
	}
	wg.Wait()
	u := m.Usage()
	frames := goroutines * perG
	if u.Messages != frames {
		t.Fatalf("messages %d, want %d", u.Messages, frames)
	}
	if u.PayloadBytes != frames*payload {
		t.Fatalf("payload %d, want %d", u.PayloadBytes, frames*payload)
	}
	wantWire := frames * DefaultLink().TB(payload)
	if u.WireBytes != wantWire {
		t.Fatalf("wire %d, want %d", u.WireBytes, wantWire)
	}
	if u.UpWireBytes+u.DownWireBytes != u.WireBytes {
		t.Fatal("direction split does not sum to total")
	}
	if u.Queries != frames/2 {
		t.Fatalf("queries %d, want %d", u.Queries, frames/2)
	}
}

// TestLinkRTTSimulatedLatency checks the optional RTT is paid per round
// trip on a metered connection and never affects byte accounting.
func TestLinkRTTSimulatedLatency(t *testing.T) {
	link := DefaultLink()
	link.RTT = 5 * time.Millisecond
	tr := Serve(mirrorHandler{})
	defer tr.Close()
	m := mustMeter(t, link, 1)
	c := NewMetered(tr, m)
	start := time.Now()
	const trips = 4
	for i := 0; i < trips; i++ {
		if _, err := c.RoundTrip(context.Background(), frameFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < trips*link.RTT {
		t.Fatalf("%d round trips took %v, want >= %v", trips, elapsed, trips*link.RTT)
	}

	m0 := mustMeter(t, DefaultLink(), 1) // same link, no RTT
	tr2 := Serve(mirrorHandler{})
	defer tr2.Close()
	c2 := NewMetered(tr2, m0)
	for i := 0; i < trips; i++ {
		if _, err := c2.RoundTrip(context.Background(), frameFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Usage() != m0.Usage() {
		t.Fatalf("RTT changed accounting: %+v vs %+v", m.Usage(), m0.Usage())
	}
}

// TestLinkConfigValidateRTT pins RTT validation.
func TestLinkConfigValidateRTT(t *testing.T) {
	lc := DefaultLink()
	lc.RTT = -time.Second
	if err := lc.Validate(); err == nil {
		t.Fatal("negative RTT should be invalid")
	}
}
