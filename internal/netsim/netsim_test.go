package netsim

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"testing/quick"
)

// mustMeter builds a Meter or fails the test — for links known valid.
func mustMeter(t testing.TB, link LinkConfig, price float64) *Meter {
	t.Helper()
	m, err := NewMeter(link, price)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeterRejectsInvalidLink(t *testing.T) {
	if _, err := NewMeter(LinkConfig{MTU: 40, HeaderBytes: 40}, 1); err == nil {
		t.Fatal("invalid link must be rejected at the configuration boundary")
	}
	if _, err := NewMeter(LinkConfig{MTU: 1500, HeaderBytes: 40, RTT: -1}, 1); err == nil {
		t.Fatal("negative RTT must be rejected")
	}
}

func TestTBMatchesPaperEquation(t *testing.T) {
	link := DefaultLink() // MTU 1500, BH 40 → 1460 payload bytes per packet
	cases := []struct {
		payload, wantPackets, wantTB int
	}{
		{0, 1, 40},         // empty query still needs a packet
		{1, 1, 41},         // one byte
		{1460, 1, 1500},    // exactly one full packet
		{1461, 2, 1541},    // spills into a second packet
		{2920, 2, 3000},    // exactly two packets
		{14600, 10, 15000}, // ten packets
	}
	for _, c := range cases {
		if got := link.Packets(c.payload); got != c.wantPackets {
			t.Errorf("Packets(%d) = %d, want %d", c.payload, got, c.wantPackets)
		}
		if got := link.TB(c.payload); got != c.wantTB {
			t.Errorf("TB(%d) = %d, want %d", c.payload, got, c.wantTB)
		}
	}
}

func TestTBDialup(t *testing.T) {
	link := DialupLink() // MTU 576 → 536 payload bytes per packet
	if got := link.TB(536); got != 576 {
		t.Errorf("TB(536) = %d, want 576", got)
	}
	if got := link.TB(537); got != 537+80 {
		t.Errorf("TB(537) = %d, want %d", got, 537+80)
	}
}

func TestLinkValidate(t *testing.T) {
	if err := DefaultLink().Validate(); err != nil {
		t.Fatalf("default link invalid: %v", err)
	}
	if err := (LinkConfig{MTU: 40, HeaderBytes: 40}).Validate(); err == nil {
		t.Fatal("MTU == header should be invalid")
	}
	if err := (LinkConfig{MTU: 100, HeaderBytes: -1}).Validate(); err == nil {
		t.Fatal("negative header should be invalid")
	}
}

func TestQuickTBMonotoneAndSuperlinear(t *testing.T) {
	link := DefaultLink()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		// Monotone in payload, and TB(x) >= x + BH.
		return link.TB(x) <= link.TB(y) && link.TB(x) >= x+link.HeaderBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestMeterAccumulates(t *testing.T) {
	m := mustMeter(t, DefaultLink(), 2.0)
	m.Charge(10, Up)
	m.Charge(3000, Down)
	u := m.Usage()
	if u.Messages != 2 {
		t.Errorf("Messages = %d, want 2", u.Messages)
	}
	if u.PayloadBytes != 3010 {
		t.Errorf("PayloadBytes = %d, want 3010", u.PayloadBytes)
	}
	wantWire := DefaultLink().TB(10) + DefaultLink().TB(3000)
	if u.WireBytes != wantWire {
		t.Errorf("WireBytes = %d, want %d", u.WireBytes, wantWire)
	}
	if u.Queries != 1 {
		t.Errorf("Queries = %d, want 1", u.Queries)
	}
	if u.UpWireBytes != DefaultLink().TB(10) {
		t.Errorf("UpWireBytes = %d", u.UpWireBytes)
	}
	if u.DownWireBytes != DefaultLink().TB(3000) {
		t.Errorf("DownWireBytes = %d", u.DownWireBytes)
	}
}

func TestMeterConcurrentCharges(t *testing.T) {
	m := mustMeter(t, DefaultLink(), 1)
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Charge(100, Up)
			}
		}()
	}
	wg.Wait()
	u := m.Usage()
	if u.Messages != goroutines*per {
		t.Fatalf("Messages = %d, want %d", u.Messages, goroutines*per)
	}
	if u.WireBytes != goroutines*per*DefaultLink().TB(100) {
		t.Fatalf("WireBytes = %d", u.WireBytes)
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{Messages: 1, PayloadBytes: 2, WireBytes: 3, Packets: 4, UpWireBytes: 5, DownWireBytes: 6, Queries: 7}
	b := Usage{Messages: 10, PayloadBytes: 20, WireBytes: 30, Packets: 40, UpWireBytes: 50, DownWireBytes: 60, Queries: 70}
	got := a.Add(b)
	want := Usage{Messages: 11, PayloadBytes: 22, WireBytes: 33, Packets: 44, UpWireBytes: 55, DownWireBytes: 66, Queries: 77}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

// echoHandler responds with the request prefixed by "echo:".
type echoHandler struct{}

func (echoHandler) Handle(req []byte) []byte {
	return append([]byte("echo:"), req...)
}

func TestChannelTransportRoundTrip(t *testing.T) {
	tr := Serve(echoHandler{})
	defer tr.Close()
	resp, err := tr.RoundTrip(context.Background(), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestChannelTransportClose(t *testing.T) {
	tr := Serve(echoHandler{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Double close is safe.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMeteredChargesBothDirections(t *testing.T) {
	tr := Serve(echoHandler{})
	defer tr.Close()
	m := mustMeter(t, DefaultLink(), 1)
	c := NewMetered(tr, m)
	req := bytes.Repeat([]byte("q"), 100)
	resp, err := c.RoundTrip(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	u := m.Usage()
	if u.Messages != 2 || u.Queries != 1 {
		t.Fatalf("usage = %+v", u)
	}
	wantWire := DefaultLink().TB(100) + DefaultLink().TB(len(resp))
	if u.WireBytes != wantWire {
		t.Fatalf("WireBytes = %d, want %d", u.WireBytes, wantWire)
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(req []byte) []byte { return []byte{req[0] + 1} })
	if got := h.Handle([]byte{41}); got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 10; i++ {
		resp, err := tr.RoundTrip(context.Background(), []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "echo:ping" {
			t.Fatalf("resp = %q", resp)
		}
	}
}

func TestTCPLargeFrame(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	big := bytes.Repeat([]byte{7}, 1<<20)
	resp, err := tr.RoundTrip(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big)+5 {
		t.Fatalf("resp len = %d", len(resp))
	}
}

func TestTCPMultipleClients(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := DialTCP(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer tr.Close()
			for j := 0; j < 20; j++ {
				if _, err := tr.RoundTrip(context.Background(), []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(context.Background(), []byte("x")); err == nil {
		t.Fatal("round trip after server close should fail")
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChannelAndTCPAccountIdentically(t *testing.T) {
	h := echoHandler{}
	ct := Serve(h)
	defer ct.Close()
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tt, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()

	m1 := mustMeter(t, DefaultLink(), 1)
	m2 := mustMeter(t, DefaultLink(), 1)
	c1 := NewMetered(ct, m1)
	c2 := NewMetered(tt, m2)
	payloads := [][]byte{[]byte("a"), bytes.Repeat([]byte("b"), 5000), []byte("ccc")}
	for _, p := range payloads {
		if _, err := c1.RoundTrip(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.RoundTrip(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	if m1.Usage() != m2.Usage() {
		t.Fatalf("accounting diverged:\nchannel %+v\ntcp     %+v", m1.Usage(), m2.Usage())
	}
}
