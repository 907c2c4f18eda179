package netsim

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bufpool"
)

// appendEcho implements AppendHandler: it answers with a transformed copy
// of the request, appended to the provided buffer.
type appendEcho struct{ handleCalls, appendCalls int }

func (e *appendEcho) Handle(req []byte) []byte {
	e.handleCalls++
	return e.HandleAppend(req, nil)
}

func (e *appendEcho) HandleAppend(req, dst []byte) []byte {
	e.appendCalls++
	for _, b := range req {
		dst = append(dst, b+1)
	}
	return dst
}

// TestChannelTransportPrefersAppendHandler checks that the in-process
// serving loop routes through HandleAppend and that the response is
// correct (and releasable).
func TestChannelTransportPrefersAppendHandler(t *testing.T) {
	h := &appendEcho{}
	tr := Serve(h)
	defer tr.Close()
	resp, err := tr.RoundTrip(context.Background(), []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte{2, 3, 4}) {
		t.Fatalf("resp = %v", resp)
	}
	if h.appendCalls != 1 || h.handleCalls != 0 {
		t.Fatalf("append/handle calls = %d/%d, want 1/0", h.appendCalls, h.handleCalls)
	}
	bufpool.Put(resp)
}

// TestTCPTransportAppendHandler drives the pooled TCP serving loop with
// an AppendHandler across repeated frames on one connection.
func TestTCPTransportAppendHandler(t *testing.T) {
	h := &appendEcho{}
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
	for i := 0; i < 50; i++ {
		req := []byte{byte(i), byte(i + 1)}
		resp, err := tr.RoundTrip(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, []byte{byte(i) + 1, byte(i) + 2}) {
			t.Fatalf("frame %d: resp = %v", i, resp)
		}
		bufpool.Put(resp)
	}
}

// TestPlainHandlerFramesNotRecycled: an echoing plain Handler keeps
// working over TCP although its reply aliases the request buffer — the
// adapter the server wraps it in copies the reply into the pooled buffer
// before either frame is recycled.
func TestPlainHandlerFramesNotRecycled(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", HandlerFunc(func(req []byte) []byte {
		return req // aliases the read buffer
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 64)
		resp, err := tr.RoundTrip(context.Background(), payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}
