package client

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// scriptedHandler returns canned responses regardless of the request.
type scriptedHandler struct {
	resp []byte
}

func (h scriptedHandler) Handle(req []byte) []byte { return h.resp }

func newScripted(t *testing.T, resp []byte) *Remote {
	t.Helper()
	tr := netsim.Serve(scriptedHandler{resp: resp})
	r, err := NewRemote("scripted", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestRemoteWrapsServerErrors(t *testing.T) {
	r := newScripted(t, wire.AppendError(nil, "nope"))
	_, err := r.Count(context.Background(), geom.R(0, 0, 1, 1))
	if err == nil || !strings.Contains(err.Error(), "scripted") || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want wrapped server error", err)
	}
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("expected *wire.ServerError in chain, got %T", err)
	}
}

func TestRemoteRejectsWrongReplyType(t *testing.T) {
	// Server answers a COUNT with an OBJECTS frame: decode must fail.
	r := newScripted(t, wire.AppendObjects(nil, nil))
	if _, err := r.Count(context.Background(), geom.R(0, 0, 1, 1)); err == nil {
		t.Fatal("type-mismatched reply should fail")
	}
}

func TestRemoteClosedTransport(t *testing.T) {
	tr := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 1)})
	r, err := NewRemote("gone", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Count(context.Background(), geom.R(0, 0, 1, 1)); err == nil || !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed in chain", err)
	}
}

func TestRemoteMetersFailedCallsUplinkOnly(t *testing.T) {
	tr := netsim.Serve(scriptedHandler{resp: wire.AppendError(nil, "x")})
	r, err := NewRemote("err", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, _ = r.Count(context.Background(), geom.R(0, 0, 1, 1))
	u := r.Usage()
	// Both the query and the error reply cross the link and are charged.
	if u.Queries != 1 || u.Messages != 2 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestRemoteName(t *testing.T) {
	r := newScripted(t, wire.AppendCountReply(nil, 0))
	if r.Name() != "scripted" {
		t.Fatalf("name = %q", r.Name())
	}
	if r.m == nil {
		t.Fatal("meter must exist")
	}
}

func TestDeviceBounds(t *testing.T) {
	cases := []struct {
		buffer, n int
		want      bool
	}{
		{0, 1 << 30, true}, // unlimited
		{1, 1, true},
		{1, 2, false},
		{800, 800, true},
		{800, 801, false},
	}
	for _, c := range cases {
		d := Device{BufferObjects: c.buffer}
		if got := d.CanHold(c.n); got != c.want {
			t.Errorf("Device{%d}.CanHold(%d) = %v, want %v", c.buffer, c.n, got, c.want)
		}
	}
}
