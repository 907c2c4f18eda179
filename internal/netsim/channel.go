package netsim

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/bufpool"
)

// Handler processes one request frame and produces one response frame.
// Dataset servers implement this. Handlers are always called
// concurrently — the in-process transport runs one on each caller's
// goroutine, the TCP server on each connection's — and must not retain
// req once they return: the serving loops recycle the request buffer.
type Handler interface {
	Handle(req []byte) (resp []byte)
}

// AppendHandler is the zero-allocation variant of Handler: the response
// frame is appended to a buffer the serving loop provides (and recycles
// once the frame has been delivered). The serving loops call nothing
// else; the entry points wrap a plain Handler once in an adapter that
// copies its reply into that buffer. Frames are bit-identical either way.
type AppendHandler interface {
	Handler
	HandleAppend(req, dst []byte) []byte
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req []byte) []byte

// Handle implements Handler.
func (f HandlerFunc) Handle(req []byte) []byte { return f(req) }

// appending returns h as an AppendHandler: h itself when it is one, else
// an adapter that appends Handle's reply to the serving loop's buffer.
func appending(h Handler) AppendHandler {
	if ah, ok := h.(AppendHandler); ok {
		return ah
	}
	return appendAdapter{h}
}

type appendAdapter struct{ Handler }

func (a appendAdapter) HandleAppend(req, dst []byte) []byte { return append(dst, a.Handle(req)...) }

// ErrClosed is returned by transports after Close.
var ErrClosed = errors.New("netsim: transport closed")

// ChannelTransport is the in-process RoundTripper: the device↔server
// message exchange without sockets, with exact frame sizes for
// metering. A round trip is a function call: RoundTrip runs the
// handler on its caller's goroutine, as many at once as there are
// callers, and the transport starts no goroutine. What a server costs
// the device is its link's bytes and latency, never a wait inside the
// server, so a hang or a stall is modelled on the link (Switch, Faulty),
// which honours the context.
type ChannelTransport struct {
	h      AppendHandler
	closed atomic.Bool
}

// Serve returns the client's transport to h.
func Serve(h Handler) *ChannelTransport { return &ChannelTransport{h: appending(h)} }

// ServeParallel is Serve; workers is unused.
func ServeParallel(h Handler, workers int) *ChannelTransport { return Serve(h) }

// RoundTrip implements RoundTripper: ErrClosed after Close, the
// context's error when it is already done, and otherwise h's reply. The
// returned frame is backed by the shared buffer pool; the caller may
// bufpool.Put it after consuming its bytes.
func (t *ChannelTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if t.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.h.HandleAppend(req, bufpool.Get()), nil
}

// Close implements RoundTripper.
func (t *ChannelTransport) Close() error {
	t.closed.Store(true)
	return nil
}
