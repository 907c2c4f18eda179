package netsim

import (
	"context"
	"errors"
	"sync"

	"repro/internal/bufpool"
)

// Handler processes one request frame and produces one response frame.
// Dataset servers implement this. Handlers must be safe for concurrent
// calls when served with more than one worker, and must not retain req
// once they return: the serving loops recycle the request buffer.
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

// ChannelTransport is an in-process RoundTripper in which the server runs
// as one or more goroutine peers, receiving request frames over a channel
// and answering over per-request reply channels. This models the paper's
// device↔server message exchange without sockets while preserving exact
// frame sizes for metering.
//
// RoundTrip is safe for concurrent use: each call carries its own reply
// channel, so responses can never be delivered to the wrong caller. With
// a single worker (Serve) concurrent requests queue and are answered one
// at a time; ServeParallel keeps several requests in service at once. It
// is a Sender: a request an idle worker takes at once is sent, and its
// reply collected later.
type ChannelTransport struct {
	reqs chan *chanFlight

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{} // all server goroutines exited
}

// chanFlight is one request on its way to a worker, with the channel its
// reply comes back on. It is pooled: the last per-round-trip allocation
// of the in-process transport.
type chanFlight struct {
	t     *ChannelTransport
	ctx   context.Context
	frame []byte
	reply chan []byte
}

var chanFlightPool = sync.Pool{
	New: func() any { return &chanFlight{reply: make(chan []byte, 1)} },
}

// Serve starts a single goroutine running h as a server peer and returns
// the client's transport to it. The goroutine exits when the transport is
// closed.
func Serve(h Handler) *ChannelTransport { return ServeParallel(h, 1) }

// ServeParallel starts workers goroutines running h as a server peer, so
// up to workers requests are serviced concurrently (h must tolerate
// concurrent Handle calls; the dataset server does — its index is
// immutable). workers < 1 is treated as 1. All goroutines exit when the
// transport is closed.
func ServeParallel(h Handler, workers int) *ChannelTransport {
	if workers < 1 {
		workers = 1
	}
	ah := appending(h)
	t := &ChannelTransport{
		reqs:   make(chan *chanFlight),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case f := <-t.reqs:
					// The reply is the worker's last touch of f: its
					// receiver may recycle it at once.
					f.reply <- ah.HandleAppend(f.frame, bufpool.Get())
				case <-t.closed:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(t.done)
	}()
	return t
}

func (t *ChannelTransport) flight(ctx context.Context, req []byte) *chanFlight {
	f := chanFlightPool.Get().(*chanFlight)
	f.t, f.ctx, f.frame = t, ctx, req
	return f
}

func (f *chanFlight) free() {
	f.t, f.ctx, f.frame = nil, nil, nil
	chanFlightPool.Put(f)
}

// RoundTrip implements RoundTripper. The returned frame is backed by the
// shared buffer pool; the caller may bufpool.Put it after consuming its
// bytes. A canceled context abandons the round trip immediately, even
// when every server worker is hung inside a handler. Each half tries the
// plain channel operation first and selects on shutdown and
// cancellation only when it would block.
func (t *ChannelTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	f := t.flight(ctx, req)
	select {
	case t.reqs <- f:
	default:
		select {
		case t.reqs <- f:
		case <-t.closed:
			f.free()
			return nil, ErrClosed
		case <-ctx.Done():
			f.free()
			return nil, ctx.Err()
		}
	}
	return f.Recv()
}

// Send implements Sender: the request is sent when a worker is idle to
// take it at once, and otherwise left to a round trip at receive.
func (t *ChannelTransport) Send(ctx context.Context, req []byte) Receiver {
	f := t.flight(ctx, req)
	select {
	case t.reqs <- f:
		return f
	default:
		f.free()
		return nil
	}
}

// Recv implements Receiver.
func (f *chanFlight) Recv() ([]byte, error) {
	select {
	case resp := <-f.reply:
		f.free()
		return resp, nil
	default:
	}
	select {
	case resp := <-f.reply:
		f.free()
		return resp, nil
	case <-f.t.closed:
		// The request is in service (reqs is unbuffered, so a worker holds
		// it) and its late reply will land in this channel: a reaper waits
		// for it so the reply frame and the flight return to their pools
		// instead of leaking, while the error is marked retained — the
		// worker may still be reading the request buffer.
		go reapAbandoned(f)
		return nil, RetainFrame(ErrClosed)
	case <-f.ctx.Done():
		// Same: the in-flight request's late reply may still land here.
		err := f.ctx.Err()
		go reapAbandoned(f)
		return nil, RetainFrame(err)
	}
}

// reapAbandoned drains the late reply of an abandoned round trip,
// recycling the reply frame and the flight. Workers always answer
// exactly once (they finish the request in hand even during shutdown),
// so the reaper is guaranteed to terminate. The request frame is NOT
// recycled here: the abandoning caller may be retrying with the same
// buffer, so its ownership stays with the caller (which must leave it to
// the garbage collector, per ErrFrameRetained).
func reapAbandoned(f *chanFlight) {
	resp := <-f.reply
	if !bufpool.SameBacking(f.frame, resp) {
		bufpool.Put(resp)
	}
	f.free()
}

// Close implements RoundTripper; it stops the server goroutines.
func (t *ChannelTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	<-t.done
	return nil
}
