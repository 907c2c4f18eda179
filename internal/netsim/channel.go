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

// NonBlocking is the optional capability of a Handler whose HandleAppend
// (or Handle) returns without waiting on another goroutine, on a lock
// held across I/O, on a timer or on the network: its cost is CPU alone.
// The channel transport runs such a handler on its caller's goroutine
// instead of handing each frame to a worker. The method itself is
// never called; declaring it is the promise.
type NonBlocking interface{ NonBlocking() }

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

// ChannelTransport is an in-process RoundTripper: the device↔server
// message exchange without sockets, with exact frame sizes for
// metering. A NonBlocking handler (the dataset server) is answered on
// the caller's goroutine: RoundTrip runs it in place and the transport
// starts no goroutine. Any other handler runs as one or more goroutine
// workers, receiving request frames over a channel and answering over
// per-request reply channels, so a canceled round trip is abandoned
// promptly even when every worker is hung inside the handler.
//
// RoundTrip is safe for concurrent use: each call carries its own reply
// channel (or is its own server), so responses can never be delivered
// to the wrong caller. With a single worker (Serve) concurrent requests
// queue and are answered one at a time; ServeParallel keeps several
// requests in service at once. It is a Sender: a request an idle worker
// takes at once is sent, and its reply collected later; an inline
// handler takes nothing at send, so its service time follows the
// link's latency as on a real link.
type ChannelTransport struct {
	inline AppendHandler // a NonBlocking handler; nil: workers serve reqs
	reqs   chan *chanFlight

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

// Serve returns the client's transport to h served by a single worker
// goroutine, or on the caller's goroutine when h is NonBlocking. The
// worker exits when the transport is closed.
func Serve(h Handler) *ChannelTransport { return ServeParallel(h, 1) }

// ServeParallel returns the client's transport to h. A NonBlocking h is
// answered on each caller's goroutine, as many at once as there are
// callers, and workers is unused. Any other h runs in workers
// goroutines, so up to workers requests are serviced concurrently (h
// must tolerate concurrent Handle calls). workers < 1 is treated as 1.
// All goroutines exit when the transport is closed.
func ServeParallel(h Handler, workers int) *ChannelTransport {
	ah := appending(h)
	t := &ChannelTransport{
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if _, ok := h.(NonBlocking); ok {
		t.inline = ah
		close(t.done)
		return t
	}
	if workers < 1 {
		workers = 1
	}
	t.reqs = make(chan *chanFlight)
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
// bytes. A NonBlocking handler answers in place, unless the transport
// is closed or ctx already done. Otherwise a canceled context abandons
// the round trip immediately, even when every server worker is hung
// inside a handler; each half tries the plain channel operation first
// and selects on shutdown and cancellation only when it would block.
func (t *ChannelTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if t.inline != nil {
		select {
		case <-t.closed:
			return nil, ErrClosed
		default:
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return t.inline.HandleAppend(req, bufpool.Get()), nil
	}
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
// take it at once, and otherwise left to a round trip at receive. An
// inline handler takes nothing at send: its round trip runs at receive.
func (t *ChannelTransport) Send(ctx context.Context, req []byte) Receiver {
	if t.inline != nil {
		return nil
	}
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

// Close implements RoundTripper; it stops the server goroutines, if any.
func (t *ChannelTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	<-t.done
	return nil
}
