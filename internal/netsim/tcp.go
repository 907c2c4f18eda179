package netsim

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// TCP framing: each frame is preceded by a 4-byte little-endian length.
// The length prefix is transport plumbing, not protocol payload; metering
// (Eq. 1) is applied to the frame itself by the Metered wrapper, exactly
// as for the channel transport, so both transports account identically.
//
// A frame costs one write and, when it fits the connection's read buffer,
// one read: with TCP_NODELAY on (Go's default) a header written on its
// own is a segment and a peer wake-up of its own, which on the
// thousands of tiny probe frames of a join is most of the transport's
// time. A chunk of frames pipelined on one connection (Pipeline) shares
// them: its requests leave in one write, and the server answers with as
// few writes as the arrival of those requests allows (serveConn).

const (
	maxFrame  = 64 << 20 // sanity bound for the length prefix
	frameHdr  = 4
	coalesce  = 16 << 10 // frames up to this size are copied behind their header into one buffer
	readAhead = 4 << 10  // per-connection read buffer: header and a small payload arrive in one read

	// PipelineDepth bounds the frames of one pipelined chunk. Together
	// with the byte bound of PipelineChunk it is why pipelining cannot
	// deadlock: a chunk's requests, length prefixes included, fit the
	// peer's readAhead buffer — far below any socket buffer — and a chunk
	// starts on a connection with nothing in flight (its predecessor was
	// answered in full, or the connection was discarded). So the client's
	// single write never blocks behind replies it has not read yet, and
	// by the time the server can block writing replies the client is
	// already reading them.
	PipelineDepth = 32
)

// PipelineChunk returns how many leading frames of reqs may travel as
// one Pipeline chunk: at most PipelineDepth, their framed bytes within
// readAhead — and always at least one, since a lone frame of any size is
// a plain round trip.
func PipelineChunk(reqs [][]byte) int {
	n, size := 0, 0
	for n < len(reqs) && n < PipelineDepth {
		if size += frameHdr + len(reqs[n]); size > readAhead && n > 0 {
			break
		}
		n++
	}
	return n
}

// writeFrame sends one length-prefixed frame in a single write: small
// frames are copied behind their header into a pooled buffer, large ones
// go out with the header as one gathered write (writev), uncopied.
func writeFrame(conn net.Conn, frame []byte) error {
	if len(frame) <= coalesce {
		buf := binary.LittleEndian.AppendUint32(bufpool.GetCap(frameHdr+len(frame)), uint32(len(frame)))
		buf = append(buf, frame...)
		_, err := conn.Write(buf)
		bufpool.Put(buf)
		return err
	}
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(frame)))
	bufs := net.Buffers{hdr[:], frame}
	_, err := bufs.WriteTo(conn)
	return err
}

// writeFrames sends the frames of a chunk back to back: in one write
// when they fit one coalescing buffer together (any chunk PipelineChunk
// cut does), frame by frame otherwise.
func writeFrames(conn net.Conn, frames [][]byte) error {
	total := 0
	for _, f := range frames {
		total += frameHdr + len(f)
	}
	if len(frames) == 1 || total > coalesce {
		for _, f := range frames {
			if err := writeFrame(conn, f); err != nil {
				return err
			}
		}
		return nil
	}
	buf := bufpool.GetCap(total)
	for _, f := range frames {
		buf = append(binary.LittleEndian.AppendUint32(buf, uint32(len(f))), f...)
	}
	_, err := conn.Write(buf)
	bufpool.Put(buf)
	return err
}

// frameBuffered reports whether r holds a complete frame: reading it
// will not touch the socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < frameHdr {
		return false
	}
	hdr, _ := r.Peek(frameHdr) // cannot fail: the bytes are buffered
	return uint64(r.Buffered()-frameHdr) >= uint64(binary.LittleEndian.Uint32(hdr))
}

// readFrame reads one length-prefixed frame into a pooled buffer.
// Ownership of the returned frame passes to the caller, which should
// bufpool.Put it once its bytes are dead. Payloads beyond the read buffer
// are read straight into the frame, not through it.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(frameHdr)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("netsim: frame of %d bytes exceeds limit", n)
	}
	r.Discard(frameHdr) // cannot fail: the bytes were just peeked
	frame := bufpool.GetCap(int(n))[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		bufpool.Put(frame)
		return nil, err
	}
	return frame, nil
}

// TCPServer serves a Handler over a TCP listener, one goroutine per
// connection, frames delimited by length prefixes. It supports two ways
// down: Close (abrupt: every connection is cut, in-flight requests are
// lost) and Shutdown (drain: in-flight requests complete and their
// responses are written before the connections close).
type TCPServer struct {
	ln net.Listener
	h  AppendHandler

	// draining is read on the per-request serving path, so it is atomic
	// rather than guarded by mu: the hot path takes no server-wide lock.
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenAndServe starts a TCP server for h on addr (e.g. "127.0.0.1:0")
// and returns it once the listener is bound. Use Addr to discover the
// bound address and Close to shut down.
func ListenAndServe(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, h: appending(h), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn answers one connection's requests strictly in order. A peer
// may pipeline (write requests without awaiting replies), so replies
// coalesce: a small reply whose successor request is already complete in
// the read buffer waits in out for that request's reply, and they leave
// in one write. Nothing a peer is owed is ever held across a read that
// could block — out is flushed first — so a peer that sends one request
// at a time sees one write per reply, exactly as before. Under drain
// every request complete in the read buffer has been read off the socket
// and is served before the connection closes.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readAhead)
	out := bufpool.Get() // framed replies not yet written
	defer func() { bufpool.Put(out) }()
	flush := func() error {
		if len(out) == 0 {
			return nil
		}
		_, err := conn.Write(out)
		out = out[:0]
		return err
	}
	for {
		if !frameBuffered(br) {
			if flush() != nil || s.draining.Load() {
				return
			}
		}
		req, err := readFrame(br)
		if err != nil {
			return // client closed, broken frame, or drain poisoned the read
		}
		// Zero-allocation steady state: request and response buffers cycle
		// through the pool. HandleAppend's contract — the response is
		// appended to our buffer and the request is not retained — makes
		// both frames dead once the response is written or copied into
		// out. The aliasing guard protects the pool against a handler that
		// breaks the contract by answering with the request's own bytes:
		// the shared backing is then Put exactly once.
		resp := s.h.HandleAppend(req, bufpool.Get())
		if frameHdr+len(resp) > coalesce {
			// A large reply goes out uncopied, behind whatever it follows.
			if err = flush(); err == nil {
				err = writeFrame(conn, resp)
			}
		} else {
			if len(out)+frameHdr+len(resp) > coalesce {
				err = flush()
			}
			out = append(binary.LittleEndian.AppendUint32(out, uint32(len(resp))), resp...)
		}
		if !bufpool.SameBacking(req, resp) {
			bufpool.Put(req)
		}
		bufpool.Put(resp)
		if err != nil {
			return
		}
	}
}

// Close stops the listener and all open connections, waiting for the
// connection goroutines to exit. Requests in flight are lost; use
// Shutdown to drain them first.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting new
// connections, lets every request already read off a socket — the one in
// its handler and, on a pipelined connection, those complete in the read
// buffer behind it — complete and write its response, unblocks idle
// connections, and waits for all connection goroutines to exit. When ctx
// expires first, the remaining connections are cut (their in-flight
// requests are lost, as with Close) and ctx.Err() is returned. Shutdown
// after Close (or a second Shutdown) drains whatever connections remain.
func (s *TCPServer) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	var err error
	if !alreadyClosed {
		err = s.ln.Close()
	}
	// Poison reads rather than closing connections: a goroutine idle in
	// readFrame fails out of it immediately, while one that has already
	// read its request is untouched — the handler runs, the requests
	// already complete in its read buffer are served too (reading them
	// never touches the socket), the responses are written, and
	// serveConn, observing draining, closes the connection itself. This
	// leaves no window in which a fully-read request can be dropped.
	for conn := range s.conns {
		conn.SetReadDeadline(aLongTimeAgo)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		// Force-close the stragglers. Their goroutines are stuck inside
		// the handler and cannot be interrupted, so — like net/http's
		// Shutdown — return without waiting for them; each exits as soon
		// as its handler call returns.
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// TCPTransport is a RoundTripper over a small pool of TCP connections to
// one server. A connection carries one round trip — or one pipelined
// chunk of them — at a time, so concurrent round trips each claim their
// own connection: the pool starts with one and dials more on demand, up to
// maxConns, beyond which round trips wait for a free connection. The
// server side already serves every connection independently, so in-flight
// frames on different connections never interleave.
//
// Connection count is transport plumbing: metering (Eq. 1) charges frames
// identically whether they share one socket or use several.
type TCPTransport struct {
	addr  string
	slots chan struct{} // capacity = max concurrent connections

	mu     sync.Mutex
	free   []*tcpConn
	conns  map[*tcpConn]struct{}
	closed bool
}

// tcpConn is one pooled client connection with its read buffer. The two
// live and die together: a connection dropped after an interrupted round
// trip takes whatever its reader had buffered with it.
type tcpConn struct {
	net.Conn
	br *bufio.Reader
}

func newTCPConn(conn net.Conn) *tcpConn {
	return &tcpConn{Conn: conn, br: bufio.NewReaderSize(conn, readAhead)}
}

// defaultMaxConns bounds the connections DialTCP may open on demand.
const defaultMaxConns = 8

// DialTCP connects to a TCPServer at addr with the default connection
// bound (8), dialing the first connection eagerly so a bad address fails
// fast.
func DialTCP(addr string) (*TCPTransport, error) {
	return DialTCPPool(addr, defaultMaxConns)
}

// DialTCPPool connects to a TCPServer at addr, allowing up to maxConns
// concurrent in-flight round trips (maxConns < 1 is treated as 1).
func DialTCPPool(addr string, maxConns int) (*TCPTransport, error) {
	if maxConns < 1 {
		maxConns = 1
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := newTCPConn(nc)
	t := &TCPTransport{
		addr:  addr,
		slots: make(chan struct{}, maxConns),
		free:  []*tcpConn{conn},
		conns: map[*tcpConn]struct{}{conn: {}},
	}
	return t, nil
}

// acquire returns a free or freshly dialed connection, waiting when
// maxConns are already in flight. It gives up when ctx is done.
func (t *TCPTransport) acquire(ctx context.Context) (*tcpConn, error) {
	select {
	case t.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.slots
		return nil, ErrClosed
	}
	if n := len(t.free); n > 0 {
		conn := t.free[n-1]
		t.free = t.free[:n-1]
		t.mu.Unlock()
		return conn, nil
	}
	t.mu.Unlock()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		<-t.slots
		return nil, err
	}
	conn := newTCPConn(nc)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		<-t.slots
		return nil, ErrClosed
	}
	t.conns[conn] = struct{}{}
	t.mu.Unlock()
	return conn, nil
}

// release returns a healthy connection to the pool; broken connections
// are discarded (the next acquire redials).
func (t *TCPTransport) release(conn *tcpConn, healthy bool) {
	t.mu.Lock()
	if !healthy || t.closed {
		conn.Close()
		delete(t.conns, conn)
	} else {
		t.free = append(t.free, conn)
	}
	t.mu.Unlock()
	<-t.slots
}

// aLongTimeAgo is a non-zero time far in the past, used to force pending
// socket reads and writes to fail immediately (as net/http does).
var aLongTimeAgo = time.Unix(1, 0)

// RoundTrip implements RoundTripper. It is safe for concurrent use. The
// context's deadline is applied to the socket reads and writes of this
// round trip, and cancellation interrupts them mid-flight; a round trip
// abandoned either way discards its connection (the stream is no longer
// frame-aligned), so the next acquire re-dials.
func (t *TCPTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	var resp [1][]byte
	_, err := t.Pipeline(ctx, [][]byte{req}, resp[:])
	return resp[0], err
}

// Pipeline implements Pipeliner on one pooled connection: the chunk's
// frames leave back to back (writeFrames) and the replies are read in
// order — the server answers a connection strictly in order, so reply i
// is request i's. Deadline, cancellation and poisoning are RoundTrip's,
// applied to the chunk as a whole: a chunk abandoned after k replies
// returns those k and discards its connection, and nothing else.
func (t *TCPTransport) Pipeline(ctx context.Context, reqs, resps [][]byte) (int, error) {
	conn, err := t.acquire(ctx)
	if err != nil {
		return 0, err
	}
	deadline, hasDeadline := ctx.Deadline()
	conn.SetDeadline(deadline) // zero deadline clears any previous one
	// Interrupt the socket when ctx is canceled mid-flight.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(aLongTimeAgo) })
	err = writeFrames(conn.Conn, reqs) // the bare socket: gathered writes need *net.TCPConn itself
	answered := 0
	for err == nil && answered < len(reqs) {
		if resps[answered], err = readFrame(conn.br); err == nil {
			answered++
		}
	}
	healthy := err == nil
	if !stop() {
		// The cancel hook ran (or is running): the connection's deadline
		// state is poisoned, so never return it to the pool.
		healthy = false
	}
	t.release(conn, healthy)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Surface the cancellation/deadline as such, not as the socket
			// error it manifested as.
			err = cerr
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() && hasDeadline {
			// The socket deadline (set from ctx) can fire a hair before
			// the context's own timer reports it.
			err = context.DeadlineExceeded
		}
	}
	return answered, err
}

// Close implements RoundTripper: it closes every pooled connection.
// In-flight round trips fail as their connections close.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var err error
	for conn := range t.conns {
		if cerr := conn.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	t.conns = map[*tcpConn]struct{}{}
	t.free = nil
	return err
}
