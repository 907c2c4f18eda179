package netsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// tagHandler answers request i with its bytes reversed behind a one-byte
// tag: distinguishable per request, different from the request, and a
// pure function of it — what FIFO reply matching is checked against.
type tagHandler struct{}

func (tagHandler) Handle(req []byte) []byte {
	out := make([]byte, 0, len(req)+1)
	out = append(out, 0xA5)
	for i := len(req) - 1; i >= 0; i-- {
		out = append(out, req[i])
	}
	return out
}

// countingConn counts the reads that delivered bytes and the writes on
// one end of a connection: the syscalls a probe costs, without strace.
type countingConn struct {
	net.Conn
	reads, writes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener hands the server counting connections.
type countingListener struct {
	net.Listener
	reads, writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.reads, l.writes}, nil
}

// TestPipelineChunkBounds pins the no-deadlock invariant where it is
// cut: a chunk never exceeds the depth, its framed bytes never exceed the
// peer's read-ahead, and a frame too large for any chunk travels alone.
func TestPipelineChunkBounds(t *testing.T) {
	small := make([][]byte, 100)
	for i := range small {
		small[i] = make([]byte, 17)
	}
	if got := PipelineChunk(small); got != PipelineDepth {
		t.Errorf("100 small frames: chunk of %d, want the depth %d", got, PipelineDepth)
	}
	if got := PipelineChunk(small[:5]); got != 5 {
		t.Errorf("5 small frames: chunk of %d", got)
	}
	if got := PipelineChunk(nil); got != 0 {
		t.Errorf("no frames: chunk of %d", got)
	}
	mid := [][]byte{make([]byte, 1500), make([]byte, 1500), make([]byte, 1500), make([]byte, 10)}
	got := PipelineChunk(mid)
	size := 0
	for _, f := range mid[:got] {
		size += frameHdr + len(f)
	}
	if got != 2 || size > readAhead {
		t.Errorf("1.5 KB frames: chunk of %d (%d framed bytes), want 2 within %d", got, size, readAhead)
	}
	huge := [][]byte{make([]byte, 1<<20), make([]byte, 8)}
	if got := PipelineChunk(huge); got != 1 {
		t.Errorf("a frame beyond the read-ahead: chunk of %d, want it alone", got)
	}
}

// TestPipelineCostsOneWriteAChunk is the count behind the speed-up, made
// with counting connections on both ends: n probes sent one round trip at
// a time cost n client writes and n server writes; the same n frames sent
// as PipelineChunk-cut chunks cost one of each per chunk — and produce
// the same replies.
func TestPipelineCostsOneWriteAChunk(t *testing.T) {
	var srvReads, srvWrites, cliReads, cliWrites atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &TCPServer{ln: countingListener{ln, &srvReads, &srvWrites}, h: appending(tagHandler{}), conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.acceptLoop()
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := newTCPConn(countingConn{nc, &cliReads, &cliWrites})
	tr := &TCPTransport{addr: srv.Addr(), slots: make(chan struct{}, 1),
		free: []*tcpConn{conn}, conns: map[*tcpConn]struct{}{conn: {}}}
	defer tr.Close()

	const n = 100
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = frameFor(i)
	}
	ctx := context.Background()
	typed := make([][]byte, n)
	for i, req := range reqs {
		if typed[i], err = tr.RoundTrip(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if cw, sw := cliWrites.Swap(0), srvWrites.Swap(0); cw != n || sw != n {
		t.Fatalf("one at a time: %d client writes, %d server writes, want %d each", cw, sw, n)
	}
	cliReads.Store(0)
	srvReads.Store(0)

	piped := make([][]byte, n)
	chunks := 0
	for lo := 0; lo < n; chunks++ {
		hi := lo + PipelineChunk(reqs[lo:])
		if got, err := tr.Pipeline(ctx, reqs[lo:hi], piped[lo:hi]); err != nil || got != hi-lo {
			t.Fatalf("chunk %d: answered %d of %d, err %v", chunks, got, hi-lo, err)
		}
		lo = hi
	}
	if want := (n + PipelineDepth - 1) / PipelineDepth; chunks != want {
		t.Fatalf("%d chunks, want %d", chunks, want)
	}
	for i := range reqs {
		if !bytes.Equal(piped[i], typed[i]) {
			t.Fatalf("reply %d differs between the pipelined and the one-at-a-time run", i)
		}
	}
	cw, sw := cliWrites.Load(), srvWrites.Load()
	t.Logf("%d probes: one at a time %d+%d writes; pipelined in %d chunks %d client writes, %d server writes (%d client reads, %d server reads)",
		n, n, n, chunks, cw, sw, cliReads.Load(), srvReads.Load())
	if cw != int64(chunks) {
		t.Errorf("pipelined: %d client writes for %d chunks", cw, chunks)
	}
	// The server coalesces what it finds complete in its read buffer; a
	// chunk reaches it in one segment on loopback, but TCP promises no
	// such thing, so allow a chunk's replies to leave in two writes.
	if sw > int64(2*chunks) {
		t.Errorf("pipelined: %d server writes for %d chunks, want O(chunks), not O(probes)", sw, chunks)
	}
}

// oneAtATime hides a transport's Pipeliner: the strict peer of the
// interop tests.
type oneAtATime struct{ RoundTripper }

// TestPipelineInterop crosses both generations of both ends over one
// coalescing server: the Pipeline helper over a transport that pipelines,
// over one that does not (falling back to round trips), and a raw
// connection that sends one request and reads one reply at a time — the
// old client — all read identical replies in request order, for frames on
// both sides of every buffer bound.
func TestPipelineInterop(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", tagHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCPPool(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var reqs [][]byte
	for i, n := range []int{8, 0, 1, 300, readAhead - frameHdr, 40, coalesce, 12, coalesce + 1, 5, 1 << 18, 9, 9, 9} {
		reqs = append(reqs, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = tagHandler{}.Handle(req)
	}
	ctx := context.Background()
	check := func(name string, got [][]byte) {
		t.Helper()
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: reply %d is %d bytes, want %d", name, i, len(got[i]), len(want[i]))
			}
		}
	}

	// The whole list as one chunk — beyond what PipelineChunk would cut,
	// which must still be correct, only not guaranteed never to block.
	got := make([][]byte, len(reqs))
	if n, err := Pipeline(ctx, tr, reqs, got); err != nil || n != len(reqs) {
		t.Fatalf("pipelined: answered %d, err %v", n, err)
	}
	check("pipelining client", got)

	got = make([][]byte, len(reqs))
	if n, err := Pipeline(ctx, oneAtATime{tr}, reqs, got); err != nil || n != len(reqs) {
		t.Fatalf("fallback: answered %d, err %v", n, err)
	}
	check("helper over a transport without the capability", got)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	got = make([][]byte, len(reqs))
	for i, req := range reqs {
		if err := writeFrame(raw, req); err != nil {
			t.Fatal(err)
		}
		if got[i], err = readFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	check("one-at-a-time client", got)
}

// TestPipelineAbandonedChunkPoisonsOnlyItsConnection: a chunk whose
// context ends mid-flight returns the replies it had, the context's
// error, and discards its connection; the next chunk on the same
// transport dials afresh and can never read a late reply to the
// abandoned one.
func TestPipelineAbandonedChunkPoisonsOnlyItsConnection(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var seen atomic.Int32
	h := HandlerFunc(func(req []byte) []byte {
		if seen.Add(1) == 3 {
			close(entered)
			<-release
		}
		return tagHandler{}.Handle(req)
	})
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	tr, err := DialTCPPool(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered // the server is inside request 3 of the chunk
		cancel()
	}()
	reqs := [][]byte{frameFor(1), frameFor(2), frameFor(3), frameFor(4)}
	resps := make([][]byte, len(reqs))
	n, err := tr.Pipeline(ctx, reqs, resps)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Replies 1 and 2 wait in the server's buffer behind request 3, so
	// none can have arrived.
	if n != 0 {
		t.Fatalf("answered %d requests of a chunk stuck at its third", n)
	}
	reqs = [][]byte{frameFor(5), frameFor(6)}
	if n, err := tr.Pipeline(context.Background(), reqs, resps[:2]); err != nil || n != 2 {
		t.Fatalf("next chunk: answered %d, err %v", n, err)
	}
	for i, req := range reqs {
		if !bytes.Equal(resps[i], tagHandler{}.Handle(req)) {
			t.Fatalf("next chunk read the reply to another request: %v", resps[i])
		}
	}
}

// TestMeteredPipelineChargesPerFrame: a pipelined chunk is billed frame
// by frame exactly as the same frames sent one round trip at a time —
// totals, hedged column, tenant columns — and replies that never arrive
// are never charged.
func TestMeteredPipelineChargesPerFrame(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", tagHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := [][]byte{frameFor(1), bytes.Repeat([]byte{7}, 2000), frameFor(3), {}}
	ctx := WithHedged(WithTenant(context.Background(), "t1"))
	usage := func(pipelined bool) (Usage, Usage) {
		tr, err := DialTCPPool(srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		m, err := NewMeter(DefaultLink(), 1)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableTenants()
		c := NewMetered(tr, m)
		resps := make([][]byte, len(reqs))
		if pipelined {
			if n, err := c.Pipeline(ctx, reqs, resps); err != nil || n != len(reqs) {
				t.Fatalf("answered %d, err %v", n, err)
			}
		} else {
			for _, req := range reqs {
				if _, err := c.RoundTrip(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.Usage(), m.TenantUsage("t1")
	}
	wantAll, wantTenant := usage(false)
	gotAll, gotTenant := usage(true)
	if gotAll != wantAll {
		t.Errorf("link usage: pipelined %+v, one at a time %+v", gotAll, wantAll)
	}
	if gotTenant != wantTenant || gotTenant != gotAll {
		t.Errorf("tenant usage: pipelined %+v, one at a time %+v, link %+v", gotTenant, wantTenant, gotAll)
	}
	if gotAll.HedgedMessages != 2*len(reqs) {
		t.Errorf("hedged messages = %d, want every frame (%d)", gotAll.HedgedMessages, 2*len(reqs))
	}

	// A chunk that dies before any reply: every request charged, no reply.
	m, _ := NewMeter(DefaultLink(), 1)
	c := NewMetered(oneAtATime{failingRT{}}, m)
	if n, err := c.Pipeline(context.Background(), reqs, make([][]byte, len(reqs))); err == nil || n != 0 {
		t.Fatalf("answered %d, err %v from a dead link", n, err)
	}
	if u := m.Usage(); u.Queries != len(reqs) || u.DownWireBytes != 0 {
		t.Errorf("dead link: %d queries, %d down bytes charged, want %d and 0", u.Queries, u.DownWireBytes, len(reqs))
	}
}

type failingRT struct{}

func (failingRT) RoundTrip(context.Context, []byte) ([]byte, error) {
	return nil, errors.New("link down")
}
func (failingRT) Close() error { return nil }

// TestShutdownDrainsPipelinedRequests is the drain contract under
// pipelining: k requests written back to back are all "read off the
// socket" the moment the first is — they sit complete in the server's
// read buffer — so a drain that begins while the first is being handled
// answers all k, then closes the connection, and leaves no goroutine.
func TestShutdownDrainsPipelinedRequests(t *testing.T) {
	const k = 5
	entered, release := make(chan struct{}), make(chan struct{})
	var seen atomic.Int32
	srv, err := ListenAndServe("127.0.0.1:0", HandlerFunc(func(req []byte) []byte {
		if seen.Add(1) == 1 {
			close(entered)
			<-release
		}
		return tagHandler{}.Handle(req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var stream []byte
	for i := 0; i < k; i++ {
		stream = append(binary.LittleEndian.AppendUint32(stream, 8), frameFor(i)...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	<-entered // request 1 is in its handler; 2..k arrived in the same segment
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	// The drain has begun once Shutdown has marked the server closed,
	// which it does in the critical section that poisons the reads.
	for begun := false; !begun; runtime.Gosched() {
		srv.mu.Lock()
		begun = srv.closed
		srv.mu.Unlock()
	}
	close(release)
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < k; i++ {
		resp, err := readFrame(br)
		if err != nil {
			t.Fatalf("reply %d of %d lost in the drain: %v", i+1, k, err)
		}
		if !bytes.Equal(resp, tagHandler{}.Handle(frameFor(i))) {
			t.Fatalf("reply %d answers another request: %v", i+1, resp)
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after the drained replies: %v, want the connection closed (io.EOF)", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Shutdown returned, so the accept loop and the connection's goroutine
	// have exited; only this test's own helper goroutine is gone too.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the drain, %d before the connection", runtime.NumGoroutine(), before)
		}
	}
}

// FuzzFrameStream cuts a stream of k request frames into arbitrary write
// sizes and plays it through the serving loop: whatever the cuts — and
// therefore whatever the server finds complete in its read buffer when it
// decides to hold a reply back or flush — the k replies must come back in
// order and equal to the ones a one-at-a-time exchange produces.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{3, 'a', 'b', 'c', 0, 1, 'x'}, []byte{1, 2, 3})
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 7, 6, 5, 4, 3, 2, 1}, []byte{255})
	f.Add(bytes.Repeat([]byte{40}, 300), []byte{7, 0, 90, 4})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// data is a sequence of (length byte, payload) records; a short
		// tail is its own frame.
		var frames [][]byte
		for len(data) > 0 && len(frames) < 64 {
			n := min(int(data[0]), len(data)-1)
			frames = append(frames, data[1:1+n])
			data = data[1+n:]
		}
		var stream []byte
		for _, fr := range frames {
			stream = append(binary.LittleEndian.AppendUint32(stream, uint32(len(fr))), fr...)
		}
		client, server := net.Pipe()
		defer client.Close()
		srv := &TCPServer{h: appending(tagHandler{}), conns: map[net.Conn]struct{}{server: {}}}
		srv.wg.Add(1)
		go srv.serveConn(server)
		go func() {
			for i := 0; len(stream) > 0; i++ {
				n := len(stream)
				if len(cuts) > 0 {
					n = min(n, 1+int(cuts[i%len(cuts)]))
				}
				if _, err := client.Write(stream[:n]); err != nil {
					return
				}
				stream = stream[n:]
			}
		}()
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(client)
		for i, fr := range frames {
			resp, err := readFrame(br)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(frames), err)
			}
			if !bytes.Equal(resp, tagHandler{}.Handle(fr)) {
				t.Fatalf("reply %d does not answer request %d", i+1, i+1)
			}
		}
		client.Close()
		srv.wg.Wait()
	})
}
