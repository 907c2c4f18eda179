package netsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// writeCounter is a net.Conn that records the writes it is given.
type writeCounter struct {
	net.Conn // nil: only Write is exercised
	writes   [][]byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteFrameIsOneWrite pins the framing satellite: a coalesced frame
// reaches the connection as one write carrying header and payload, and
// whatever the size, what was written reads back as the same frame.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, n := range []int{0, 1, 8, readAhead - frameHdr, readAhead, coalesce, coalesce + 1, 3 * coalesce} {
		frame := bytes.Repeat([]byte{byte(n)}, n)
		var w writeCounter
		if err := writeFrame(&w, frame); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n <= coalesce && len(w.writes) != 1 {
			t.Fatalf("n=%d: %d writes for one coalesced frame", n, len(w.writes))
		}
		wire := bytes.Join(w.writes, nil)
		if got := binary.LittleEndian.Uint32(wire); int(got) != n || len(wire) != frameHdr+n {
			t.Fatalf("n=%d: header says %d, %d bytes on the wire", n, got, len(wire))
		}
		got, err := readFrame(bufio.NewReaderSize(bytes.NewReader(wire), readAhead))
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("n=%d: read back %d bytes, err %v", n, len(got), err)
		}
	}
}

// TestReadFrameTruncated keeps the error contract of the unbuffered
// reader: a clean close between frames is io.EOF, a stream that ends
// inside a header or a payload is io.ErrUnexpectedEOF.
func TestReadFrameTruncated(t *testing.T) {
	for _, tc := range []struct {
		wire []byte
		want error
	}{
		{nil, io.EOF},
		{[]byte{5, 0}, io.ErrUnexpectedEOF},
		{[]byte{5, 0, 0, 0, 'a', 'b'}, io.ErrUnexpectedEOF},
	} {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(tc.wire)))
		if !errors.Is(err, tc.want) {
			t.Errorf("wire %v: err = %v, want %v", tc.wire, err, tc.want)
		}
	}
	huge := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("oversized length prefix accepted")
	}
}

// TestTCPFrameSizesRoundTrip sends frames on both sides of the read
// buffer and of the coalescing bound through one pooled connection: the
// buffered reader must stay frame-aligned whatever mix precedes a frame.
func TestTCPFrameSizesRoundTrip(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", mirrorHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCPPool(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for round := 0; round < 2; round++ {
		for _, n := range []int{0, 1, readAhead - frameHdr - 1, readAhead - frameHdr, readAhead, coalesce, coalesce + 1, 1 << 20, 3} {
			req := make([]byte, n)
			for i := range req {
				req[i] = byte(i*7 + n)
			}
			resp, err := tr.RoundTrip(context.Background(), req)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !bytes.Equal(resp, req) {
				t.Fatalf("n=%d: reply differs from request (%d bytes back)", n, len(resp))
			}
		}
	}
}

// slowFirst answers its first request late and every later one at once,
// each with the request's own bytes.
type slowFirst struct {
	seen  atomic.Int32
	delay time.Duration
}

func (h *slowFirst) Handle(req []byte) []byte {
	if h.seen.Add(1) == 1 {
		time.Sleep(h.delay)
	}
	return append([]byte(nil), req...)
}

// TestTCPCancelledRoundTripDropsItsReader pins cancel-poisoning with the
// buffered reader in place: the connection of an interrupted round trip
// is never reused, so the late reply to the abandoned request — the
// first thing a reused connection would read — cannot be handed to the
// next caller.
func TestTCPCancelledRoundTripDropsItsReader(t *testing.T) {
	h := &slowFirst{delay: 50 * time.Millisecond}
	srv, err := ListenAndServe("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCPPool(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := tr.RoundTrip(ctx, frameFor(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	for i := 2; i < 6; i++ {
		resp, err := tr.RoundTrip(context.Background(), frameFor(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, frameFor(i)) {
			t.Fatalf("round trip %d got the reply to another request: %v", i, resp)
		}
	}
}
