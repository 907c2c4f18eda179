package client

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// flakyTransport fails the first failures round trips with err, then
// delegates to the wrapped transport.
type flakyTransport struct {
	rt       netsim.RoundTripper
	failures int
	err      error
	calls    int
}

func (f *flakyTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, f.err
	}
	return f.rt.RoundTrip(ctx, req)
}

func (f *flakyTransport) Close() error { return f.rt.Close() }

func TestNewRemoteRejectsInvalidLink(t *testing.T) {
	tr := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 1)})
	defer tr.Close()
	if _, err := NewRemote("bad", tr, netsim.LinkConfig{MTU: 10, HeaderBytes: 40}, 1); err == nil {
		t.Fatal("invalid link must fail NewRemote, not panic later")
	}
}

func TestRetryRecoversFromTransientFaults(t *testing.T) {
	inner := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 9)})
	fl := &flakyTransport{rt: inner, failures: 2, err: netsim.ErrInjectedDrop}
	r, err := NewRemote("flaky", fl, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := r.Count(context.Background(), geom.R(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("count = %d, want 9", n)
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// Every attempt's request crossed the metered link (Eq. 1 charges the
	// retransmissions); only the one delivered response was charged.
	u := r.Usage()
	if u.Queries != 3 {
		t.Fatalf("queries = %d, want 3 (1 original + 2 retransmissions)", u.Queries)
	}
	if u.Messages != 4 {
		t.Fatalf("messages = %d, want 4 (3 requests + 1 response)", u.Messages)
	}
}

func TestRetryExhaustionReportsLastError(t *testing.T) {
	inner := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 1)})
	fl := &flakyTransport{rt: inner, failures: 1 << 30, err: netsim.ErrInjectedSever}
	r, err := NewRemote("dead", fl, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Count(context.Background(), geom.R(0, 0, 1, 1)); !errors.Is(err, netsim.ErrInjectedSever) {
		t.Fatalf("err = %v, want ErrInjectedSever", err)
	}
	if fl.calls != 3 {
		t.Fatalf("attempts = %d, want 3", fl.calls)
	}
}

func TestRetryDoesNotRetryClosedTransport(t *testing.T) {
	inner := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 1)})
	fl := &flakyTransport{rt: inner, failures: 1 << 30, err: netsim.ErrClosed}
	r, err := NewRemote("closed", fl, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Count(context.Background(), geom.R(0, 0, 1, 1)); !errors.Is(err, netsim.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if fl.calls != 1 {
		t.Fatalf("attempts = %d, want 1 (ErrClosed is permanent)", fl.calls)
	}
}

func TestRetryStopsOnCanceledContext(t *testing.T) {
	inner := netsim.Serve(scriptedHandler{resp: wire.AppendCountReply(nil, 1)})
	fl := &flakyTransport{rt: inner, failures: 1 << 30, err: netsim.ErrInjectedDrop}
	r, err := NewRemote("canceled", fl, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 100, Backoff: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := r.Count(ctx, geom.R(0, 0, 1, 1)); err == nil {
		t.Fatal("canceled context must fail the query")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v; the hour-long backoff was not interrupted", elapsed)
	}
	if fl.calls > 2 {
		t.Fatalf("attempts = %d; canceled context must stop the retry loop", fl.calls)
	}
}

func TestRetryServerErrorIsTerminal(t *testing.T) {
	// A server that answers with a protocol error has spoken: re-asking
	// an idempotent query cannot change the verdict.
	inner := netsim.Serve(scriptedHandler{resp: wire.AppendError(nil, "no")})
	fl := &flakyTransport{rt: inner}
	r, err := NewRemote("refused", fl, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Count(context.Background(), geom.R(0, 0, 1, 1)); err == nil {
		t.Fatal("server error must surface")
	}
	if fl.calls != 1 {
		t.Fatalf("attempts = %d, want 1 (server errors are not retried)", fl.calls)
	}
}

// readingHandler answers a count, touching the request bytes the whole
// way through so the race detector patrols the frame: if the retry loop
// recycled the buffer while an attempt still read it, -race fails.
type readingHandler struct{ resp []byte }

func (h readingHandler) Handle(req []byte) []byte {
	sum := byte(0)
	for _, b := range req {
		sum += b
	}
	_ = sum
	return h.resp
}

// stallFirstLink stalls its first round trip until the attempt's context
// ends, and passes every later one through.
type stallFirstLink struct {
	netsim.RoundTripper
	calls atomic.Int32
}

func (l *stallFirstLink) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if l.calls.Add(1) == 1 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return l.RoundTripper.RoundTrip(ctx, req)
}

// TestRetryAbandonedAttemptDoesNotRecycleFrame: attempt 1 stalls on the
// link until the per-try timeout abandons it; the retry must succeed over
// the same request frame, which the abandoned attempt no longer reads.
func TestRetryAbandonedAttemptDoesNotRecycleFrame(t *testing.T) {
	tr := &stallFirstLink{RoundTripper: netsim.Serve(readingHandler{resp: wire.AppendCountReply(nil, 5)})}
	r, err := NewRemote("slowstart", tr, netsim.DefaultLink(), 1,
		WithRetry(RetryPolicy{MaxAttempts: 4, PerTryTimeout: 5 * time.Millisecond, Backoff: 20 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := r.Count(context.Background(), geom.R(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	if r.Retries() == 0 {
		t.Fatal("the stalled first attempt should have been retried")
	}
}
