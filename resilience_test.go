package repro

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNewSessionRejectsInvalidLink(t *testing.T) {
	_, err := NewSession(SessionConfig{
		R: GaussianClusters(10, 1, 10, World, 1),
		S: GaussianClusters(10, 1, 10, World, 2),
		// MTU below the header size: Eq. (1) is undefined. This used to
		// panic deep in the meter; it must surface here instead.
		Link: LinkConfig{MTU: 10, HeaderBytes: 40},
	})
	if err == nil {
		t.Fatal("invalid link must fail NewSession")
	}
}

func TestRunContextCancellation(t *testing.T) {
	sess, err := NewSession(SessionConfig{
		R:      GaussianClusters(500, 4, 250, World, 1),
		S:      GaussianClusters(500, 4, 250, World, 2),
		Buffer: 400,
		// A simulated 10ms RTT makes the join take long enough that the
		// cancellation provably lands mid-run.
		Link: LinkConfig{MTU: 1500, HeaderBytes: 40, RTT: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sess.RunContext(ctx, UpJoin{}, Spec{Kind: Distance, Eps: 75})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 1 RTT + slack", elapsed)
	}
}

func TestSessionRunTimeout(t *testing.T) {
	sess, err := NewSession(SessionConfig{
		R:      GaussianClusters(500, 4, 250, World, 3),
		S:      GaussianClusters(500, 4, 250, World, 4),
		Buffer: 400,
		Link:   LinkConfig{MTU: 1500, HeaderBytes: 40, RTT: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err = sess.RunContext(ctx, UpJoin{}, Spec{Kind: Distance, Eps: 75})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("the run deadline fired after %v", elapsed)
	}
}

func TestSessionRetryKnobKeepsFailureFreeRunsIdentical(t *testing.T) {
	mk := func(retry RetryPolicy) *Result {
		sess, err := NewSession(SessionConfig{
			R:      GaussianClusters(400, 4, 250, World, 5),
			S:      GaussianClusters(400, 4, 250, World, 6),
			Buffer: 400, Seed: 9, Retry: retry,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Run(UpJoin{}, Spec{Kind: Distance, Eps: 75})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := mk(RetryPolicy{})
	retried := mk(DefaultRetry())
	if plain.Stats.TotalBytes() != retried.Stats.TotalBytes() {
		t.Fatalf("retry policy changed failure-free accounting: %d vs %d",
			plain.Stats.TotalBytes(), retried.Stats.TotalBytes())
	}
	if len(plain.Pairs) != len(retried.Pairs) {
		t.Fatalf("retry policy changed failure-free results")
	}
}
