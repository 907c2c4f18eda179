package client

import (
	"slices"
	"sync"
	"time"
)

// LatencyTracker keeps a bounded window of recent round-trip attempt
// durations and answers quantile queries over it. The replica layer
// feeds it one sample per successful non-speculative attempt and reads
// a high percentile back as the hedge threshold: "this probe has taken
// longer than p of its recent peers — race a second replica".
//
// The window is a fixed-size ring, so the tracker adapts to load shifts
// (old samples age out) and its memory is constant. Add is O(1) under a
// mutex; Quantile copies and sorts the window, which is cheap at the
// default size and called at most once per probe.
type LatencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration // ring storage, len == cap once full
	next    int             // ring write cursor
	full    bool
}

// latencyWindow bounds the ring.
const latencyWindow = 256

// NewLatencyTracker returns a tracker windowed to the last latencyWindow
// samples.
func NewLatencyTracker() *LatencyTracker {
	return &LatencyTracker{samples: make([]time.Duration, 0, latencyWindow)}
}

// Add records one attempt duration.
func (t *LatencyTracker) Add(d time.Duration) {
	t.mu.Lock()
	if t.full {
		t.samples[t.next] = d
		t.next = (t.next + 1) % cap(t.samples)
	} else {
		t.samples = append(t.samples, d)
		if len(t.samples) == cap(t.samples) {
			t.full = true
		}
	}
	t.mu.Unlock()
}

// Quantile returns the pct-th percentile (0 < pct <= 100) of the
// windowed samples by nearest-rank, and false when fewer than min
// samples have been observed — a hedge threshold derived from a handful
// of measurements would be noise, so callers gate on it.
func (t *LatencyTracker) Quantile(pct float64, min int) (time.Duration, bool) {
	t.mu.Lock()
	n := len(t.samples)
	if n == 0 || n < min {
		t.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, t.samples)
	t.mu.Unlock()
	slices.Sort(buf)
	if pct <= 0 {
		return buf[0], true
	}
	if pct > 100 {
		pct = 100
	}
	rank := int(float64(n)*pct/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return buf[rank], true
}
