package health

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
)

var errDown = errors.New("endpoint down")

// fastCfg trips after 2 consecutive failures and probes every few ms —
// quick enough for tests, slow enough to be deterministic.
func fastCfg() Config {
	return Config{
		ConsecutiveFailures: 2,
		OpenFor:             5 * time.Millisecond,
		ProbeInterval:       2 * time.Millisecond,
		ProbeBudget:         50 * time.Millisecond,
	}
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := NewBreaker("x", fastCfg())
	if b.State() != Closed || !b.Allow() {
		t.Fatalf("new breaker not closed/allowing")
	}
	b.ReportFailure(errDown)
	if b.State() != Closed {
		t.Fatalf("tripped after one failure; want %d consecutive", 2)
	}
	b.ReportFailure(errDown)
	if b.State() != Open {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatalf("open breaker admitted traffic inside the cool-down")
	}
	if got := b.Stats().Opens; got != 1 {
		t.Fatalf("Opens = %d, want 1", got)
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	cfg := fastCfg()
	cfg.ConsecutiveFailures = 1000 // force the EWMA path
	cfg.FailureRate = 0.5
	cfg.MinSamples = 4
	b := NewBreaker("x", cfg)
	// Alternate success/failure: consecutive never exceeds 1, but the
	// EWMA hovers around 0.5 and must trip once MinSamples is reached.
	for i := 0; i < 20 && b.State() == Closed; i++ {
		if i%2 == 0 {
			b.ReportFailure(errDown)
		} else {
			b.ReportSuccess(time.Millisecond)
		}
	}
	if b.State() != Open {
		t.Fatalf("flapping endpoint never tripped the EWMA threshold (rate %.2f)", b.ewmaFail)
	}
}

func TestBreakerHalfOpenTrialAndReclose(t *testing.T) {
	b := NewBreaker("x", fastCfg())
	b.ReportFailure(errDown)
	b.ReportFailure(errDown)
	if b.Allow() {
		t.Fatalf("admitted during cool-down")
	}
	time.Sleep(7 * time.Millisecond)
	if !b.Allow() {
		t.Fatalf("cool-down elapsed but no half-open trial admitted")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after trial admission = %v, want half-open", b.State())
	}
	// Failed trial re-opens...
	b.ReportFailure(errDown)
	if b.State() != Open {
		t.Fatalf("failed trial left state %v, want open", b.State())
	}
	// ...and a successful trial after the next cool-down re-closes.
	time.Sleep(7 * time.Millisecond)
	if !b.Allow() {
		t.Fatalf("second trial not admitted")
	}
	b.ReportSuccess(time.Millisecond)
	if b.State() != Closed {
		t.Fatalf("successful trial left state %v, want closed", b.State())
	}
	st := b.Stats()
	if st.Opens != 2 || st.Closes != 1 || st.HalfOpens != 2 {
		t.Fatalf("transition counters = %+v, want 2 opens, 1 close, 2 half-opens", st)
	}
}

func TestRegistryProberReclosesBreaker(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	var probes atomic.Int64
	reg := NewRegistry(fastCfg())
	defer reg.Close()
	b := reg.Breaker("x", func(ctx context.Context) error {
		probes.Add(1)
		if down.Load() {
			return errDown
		}
		return nil
	})
	b.ReportFailure(errDown)
	b.ReportFailure(errDown)
	if b.State() != Open {
		t.Fatalf("breaker not open")
	}
	// While the endpoint stays down, probes fail and the breaker stays
	// open with the cool-down pushed out (no live trial admitted).
	deadline := time.Now().Add(time.Second)
	for probes.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if probes.Load() < 3 {
		t.Fatalf("prober issued %d probes, want ≥ 3", probes.Load())
	}
	if b.State() != Open {
		t.Fatalf("state with endpoint down = %v, want open", b.State())
	}
	// Revive: the next probe succeeds and the breaker re-closes with no
	// live traffic involved.
	down.Store(false)
	for b.State() != Closed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.State() != Closed {
		t.Fatalf("breaker never re-closed after revive (state %v)", b.State())
	}
	if b.Stats().Probes == 0 {
		t.Fatalf("Probes counter is zero after recovery probing")
	}
}

// TestRegistryCloseStopsProberMidProbe is the half-open prober leak
// check: open a breaker whose probe blocks, close the registry while a
// probe is in flight, and verify both that Close returns (the probe's
// context is cancelled) and that no prober goroutine survives.
func TestRegistryCloseStopsProberMidProbe(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := fastCfg()
	cfg.ProbeBudget = time.Minute // only cancellation can end a probe
	reg := NewRegistry(cfg)
	entered := make(chan struct{}, 8)
	b := reg.Breaker("x", func(ctx context.Context) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-ctx.Done() // hang until the registry shuts the prober down
		return ctx.Err()
	})
	b.ReportFailure(errDown)
	b.ReportFailure(errDown)
	select {
	case <-entered:
	case <-time.After(time.Second):
		t.Fatalf("prober never started its probe")
	}
	done := make(chan struct{})
	go func() { reg.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("registry Close hung on an in-flight probe")
	}
	// A breaker tripping after Close must not spawn a prober either.
	b.ReportSuccess(0)
	b.ReportFailure(errDown)
	b.ReportFailure(errDown)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after registry close\n%s",
			before, now, buf[:runtime.Stack(buf, true)])
	}
}

func TestRegistryAggregation(t *testing.T) {
	reg := NewRegistry(fastCfg())
	defer reg.Close()
	a := reg.Breaker("a", nil)
	bb := reg.Breaker("b", nil)
	if got := reg.Breaker("a", nil); got != a {
		t.Fatalf("Breaker(a) returned a new instance on second call")
	}
	a.ReportFailure(errDown)
	a.ReportFailure(errDown)
	a.Skip()
	a.Skip()
	bb.ReportSuccess(time.Millisecond)
	if got := a.Stats().Opens; got != 1 {
		t.Fatalf("a.Opens = %d, want 1", got)
	}
	sum := reg.Stats()
	if sum.Opens != 1 || sum.Skips != 2 {
		t.Fatalf("registry sum = %+v, want 1 open / 2 skips", sum)
	}
	if reg.AllClosed() {
		t.Fatalf("AllClosed true with one breaker open")
	}
	names := make([]string, 0, 2)
	for _, b := range reg.Breakers() {
		names = append(names, b.Name())
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("Breakers order = %v, want [a b]", names)
	}
}

func TestReportDedupAndOrder(t *testing.T) {
	rep := NewReport()
	if gaps := rep.Gaps(); len(gaps) != 0 {
		t.Fatalf("new report has gaps %v", gaps)
	}
	bounds := geom.R(0, 0, 10, 10)
	rep.Record("S", "S2/2", geom.Rect{}, 0, "killed")
	rep.Record("S", "S2/2", bounds, 42, "killed again")
	rep.Record("R", "R1/2", bounds, 7, "severed")
	gaps := rep.Gaps()
	if len(gaps) != 2 {
		t.Fatalf("got %d gaps, want 2 (deduplicated)", len(gaps))
	}
	g := gaps[0]
	if g.Shard != "S2/2" || g.Queries != 2 || g.Count != 42 || g.Bounds != bounds || g.Reason != "killed" {
		t.Fatalf("dedup gap = %+v: want 2 queries, late-filled count/bounds, first reason", g)
	}
	if gaps[1].Shard != "R1/2" {
		t.Fatalf("gap order not first-seen: %+v", gaps)
	}

	c := &Completeness{ShardsTotal: 4, ShardsAnswered: 2, Gaps: gaps}
	if c.Complete() {
		t.Fatalf("report with gaps claims complete")
	}
	s := c.String()
	for _, want := range []string{"2/4 shards", "S/S2/2", "R/R1/2", "killed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Completeness string %q missing %q", s, want)
		}
	}
	var nilC *Completeness
	if !nilC.Complete() || nilC.String() != "complete" {
		t.Fatalf("nil Completeness must read as complete")
	}
}

func TestReportContextPlumbing(t *testing.T) {
	if ReportFrom(context.Background()) != nil {
		t.Fatalf("ReportFrom on a bare context should be nil")
	}
	rep := NewReport()
	ctx := WithReport(context.Background(), rep)
	if ReportFrom(ctx) != rep {
		t.Fatalf("ReportFrom lost the collector")
	}
}
