package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// countingRT counts round trips before delegating, optionally failing
// while dead — the observable floor of the stack: a breaker skip is a
// call that never shows up here.
type countingRT struct {
	inner netsim.RoundTripper
	calls atomic.Int64
	dead  atomic.Bool
}

func (rt *countingRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.calls.Add(1)
	if rt.dead.Load() {
		return nil, errReplicaDown
	}
	return rt.inner.RoundTrip(ctx, req)
}

func (rt *countingRT) Close() error { return rt.inner.Close() }

// quietBreakers is a breaker config whose cool-down and probe cadence
// are far beyond the test horizon: once open, a breaker stays open and
// no background prober fires — so transport call counts are exactly the
// live traffic.
func quietBreakers() health.Config {
	return health.Config{
		ConsecutiveFailures: 2,
		OpenFor:             time.Hour,
		ProbeInterval:       time.Hour,
	}
}

// TestReplicaBreakerSkipsKnownDeadReplica pins the acceptance property
// of proactive skipping: after a replica's breaker opens, rotation stops
// spending probes on it — its transport receives zero further calls —
// and the saved probes are observable in Usage().BreakerSkips, which a
// reactive-failover stack (no breaker) would have paid as real attempts.
func TestReplicaBreakerSkipsKnownDeadReplica(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 21)
	w := dataset.World
	reg := health.NewRegistry(quietBreakers())
	defer reg.Close()
	rts := make([]*countingRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{Health: reg},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			rts[i] = &countingRT{inner: rt}
			return rts[i]
		})
	want, err := rs.Count(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	rts[0].dead.Store(true)
	// Drive probes until the dead replica's breaker trips (2 consecutive
	// failures, each discovered by a live attempt that fails over).
	for k := 0; k < 4; k++ {
		if _, err := rs.Count(context.Background(), w); err != nil {
			t.Fatalf("probe %d with one dead replica: %v", k, err)
		}
	}
	if rs.brk[0].State() != health.Open {
		t.Fatalf("replica 0 breaker %v after repeated failures, want Open", rs.brk[0].State())
	}
	deadCalls := rts[0].calls.Load()
	const probes = 10
	for k := 0; k < probes; k++ {
		got, err := rs.Count(context.Background(), w)
		if err != nil {
			t.Fatalf("probe %d with breaker open: %v", k, err)
		}
		if got != want {
			t.Fatalf("probe %d: count %d, want %d", k, got, want)
		}
	}
	if n := rts[0].calls.Load(); n != deadCalls {
		t.Fatalf("open-circuit replica received %d more calls; a known-dead replica must cost zero probes", n-deadCalls)
	}
	u := rs.Usage()
	if u.BreakerOpens != 1 {
		t.Fatalf("Usage().BreakerOpens = %d, want 1", u.BreakerOpens)
	}
	// Rotation alternates primaries, so about half of the probes wanted
	// the dead replica first: each such probe is one saved attempt.
	if u.BreakerSkips < probes/2 {
		t.Fatalf("Usage().BreakerSkips = %d over %d probes, want >= %d saved attempts",
			u.BreakerSkips, probes, probes/2)
	}
}

// TestReplicaHedgeSkipsOpenBreaker pins the hedge/breaker interaction:
// with hedging armed to fire on every probe, an open-circuit sibling
// must make the hedge not launch at all — zero speculative attempts
// against a known-dead replica, zero calls on its transport, and the
// hedge counter frozen while the breaker is open.
func TestReplicaHedgeSkipsOpenBreaker(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 22)
	w := dataset.World
	reg := health.NewRegistry(quietBreakers())
	defer reg.Close()
	rts := make([]*countingRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{Health: reg, HedgeAfter: -1},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			rts[i] = &countingRT{inner: rt}
			return rts[i]
		})
	want, err := rs.Count(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	rts[1].dead.Store(true)
	const tripping = 4
	for k := 0; k < tripping; k++ {
		if _, err := rs.Count(context.Background(), w); err != nil {
			t.Fatalf("probe %d while tripping the breaker: %v", k, err)
		}
	}
	// Every probe so far attempted the dead replica, as primary or as
	// hedge, until its breaker opened; whenever the live replica answered
	// first, that attempt was still in flight when the probe returned.
	// Each of them is scored as a failure once it completes (losing the
	// race is no excuse), so the breaker opens without further probes —
	// wait for the stragglers instead of racing them: first until every
	// attempt launched (one primary per probe, plus hedges and failovers)
	// has reached a transport, then until the breaker has the verdict.
	waitFor(t, "every launched attempt to reach its transport", func() bool {
		st := rs.Stats()
		return rts[0].calls.Load()+rts[1].calls.Load() == 1+tripping+st.Hedges+st.Failovers
	})
	waitFor(t, "replica 1's breaker to open", func() bool {
		return rs.brk[1].State() == health.Open
	})
	hedges0 := rs.Stats().Hedges
	deadCalls := rts[1].calls.Load()
	for k := 0; k < 10; k++ {
		got, err := rs.Count(context.Background(), w)
		if err != nil {
			t.Fatalf("probe %d with open sibling: %v", k, err)
		}
		if got != want {
			t.Fatalf("probe %d: count %d, want %d", k, got, want)
		}
	}
	st := rs.Stats()
	if st.Hedges != hedges0 {
		t.Fatalf("%d hedges launched against an open-circuit sibling, want 0 (wasted hedges)",
			st.Hedges-hedges0)
	}
	if n := rts[1].calls.Load(); n != deadCalls {
		t.Fatalf("open-circuit replica received %d speculative calls, want 0", n-deadCalls)
	}
}

// waitFor polls cond until it holds; the condition must be one the code
// under test guarantees to reach, so the deadline only bounds a failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReplicaScoreClassifiesByError pins what feeds a replica's breaker:
// the error an attempt returned decides, not the state its context has
// reached since. A replica-down error scored after the hedge partner won
// (attempt context cancelled) is a failure all the same; cancellation, a
// spent budget and a transport we closed are not the endpoint's fault; a
// timeout while the attempt still had budget is.
func TestReplicaScoreClassifiesByError(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	live := context.Background()
	for _, tc := range []struct {
		name    string
		err     error
		actx    context.Context
		failure bool
	}{
		{"replica down, context live", errReplicaDown, live, true},
		{"replica down, hedge partner already won", fmt.Errorf("D-r2: %w", errReplicaDown), cancelled, true},
		{"replica down, budget since spent", errReplicaDown, expired, true},
		{"per-try timeout inside the budget", fmt.Errorf("D-r2: %w", context.DeadlineExceeded), live, true},
		{"per-try timeout, hedge partner already won", context.DeadlineExceeded, cancelled, true},
		{"lost hedge race", fmt.Errorf("D-r2: %w", context.Canceled), cancelled, false},
		{"budget spent", fmt.Errorf("D-r2: %w", context.DeadlineExceeded), expired, false},
		{"transport closed by us", fmt.Errorf("D-r2: %w", netsim.ErrClosed), live, false},
	} {
		reg := health.NewRegistry(quietBreakers())
		rs := newTestReplicaSet(t, dataset.Uniform(10, dataset.World, 1), 2, ReplicaConfig{Health: reg}, nil)
		brk := rs.brk[1]
		for k := 0; k < 2; k++ { // quietBreakers opens on two consecutive failures
			rs.score(1, tc.err, tc.actx)
		}
		if got := brk.State() == health.Open; got != tc.failure {
			t.Errorf("%s: breaker %v after two such outcomes, scored as failure = %v, want %v",
				tc.name, brk.State(), got, tc.failure)
		}
		reg.Close()
	}
}

// TestReplicaBreakerRecovers revives a dead replica and lets the
// registry's background INFO prober re-close its breaker: traffic must
// return to the replica without any live probe paying the rediscovery.
func TestReplicaBreakerRecovers(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 23)
	w := dataset.World
	reg := health.NewRegistry(health.Config{
		ConsecutiveFailures: 2,
		OpenFor:             time.Hour, // live trials never happen; recovery is the prober's
		ProbeInterval:       2 * time.Millisecond,
		ProbeBudget:         time.Second,
	})
	defer reg.Close()
	rts := make([]*countingRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{Health: reg},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			rts[i] = &countingRT{inner: rt}
			return rts[i]
		})
	rts[0].dead.Store(true)
	for k := 0; k < 4; k++ {
		if _, err := rs.Count(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	if rs.brk[0].State() != health.Open {
		t.Fatalf("breaker %v, want Open", rs.brk[0].State())
	}
	rts[0].dead.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for rs.brk[0].State() != health.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker still %v 2s after revival; prober did not re-close it",
				rs.brk[0].State())
		}
		time.Sleep(time.Millisecond)
	}
	if !rs.Healthy() {
		t.Fatal("set not Healthy after breaker re-closed")
	}
	if n := rs.brk[0].Stats().Probes; n == 0 {
		t.Fatal("breaker re-closed with zero recovery probes recorded")
	}
}

// TestRouterRoutesAroundDeadShardPartial drives the router path: a
// 2-shard relation with one shard fully dead under partial mode answers
// with the live shard's contribution, records the dead shard as a gap
// with its advertised bounds and count, and skips the dead shard before
// spending a probe once its breakers are open.
func TestRouterRoutesAroundDeadShardPartial(t *testing.T) {
	objs := dataset.GaussianClusters(400, 4, 800, dataset.World, 24)
	parts := Assign(objs, 2)
	reg := health.NewRegistry(quietBreakers())
	defer reg.Close()
	var dead atomic.Bool
	var s2calls atomic.Int64
	router, err := ServeLocal("D", objs, LocalConfig{
		Shards: 2, Replicas: 2, Health: reg,
		Link: netsim.DefaultLink(), Price: 1,
		WrapTransport: func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
			if len(name) >= 4 && name[:4] == "D2/2" {
				return &gateDeadRT{inner: rt, dead: &dead, calls: &s2calls}
			}
			return rt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	w := dataset.World
	ctx := context.Background()
	// Warm the INFO cache while everything is alive, so the dead shard's
	// gap later carries its advertised bounds and cardinality.
	if _, err := router.Info(ctx); err != nil {
		t.Fatal(err)
	}
	full, err := router.Count(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	dead.Store(true)
	rep := health.NewReport()
	pctx := health.WithReport(ctx, rep)
	// First partial probes trip the shard-2 breakers via live failures.
	var got int
	for k := 0; k < 4; k++ {
		if got, err = router.Count(pctx, w); err != nil {
			t.Fatalf("partial count %d: %v", k, err)
		}
	}
	liveOnly := 0
	for _, o := range parts[0] {
		if o.MBR.Intersects(w) {
			liveOnly++
		}
	}
	if got != liveOnly {
		t.Fatalf("partial count %d, want live shard's %d (full answer was %d)", got, liveOnly, full)
	}
	gaps := rep.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("%d gaps recorded, want 1 (the dead shard): %+v", len(gaps), gaps)
	}
	g := gaps[0]
	if g.Relation != "D" || g.Shard != "D2/2" {
		t.Fatalf("gap names %s/%s, want D/D2/2", g.Relation, g.Shard)
	}
	if g.Count != int64(len(parts[1])) {
		t.Fatalf("gap advertises %d objects, want the dead shard's %d", g.Count, len(parts[1]))
	}
	// Once the shard's breakers are open the router skips it proactively.
	if !routerShardHealthy(router, 0) {
		t.Fatal("live shard reported unhealthy")
	}
	if routerShardHealthy(router, 1) {
		t.Fatal("dead shard still reported healthy after breaker trips")
	}
	calls0 := s2calls.Load()
	for k := 0; k < 6; k++ {
		if _, err := router.Count(pctx, w); err != nil {
			t.Fatal(err)
		}
	}
	if n := s2calls.Load(); n != calls0 {
		t.Fatalf("dead shard's links received %d more calls after its breakers opened, want 0", n-calls0)
	}
	if u := router.Usage(); u.BreakerSkips == 0 {
		t.Fatal("no breaker skips recorded while routing around a dead shard")
	}
}

// gateDeadRT fails round trips while *dead is set, counting every call.
type gateDeadRT struct {
	inner netsim.RoundTripper
	dead  *atomic.Bool
	calls *atomic.Int64
}

func (rt *gateDeadRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.calls.Add(1)
	if rt.dead.Load() {
		return nil, errReplicaDown
	}
	return rt.inner.RoundTrip(ctx, req)
}

func (rt *gateDeadRT) Close() error { return rt.inner.Close() }

func routerShardHealthy(r *Router, i int) bool {
	h, ok := r.Shards()[i].(interface{ Healthy() bool })
	if !ok {
		return true
	}
	return h.Healthy()
}

// TestReplicaBudgetBoundsProbe pins deadline-budget propagation at the
// replica layer: with every replica hanging until cancelled, a probe
// must return once its budget is spent — not after per-try timeouts
// stacked across replicas.
func TestReplicaBudgetBoundsProbe(t *testing.T) {
	objs := dataset.GaussianClusters(60, 2, 600, dataset.World, 25)
	rs := newTestReplicaSet(t, objs, 3, ReplicaConfig{Budget: 80 * time.Millisecond},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			return hangRT{inner: rt}
		})
	t0 := time.Now()
	_, err := rs.Count(context.Background(), dataset.World)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("probe against all-hung replicas succeeded")
	}
	if elapsed > time.Second {
		t.Fatalf("probe took %v; budget of 80ms should bound the walk across 3 hung replicas", elapsed)
	}
}

// hangRT parks every round trip until the context gives up.
type hangRT struct{ inner netsim.RoundTripper }

func (rt hangRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (rt hangRT) Close() error { return rt.inner.Close() }

// openBreaker trips replica i's breaker with reported failures (no
// traffic), so a test can tell frames spent on it from frames saved.
func openBreaker(t *testing.T, rs *ReplicaSet, i int) {
	t.Helper()
	for k := 0; k < 2; k++ {
		rs.brk[i].ReportFailure(errReplicaDown)
	}
	if st := rs.brk[i].State(); st != health.Open {
		t.Fatalf("replica %d breaker %v after reported failures, want Open", i, st)
	}
}

// TestReplicaBatchedProbeFollowsDoPolicy pins the batched path to the
// synchronous one's policy. Budget: a batched probe whose primary hangs
// returns once the budget is spent, like Do — not after the caller's own
// deadline. Breakers: a batched failover skips an open-circuit sibling
// (counted, no frame spent) in favour of an admitted one, like Do —
// instead of walking the rotation straight through it.
func TestReplicaBatchedProbeFollowsDoPolicy(t *testing.T) {
	objs := dataset.GaussianClusters(60, 2, 600, dataset.World, 25)
	batch := client.WithBatch(client.BatchConfig{MaxBatch: 4})
	submit := func(ctx context.Context, rs *ReplicaSet) *client.Call {
		return rs.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), dataset.World)})[0]
	}

	t.Run("budget", func(t *testing.T) {
		reg := health.NewRegistry(quietBreakers())
		defer reg.Close()
		var sibling *countingRT
		rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{Health: reg, Budget: 80 * time.Millisecond},
			func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
				if i == 0 {
					return hangRT{inner: rt} // the rotation's first primary
				}
				sibling = &countingRT{inner: rt}
				return sibling
			}, batch)
		openBreaker(t, rs, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		t0 := time.Now()
		_, err := submit(ctx, rs).Count()
		if elapsed := time.Since(t0); err == nil || elapsed > time.Second {
			t.Fatalf("batched probe on a hung primary: err %v after %v; the 80ms budget should bound it", err, elapsed)
		}
		if n := sibling.calls.Load(); n != 0 {
			t.Errorf("open-circuit sibling received %d frames after the budget was spent, want 0", n)
		}
	})

	t.Run("breakers", func(t *testing.T) {
		reg := health.NewRegistry(quietBreakers())
		defer reg.Close()
		rts := make([]*countingRT, 3)
		rs := newTestReplicaSet(t, objs, 3, ReplicaConfig{Health: reg},
			func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
				rts[i] = &countingRT{inner: rt}
				return rts[i]
			}, batch)
		rts[0].dead.Store(true) // the rotation's first primary fails over
		openBreaker(t, rs, 1)
		n, err := submit(context.Background(), rs).Count()
		if err != nil || n != len(objs) {
			t.Fatalf("batched probe with one dead and one open replica: count %d, %v; want %d from the healthy one", n, err, len(objs))
		}
		if calls := rts[1].calls.Load(); calls != 0 {
			t.Errorf("open-circuit sibling received %d frames during failover, want 0", calls)
		}
		if skips := rs.brk[1].Stats().Skips; skips != 1 {
			t.Errorf("open-circuit sibling counted %d skips, want 1", skips)
		}
		if rts[2].calls.Load() == 0 || rs.Stats().Failovers != 1 {
			t.Errorf("healthy replica served %d frames over %d failovers, want the one failover to reach it",
				rts[2].calls.Load(), rs.Stats().Failovers)
		}
	})
}
