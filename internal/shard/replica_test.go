package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// selLog records the order in which replica transports receive requests,
// so tests can observe the selection policy from below.
type selLog struct {
	mu  sync.Mutex
	seq []int
}

func (l *selLog) record(id int) {
	l.mu.Lock()
	l.seq = append(l.seq, id)
	l.mu.Unlock()
}

func (l *selLog) sequence() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.seq...)
}

// taggedRT stamps every round trip into a selLog before delegating.
type taggedRT struct {
	inner netsim.RoundTripper
	id    int
	log   *selLog
}

func (rt *taggedRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.log.record(rt.id)
	return rt.inner.RoundTrip(ctx, req)
}

func (rt *taggedRT) Close() error { return rt.inner.Close() }

// newTestReplicaSet serves objs from n identical replica servers behind
// one ReplicaSet. wrap, when non-nil, intercepts each replica's
// transport (fault injection, selection logging).
func newTestReplicaSet(t testing.TB, objs []geom.Object, n int, cfg ReplicaConfig,
	wrap func(i int, rt netsim.RoundTripper) netsim.RoundTripper, copts ...client.Option) *ReplicaSet {
	t.Helper()
	rems := make([]*client.Remote, n)
	for i := range rems {
		name := fmt.Sprintf("D-r%d", i+1)
		var rt netsim.RoundTripper = netsim.Serve(server.New(name, objs))
		if wrap != nil {
			rt = wrap(i, rt)
		}
		rem, err := client.NewRemote(name, rt, netsim.DefaultLink(), 1, copts...)
		if err != nil {
			t.Fatal(err)
		}
		rems[i] = rem
	}
	rs, err := NewReplicaSet("D", rems, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs
}

// TestReplicaSelectionDeterministicAndFair pins the selection policy:
// with hedging off and sequential probes, two same-seed replica sets
// produce identical replica sequences (seeded determinism), the rotation
// is strict round-robin, and over one full rotation every replica serves
// at least once — no starvation.
func TestReplicaSelectionDeterministicAndFair(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 11)
	w := dataset.World
	const n, probes = 3, 12
	run := func(seed int64) []int {
		log := &selLog{}
		rs := newTestReplicaSet(t, objs, n, ReplicaConfig{Seed: seed},
			func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
				return &taggedRT{inner: rt, id: i, log: log}
			})
		for k := 0; k < probes; k++ {
			if _, err := rs.Count(context.Background(), w); err != nil {
				t.Fatal(err)
			}
		}
		return log.sequence()
	}
	a, b := run(7), run(7)
	if len(a) != probes {
		t.Fatalf("selection log has %d entries, want %d (no hedge, no failover)", len(a), probes)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at probe %d: replica %d vs %d", i, a[i], b[i])
		}
	}
	served := make([]int, n)
	for i, id := range a {
		served[id]++
		if i > 0 && id != (a[i-1]+1)%n {
			t.Fatalf("probe %d went to replica %d after %d: rotation is not round-robin", i, id, a[i-1])
		}
	}
	for id, c := range served {
		if c == 0 {
			t.Fatalf("replica %d never selected over %d probes: starvation", id, probes)
		}
	}
	if c := run(8); c[0] == a[0] {
		t.Fatalf("seeds 7 and 8 start at the same replica %d: seed does not offset the rotation", c[0])
	}
}

// flakyRT fails round trips while dead is set.
type flakyRT struct {
	inner netsim.RoundTripper
	dead  atomic.Bool
}

var errReplicaDown = errors.New("replica down")

func (rt *flakyRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if rt.dead.Load() {
		return nil, errReplicaDown
	}
	return rt.inner.RoundTrip(ctx, req)
}

func (rt *flakyRT) Close() error { return rt.inner.Close() }

// TestReplicaFailover kills one of two replicas outright: every probe
// must still answer correctly via the survivor, the failover counter
// must advance, and killing the survivor too must surface the real
// transport error (not a context cancellation).
func TestReplicaFailover(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 12)
	w := dataset.World
	flaky := make([]*flakyRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			flaky[i] = &flakyRT{inner: rt}
			return flaky[i]
		})
	want, err := rs.Count(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	flaky[0].dead.Store(true)
	for k := 0; k < 6; k++ {
		got, err := rs.Count(context.Background(), w)
		if err != nil {
			t.Fatalf("probe %d with one dead replica: %v", k, err)
		}
		if got != want {
			t.Fatalf("probe %d: count %d via failover, want %d", k, got, want)
		}
	}
	st := rs.Stats()
	if st.Failovers == 0 {
		t.Fatal("one replica dead for 6 probes, yet Failovers == 0")
	}
	if st.Hedges != 0 {
		t.Fatalf("hedging is off, yet %d hedges launched", st.Hedges)
	}
	flaky[1].dead.Store(true)
	if _, err := rs.Count(context.Background(), w); !errors.Is(err, errReplicaDown) {
		t.Fatalf("both replicas dead: got %v, want the transport's own error", err)
	}
}

// gatePair synchronizes a deterministic hedge race: the slow replica
// never answers (it parks until cancelled), and the fast replica's reply
// is gated until the slow replica's request has been charged — so every
// probe's byte accounting is schedule-independent.
type gatePair struct {
	slowCalls atomic.Int64
	fastCalls atomic.Int64
}

type slowGateRT struct{ g *gatePair }

func (rt *slowGateRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.g.slowCalls.Add(1)
	<-ctx.Done()
	return nil, ctx.Err()
}

func (rt *slowGateRT) Close() error { return nil }

type fastGateRT struct {
	inner netsim.RoundTripper
	g     *gatePair
}

func (rt *fastGateRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	n := rt.fastRound()
	for rt.g.slowCalls.Load() < n {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	return rt.inner.RoundTrip(ctx, req)
}

func (rt *fastGateRT) fastRound() int64 { return rt.g.fastCalls.Add(1) }

func (rt *fastGateRT) Close() error { return rt.inner.Close() }

// newGatedHedgeSet builds the deterministic always-hedge fixture:
// replica 1 answers (after the gate), replica 2 parks until cancelled.
func newGatedHedgeSet(t testing.TB, objs []geom.Object) *ReplicaSet {
	t.Helper()
	g := &gatePair{}
	return newTestReplicaSet(t, objs, 2, ReplicaConfig{HedgeAfter: -1},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			if i == 1 {
				rt.Close() // the parked replica never uses its server
				return &slowGateRT{g: g}
			}
			return &fastGateRT{inner: rt, g: g}
		})
}

// TestReplicaHedgeAccountedExactlyOnce drives the always-hedge fixture
// through a rotation of probes and pins the hedge bookkeeping: every
// probe launches exactly one hedge, every hedge resolves exactly once
// (Hedges == HedgeWins + HedgeLosses), and the fastest-of-two reply is
// consumed exactly once — the count answer never doubles.
func TestReplicaHedgeAccountedExactlyOnce(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 13)
	w := dataset.World
	rs := newGatedHedgeSet(t, objs)
	oracle := 0
	for _, o := range objs {
		if o.MBR.Intersects(w) {
			oracle++
		}
	}
	const probes = 8
	for k := 0; k < probes; k++ {
		got, err := rs.Count(context.Background(), w)
		if err != nil {
			t.Fatalf("probe %d: %v", k, err)
		}
		if got != oracle {
			t.Fatalf("probe %d: count %d, oracle %d — a doubled value means the race merged both replies", k, got, oracle)
		}
	}
	st := rs.Stats()
	if st.Hedges != probes {
		t.Fatalf("launched %d hedges over %d always-hedge probes", st.Hedges, probes)
	}
	if st.Hedges != st.HedgeWins+st.HedgeLosses {
		t.Fatalf("hedge ledger imbalanced: %d launched, %d wins + %d losses", st.Hedges, st.HedgeWins, st.HedgeLosses)
	}
	// The rotation alternates the parked replica between primary and
	// hedge roles, so wins and losses split the probes exactly in half.
	if st.HedgeWins != probes/2 || st.HedgeLosses != probes/2 {
		t.Fatalf("wins/losses = %d/%d, want %d/%d under the alternating fixture",
			st.HedgeWins, st.HedgeLosses, probes/2, probes/2)
	}
}

// TestReplicaHedgeGoldenBytes pins the hedged byte accounting of the
// deterministic fixture: the replica set's merged usage is exactly the
// per-replica sum, the hedged column holds exactly the speculative
// attempts' frames, and primary traffic (WireBytes − HedgedWireBytes) is
// exactly what an unhedged, unreplicated run of the same probes meters.
func TestReplicaHedgeGoldenBytes(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 13)
	w := dataset.World
	rs := newGatedHedgeSet(t, objs)
	const probes = 8
	for k := 0; k < probes; k++ {
		if _, err := rs.Count(context.Background(), w); err != nil {
			t.Fatalf("probe %d: %v", k, err)
		}
	}
	use := rs.Usage()
	perLink := rs.Replicas()[0].Usage().Add(rs.Replicas()[1].Usage())
	if use != perLink {
		t.Fatalf("merged usage %+v differs from per-replica sum %+v", use, perLink)
	}
	oracle, err := rs.Count(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Exact per-frame costs under Eq. 1, derived from the wire encoding
	// itself so the golden arithmetic is self-documenting:
	link := netsim.DefaultLink()
	reqWire := link.TB(len(wire.AppendCount(nil, w)))
	respWire := link.TB(len(wire.AppendCountReply(nil, int64(oracle))))
	// The rotation alternates roles each probe. When the fast replica is
	// primary, it carries a plain request+reply and the parked replica
	// charges one hedged request-only frame (its reply never exists —
	// Metered charges responses only on arrival). When the parked replica
	// is primary, it charges a plain request-only frame and the fast
	// replica carries a hedged request+reply that wins the race.
	wantTotal := probes * (reqWire + respWire + reqWire)
	wantHedged := probes/2*reqWire + probes/2*(reqWire+respWire)
	if use.WireBytes != wantTotal {
		t.Errorf("total wire bytes %d, golden %d", use.WireBytes, wantTotal)
	}
	if use.HedgedWireBytes != wantHedged {
		t.Errorf("hedged wire bytes %d, golden %d", use.HedgedWireBytes, wantHedged)
	}
	if want := probes/2 + probes/2*2; use.HedgedMessages != want {
		t.Errorf("hedged messages %d, golden %d", use.HedgedMessages, want)
	}
	// Primary traffic decomposes to the unhedged bill: the full exchange
	// of every probe plus the parked primaries' orphaned request frames.
	wantPrimary := probes/2*(reqWire+respWire) + probes/2*reqWire
	if primary := use.WireBytes - use.HedgedWireBytes; primary != wantPrimary {
		t.Errorf("primary (non-hedged) wire bytes %d, golden %d", primary, wantPrimary)
	}
}

// TestReplicaSoloPassThrough pins the single-replica wiring: a 1-replica
// set delegates verbatim, so its metered bytes are bit-identical to a
// bare remote issuing the same probes, with zero replica-layer activity.
func TestReplicaSoloPassThrough(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 14)
	w := dataset.World
	rs := newTestReplicaSet(t, objs, 1, ReplicaConfig{HedgePct: 99}, nil)

	tr := netsim.Serve(server.New("D", objs))
	direct, err := client.NewRemote("D", tr, netsim.DefaultLink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	ctx := context.Background()
	if _, err := rs.Count(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Count(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Window(ctx, w); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Window(ctx, w); err != nil {
		t.Fatal(err)
	}
	if got, want := rs.Usage(), direct.Usage(); got != want {
		t.Fatalf("1-replica set metered %+v, direct remote %+v", got, want)
	}
	if st := rs.Stats(); st != (ReplicaStats{}) {
		t.Fatalf("1-replica set recorded replica-layer activity: %+v", st)
	}
}

// TestReplicaBatchFailover drives the batched path: pre-encoded frames
// split round-robin across the replicas' batchers, and when the replica
// holding a frame dies, the frame's private copy is re-submitted to the
// survivor — every call still completes with the right answer.
func TestReplicaBatchFailover(t *testing.T) {
	objs := dataset.GaussianClusters(150, 3, 600, dataset.World, 15)
	w := dataset.World
	for _, killFirst := range []bool{false, true} {
		name := "healthy"
		if killFirst {
			name = "kill-primary"
		}
		t.Run(name, func(t *testing.T) {
			flaky := make([]*flakyRT, 2)
			rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{},
				func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
					flaky[i] = &flakyRT{inner: rt}
					return flaky[i]
				}, client.WithBatch(client.BatchConfig{MaxBatch: 4}))
			want, err := rs.Count(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			if killFirst {
				flaky[0].dead.Store(true)
				flaky[1].dead.Store(false)
			}
			const frames = 6
			reqs := make([][]byte, frames)
			for i := range reqs {
				reqs[i] = wire.AppendCount(bufpool.Get(), w)
			}
			calls := rs.GoBatch(context.Background(), reqs)
			for i, c := range calls {
				got, err := c.Count()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("frame %d: count %d, want %d", i, got, want)
				}
			}
			st := rs.Stats()
			if killFirst && st.Failovers == 0 {
				t.Fatal("primary replica dead, yet no batched frame failed over")
			}
			if !killFirst && st.Failovers != 0 {
				t.Fatalf("healthy replicas, yet %d failovers", st.Failovers)
			}
		})
	}
}
