package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
func newGatedHedgeSet(t testing.TB, objs []geom.Object, copts ...client.Option) *ReplicaSet {
	t.Helper()
	g := &gatePair{}
	return newTestReplicaSet(t, objs, 2, ReplicaConfig{HedgeAfter: -1},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			if i == 1 {
				rt.Close() // the parked replica never uses its server
				return &slowGateRT{g: g}
			}
			return &fastGateRT{inner: rt, g: g}
		}, copts...)
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
	perLink := rs.replicas[0].Usage().Add(rs.replicas[1].Usage())
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

// TestReplicaHedgesBatchedProbes: a batched set hedges the probes it is
// handed through GoBatch as Do hedges one. Every probe of the always-hedge
// fixture races a hedge, each hedge resolves exactly once, and the hedged
// column holds exactly the hedges — bare frames sent through the sibling's
// Do, never an envelope of the batcher, whose primaries stay unhedged.
func TestReplicaHedgesBatchedProbes(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 13)
	w := dataset.World
	rs := newGatedHedgeSet(t, objs, client.WithBatch(client.BatchConfig{MaxBatch: 8}))
	oracle := 0
	for _, o := range objs {
		if o.MBR.Intersects(w) {
			oracle++
		}
	}
	const probes = 4
	reqs := make([][]byte, probes)
	for i := range reqs {
		reqs[i] = wire.AppendCount(bufpool.Get(), w)
	}
	// The deadline only bounds a regression: a batched primary on the
	// parked replica that no hedge rescues would wait for it forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, c := range rs.GoBatch(ctx, reqs) {
		if got, err := c.Count(); err != nil || got != oracle {
			t.Fatalf("probe %d: count %d, %v; oracle %d", i, got, err, oracle)
		}
	}
	st := rs.Stats()
	if st.Hedges != probes {
		t.Fatalf("launched %d hedges over %d always-hedge batched probes", st.Hedges, probes)
	}
	if st.Hedges != st.HedgeWins+st.HedgeLosses {
		t.Fatalf("hedge ledger imbalanced: %d launched, %d wins + %d losses", st.Hedges, st.HedgeWins, st.HedgeLosses)
	}
	// The rotation gives each replica two primaries and the other replica
	// their hedges: the parked replica meters two hedged requests with no
	// reply, the answering one two hedged requests and their replies.
	link := netsim.DefaultLink()
	reqWire := link.TB(len(wire.AppendCount(nil, w)))
	respWire := link.TB(len(wire.AppendCountReply(nil, int64(oracle))))
	use := rs.Usage()
	if want := probes*reqWire + probes/2*respWire; use.HedgedWireBytes != want {
		t.Errorf("hedged wire bytes %d, want the hedge frames' %d", use.HedgedWireBytes, want)
	}
	if want := probes + probes/2; use.HedgedMessages != want {
		t.Errorf("hedged messages %d, want %d", use.HedgedMessages, want)
	}
}

// goroutineRT records how many goroutines run while it carries a round
// trip.
type goroutineRT struct {
	netsim.RoundTripper
	seen atomic.Int64
}

func (rt *goroutineRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.seen.Store(int64(runtime.NumGoroutine()))
	return rt.RoundTripper.RoundTrip(ctx, req)
}

// TestReplicaUnhedgedAttemptOnCallersGoroutine: an unhedged set sends a
// probe on the goroutine that waits for it — Do on its caller's, a lone
// GoBatch call on its waiter's — so no round trip sees a goroutine that
// was not running before the probe.
func TestReplicaUnhedgedAttemptOnCallersGoroutine(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 16)
	w := dataset.World
	rts := make([]*goroutineRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			rts[i] = &goroutineRT{RoundTripper: rt}
			return rts[i]
		})
	ctx := context.Background()
	probes := map[string]func() (int, error){
		"Do": func() (int, error) { return rs.Count(ctx, w) },
		"GoBatch": func() (int, error) {
			return rs.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count()
		},
	}
	for name, probe := range probes {
		for k := 0; k < len(rts); k++ { // the rotation visits every replica
			for _, rt := range rts {
				rt.seen.Store(0)
			}
			before := runtime.NumGoroutine()
			if _, err := probe(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, rt := range rts {
				if seen := rt.seen.Load(); seen > int64(before) {
					t.Errorf("%s: replica %d's round trip ran beside %d goroutines, %d before the probe",
						name, i, seen, before)
				}
			}
		}
	}
}

// pipeRT is a pipelining transport that counts how requests reach it.
type pipeRT struct {
	netsim.RoundTripper
	trips, pipelines atomic.Int64
}

func (rt *pipeRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	rt.trips.Add(1)
	return rt.RoundTripper.RoundTrip(ctx, req)
}

func (rt *pipeRT) Pipeline(ctx context.Context, reqs, resps [][]byte) (int, error) {
	rt.pipelines.Add(1)
	return netsim.Pipeline(ctx, rt.RoundTripper, reqs, resps)
}

// TestReplicaGroupPipelines: an unbatched set hands each replica its
// share of a probe group as one submission, so the share crosses the
// replica's link as one pipelined chunk, not as a round trip per probe.
func TestReplicaGroupPipelines(t *testing.T) {
	objs := dataset.GaussianClusters(120, 3, 600, dataset.World, 17)
	w := dataset.World
	rts := make([]*pipeRT, 2)
	rs := newTestReplicaSet(t, objs, 2, ReplicaConfig{},
		func(i int, rt netsim.RoundTripper) netsim.RoundTripper {
			rts[i] = &pipeRT{RoundTripper: rt}
			return rts[i]
		})
	const probes = 6
	reqs := make([][]byte, probes)
	for i := range reqs {
		reqs[i] = wire.AppendCount(bufpool.Get(), w)
	}
	for i, c := range rs.GoBatch(context.Background(), reqs) {
		if _, err := c.Count(); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	for i, rt := range rts {
		if p, n := rt.pipelines.Load(), rt.trips.Load(); p != 1 || n != 0 {
			t.Errorf("replica %d: %d pipelined chunks and %d lone round trips, want the group's share as 1 chunk", i, p, n)
		}
	}
}
