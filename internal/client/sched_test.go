package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

// --- white-box scheduler invariants ---------------------------------------
//
// pick() is a pure function of the lane state under b.mu, so the
// scheduling invariants — weighted fairness, strict priority,
// starvation bound — are tested directly against a hand-built batcher:
// deterministic, transport-free, and immune to timing.

// newLaneBatcher builds a dispatch-less batcher in scheduler mode.
func newLaneBatcher(sched *Scheduler, max int) *batcher {
	return &batcher{
		max:   max,
		sched: sched,
		lanes: make(map[netsim.TenantID]*lane),
	}
}

// fill appends n dummy calls of reqBytes each to the tenant's lane.
func (b *batcher) fill(id netsim.TenantID, n, reqBytes int) {
	ln := b.lanes[id]
	if ln == nil {
		ln = &lane{}
		b.lanes[id] = ln
		b.order = append(b.order, id)
	}
	ctx := netsim.WithTenant(context.Background(), id)
	for i := 0; i < n; i++ {
		c := &Call{name: string(id), ctx: ctx, req: make([]byte, reqBytes), done: make(chan struct{})}
		ln.queue = append(ln.queue, c)
		b.npend++
	}
}

func tenantOfCall(c *Call) netsim.TenantID { return netsim.TenantOf(c.ctx) }

// TestSchedulerWeightedFairness: two backlogged same-priority lanes with
// weights 1:3 converge to byte shares 1:3 within ±10% of the total.
func TestSchedulerWeightedFairness(t *testing.T) {
	sched := NewScheduler()
	sched.SetPolicy("a", TenantPolicy{Priority: 0, Weight: 1})
	sched.SetPolicy("b", TenantPolicy{Priority: 0, Weight: 3})
	b := newLaneBatcher(sched, 8)

	bytes := map[netsim.TenantID]int{}
	total := 0
	const reqBytes = 300 // larger than one quantum, so credit takes rounds
	for pickN := 0; pickN < 200; pickN++ {
		// Keep both lanes backlogged so DRR fairness (a property of
		// backlogged lanes) is what is being measured.
		for _, id := range []netsim.TenantID{"a", "b"} {
			ln := b.lanes[id]
			if ln == nil || len(ln.queue) < b.max {
				b.fill(id, b.max, reqBytes)
			}
		}
		for _, c := range b.pick(false) {
			bytes[tenantOfCall(c)] += len(c.req)
			total += len(c.req)
		}
	}
	if total == 0 {
		t.Fatal("no bytes scheduled")
	}
	shareA := float64(bytes["a"]) / float64(total)
	shareB := float64(bytes["b"]) / float64(total)
	if diff := shareA - 0.25; diff < -0.10 || diff > 0.10 {
		t.Errorf("tenant a byte share = %.3f, want 0.25 ± 0.10 (a=%d b=%d)", shareA, bytes["a"], bytes["b"])
	}
	if diff := shareB - 0.75; diff < -0.10 || diff > 0.10 {
		t.Errorf("tenant b byte share = %.3f, want 0.75 ± 0.10", shareB)
	}
}

// TestSchedulerThreeWayFairness: weights 1:2:5 among three backlogged
// lanes, same tolerance.
func TestSchedulerThreeWayFairness(t *testing.T) {
	sched := NewScheduler()
	weights := map[netsim.TenantID]int{"x": 1, "y": 2, "z": 5}
	for id, w := range weights {
		sched.SetPolicy(id, TenantPolicy{Weight: w})
	}
	b := newLaneBatcher(sched, 8)

	bytes := map[netsim.TenantID]int{}
	total := 0
	for pickN := 0; pickN < 300; pickN++ {
		for id := range weights {
			ln := b.lanes[id]
			if ln == nil || len(ln.queue) < b.max {
				b.fill(id, b.max, 200)
			}
		}
		for _, c := range b.pick(false) {
			bytes[tenantOfCall(c)] += len(c.req)
			total += len(c.req)
		}
	}
	for id, w := range weights {
		want := float64(w) / 8.0
		got := float64(bytes[id]) / float64(total)
		if diff := got - want; diff < -0.10 || diff > 0.10 {
			t.Errorf("tenant %s byte share = %.3f, want %.3f ± 0.10", id, got, want)
		}
	}
}

// TestSchedulerLoneLaneFillsEnvelope: DRR is fairness among backlogged
// lanes, so a lane with no backlogged peer is never held to its quantum —
// a size-triggered pick fills the envelope to MaxBatch, in submission
// order, whether the batcher has a scheduler (one tenant) or none (the
// single anonymous lane), and whether the backlog fits the envelope (the
// queue is handed over) or not (the credit check is waived). The moment a
// peer is backlogged the quantum applies again.
func TestSchedulerLoneLaneFillsEnvelope(t *testing.T) {
	const max, reqBytes = 64, 17 // one COUNT frame; 64 of them are 4× the quantum
	for name, sched := range map[string]*Scheduler{"one-tenant": NewScheduler(), "unscheduled": nil} {
		t.Run(name, func(t *testing.T) {
			id := sched.laneOf(netsim.WithTenant(context.Background(), "solo"))
			b := newLaneBatcher(sched, max)
			b.fill(id, max, reqBytes)
			queued := append([]*Call(nil), b.lanes[id].queue...)
			batch := b.pick(false)
			if len(batch) != max || b.npend != 0 {
				t.Fatalf("lone lane, %d queued: envelope of %d (%d left), want %d (0 left)", max, len(batch), b.npend, max)
			}
			for i, c := range batch {
				if c != queued[i] {
					t.Fatalf("slot %d is not the %d-th submission", i, i)
				}
			}
			b.fill(id, max+max/2, reqBytes)
			if first, second := len(b.pick(false)), len(b.pick(false)); first != max || second != max/2 {
				t.Fatalf("lone lane, %d queued: envelopes of %d then %d, want %d then %d", max+max/2, first, second, max, max/2)
			}
		})
	}

	sched := NewScheduler()
	b := newLaneBatcher(sched, max)
	b.fill("a", max, reqBytes)
	b.fill("b", max, reqBytes)
	if n := len(b.pick(false)); n >= max {
		t.Fatalf("two backlogged lanes: envelope of %d, want the DRR quantum to cut it short of %d", n, max)
	}
}

// TestSchedulerStrictPriority: with both tiers backlogged, the high tier
// drains completely before the low tier contributes a single probe (it
// drains in fewer envelopes than the starvation bound).
func TestSchedulerStrictPriority(t *testing.T) {
	sched := NewScheduler()
	sched.SetPolicy("high", TenantPolicy{Priority: 2, Weight: 1})
	sched.SetPolicy("low", TenantPolicy{Priority: 0, Weight: 1})
	b := newLaneBatcher(sched, 4)
	b.fill("low", 12, 100)
	b.fill("high", 12, 100)

	var sequence []netsim.TenantID
	for b.npend > 0 {
		batch := b.pick(true) // force: priority order is what's under test
		if len(batch) == 0 {
			t.Fatal("pick made no progress on a non-empty backlog")
		}
		for _, c := range batch {
			sequence = append(sequence, tenantOfCall(c))
		}
	}
	if len(sequence) != 24 {
		t.Fatalf("scheduled %d calls, want 24", len(sequence))
	}
	for i, id := range sequence[:12] {
		if id != "high" {
			t.Fatalf("slot %d went to %q before the high tier drained", i, id)
		}
	}
	for i, id := range sequence[12:] {
		if id != "low" {
			t.Fatalf("slot %d went to %q, want low after high drained", 12+i, id)
		}
	}
}

// TestSchedulerPriorityFillDown: when the high tier cannot fill an
// envelope, the remaining slots go to the lower tier in the SAME
// envelope — sharing the frame delays nobody.
func TestSchedulerPriorityFillDown(t *testing.T) {
	sched := NewScheduler()
	sched.SetPolicy("high", TenantPolicy{Priority: 1})
	sched.SetPolicy("low", TenantPolicy{Priority: 0})
	b := newLaneBatcher(sched, 8)
	b.fill("high", 3, 50)
	b.fill("low", 8, 50)

	batch := b.pick(true)
	if len(batch) != 8 {
		t.Fatalf("envelope has %d calls, want 8", len(batch))
	}
	for i := 0; i < 3; i++ {
		if tenantOfCall(batch[i]) != "high" {
			t.Errorf("slot %d = %q, want high first", i, tenantOfCall(batch[i]))
		}
	}
	for i := 3; i < 8; i++ {
		if tenantOfCall(batch[i]) != "low" {
			t.Errorf("slot %d = %q, want low fill-down", i, tenantOfCall(batch[i]))
		}
	}
}

// TestSchedulerStarvationBound: a low-tier lane facing a saturating
// high tier is passed over at most starvationBound consecutive
// envelopes before the guard forces its head probe through.
func TestSchedulerStarvationBound(t *testing.T) {
	sched := NewScheduler()
	sched.SetPolicy("high", TenantPolicy{Priority: 1})
	sched.SetPolicy("low", TenantPolicy{Priority: 0})
	b := newLaneBatcher(sched, 4)
	b.fill("low", 6, 100)

	lowScheduled := 0
	passedSinceServed := 0
	for pickN := 0; pickN < 40 && lowScheduled < 2; pickN++ {
		// The high tier re-saturates before every envelope.
		if ln := b.lanes["high"]; ln == nil || len(ln.queue) < b.max {
			b.fill("high", b.max, 100)
		}
		served := false
		for _, c := range b.pick(true) {
			if tenantOfCall(c) == "low" {
				lowScheduled++
				served = true
			}
		}
		if served {
			passedSinceServed = 0
		} else {
			passedSinceServed++
			if passedSinceServed > starvationBound {
				t.Fatalf("low lane passed over %d consecutive envelopes, bound is %d", passedSinceServed, starvationBound)
			}
		}
	}
	if lowScheduled < 2 {
		t.Fatalf("low lane scheduled only %d probes under saturation", lowScheduled)
	}
}

// TestSchedulerQuotaAdmission: an over-quota tenant's probes are
// rejected at the lane gate — the remote's one quota gate, before any
// byte reaches the link — with the typed error, while other tenants'
// probes proceed.
func TestSchedulerQuotaAdmission(t *testing.T) {
	ledger := netsim.NewLedger()
	ledger.SetQuota("poor", 100)
	ledger.Charge("poor", 150) // already exhausted
	r := newTenantRemote(t, NewScheduler(), ledger, 4)
	w := dataset.World

	poor := netsim.WithTenant(context.Background(), "poor")
	if _, err := r.GoBatch(poor, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Frame(); err == nil {
		t.Fatal("poor probe admitted, want quota error")
	} else {
		var qe *netsim.QuotaError
		if !errors.As(err, &qe) || !errors.Is(err, netsim.ErrOverQuota) {
			t.Fatalf("poor probe = %v, want *QuotaError matching ErrOverQuota", err)
		}
		if qe.Tenant != "poor" || qe.Spent != 150 || qe.Quota != 100 {
			t.Errorf("QuotaError = %+v, want {poor 150 100}", qe)
		}
	}
	if u := r.Usage(); u != (netsim.Usage{}) {
		t.Errorf("rejected probe reached the link: %+v", u)
	}
	for _, id := range []netsim.TenantID{"rich", ""} {
		ctx := netsim.WithTenant(context.Background(), id)
		if n, err := r.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0].Count(); err != nil || n != 300 {
			t.Errorf("tenant %q: count %d, %v — want 300, nil (no quota set)", id, n, err)
		}
	}
}

// --- end-to-end multi-tenant batching --------------------------------------

func newTenantRemote(t *testing.T, sched *Scheduler, ledger *netsim.Ledger, maxBatch int) *Remote {
	t.Helper()
	objs := dataset.Uniform(300, dataset.World, 11)
	tr := netsim.Serve(server.New("T", objs))
	opts := []Option{WithBatch(BatchConfig{MaxBatch: maxBatch}), WithScheduler(sched)}
	if ledger != nil {
		opts = append(opts, WithLedger(ledger))
	}
	r, err := NewRemote("T", tr, netsim.DefaultLink(), 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestTenantAttributionExact: probes of two tenants co-batched into
// shared envelopes; every tenant column sums exactly to the link meter's
// total, and the ledger's spend equals the attributed wire bytes.
func TestTenantAttributionExact(t *testing.T) {
	ledger := netsim.NewLedger()
	sched := NewScheduler()
	r := newTenantRemote(t, sched, ledger, 4)
	w := dataset.World

	ctxA := netsim.WithTenant(context.Background(), "alice")
	ctxB := netsim.WithTenant(context.Background(), "bob")
	var calls []*Call
	// Interleave submissions so envelopes mix tenants (4-cut over
	// alternating lanes → every full envelope carries both).
	for i := 0; i < 12; i++ {
		calls = append(calls, r.GoBatch(ctxA, [][]byte{wire.AppendCount(bufpool.Get(), w)})...)
		calls = append(calls, r.GoBatch(ctxB, [][]byte{wire.AppendWindow(bufpool.Get(), w)})...)
	}
	for i, c := range calls {
		if _, err := c.Frame(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	total := r.Usage()
	var sum netsim.Usage
	ids := []netsim.TenantID{"alice", "bob"}
	for _, id := range ids {
		sum = sum.Add(r.TenantUsage(id))
	}
	if sum != total {
		t.Errorf("tenant columns sum %+v\n != link total %+v", sum, total)
	}
	var spent int64
	for _, id := range ids {
		spent += ledger.Spent(id)
	}
	if spent != int64(total.WireBytes) {
		t.Errorf("ledger spend %d != metered wire bytes %d", spent, total.WireBytes)
	}
}

// TestTenantQuotaRejectsMidStream: a tenant whose spend crosses its
// quota has subsequent probes rejected with the typed error, while the
// other tenant's probes keep completing correctly.
func TestTenantQuotaRejectsMidStream(t *testing.T) {
	ledger := netsim.NewLedger()
	ledger.SetQuota("poor", 2000)
	sched := NewScheduler()
	r := newTenantRemote(t, sched, ledger, 4)
	w := dataset.World

	ctxPoor := netsim.WithTenant(context.Background(), "poor")
	ctxRich := netsim.WithTenant(context.Background(), "rich")
	var rejected, completed int
	for i := 0; i < 20; i++ {
		cp := r.GoBatch(ctxPoor, [][]byte{wire.AppendWindow(bufpool.Get(), w)})[0]
		cr := r.GoBatch(ctxRich, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
		if _, err := cp.Frame(); err != nil {
			if !errors.Is(err, netsim.ErrOverQuota) {
				t.Fatalf("poor call %d failed with %v, want quota error", i, err)
			}
			rejected++
		}
		if n, err := cr.Count(); err != nil || n != 300 {
			t.Fatalf("rich call %d: count %d, %v — must be unaffected", i, n, err)
		}
	}
	if rejected == 0 {
		t.Fatal("poor tenant was never rejected despite exceeding its quota")
	}
	if spent := ledger.Spent("poor"); spent < 2000 {
		t.Errorf("poor spend %d never reached the quota boundary", spent)
	}
	completed = 20 - rejected
	if completed == 0 {
		t.Error("poor tenant completed nothing — quota should reject only after real spend")
	}
}

// TestMixedTenantEnvelopeSharesDeterministic: splitByShares-driven
// attribution of a shared envelope is deterministic across identical
// runs (sequential submissions).
func TestMixedTenantEnvelopeSharesDeterministic(t *testing.T) {
	run := func() (netsim.Usage, netsim.Usage) {
		sched := NewScheduler()
		r := newTenantRemote(t, sched, nil, 4)
		w := dataset.World
		ctxA := netsim.WithTenant(context.Background(), "a")
		ctxB := netsim.WithTenant(context.Background(), "b")
		var calls []*Call
		for i := 0; i < 6; i++ {
			calls = append(calls, r.GoBatch(ctxA, [][]byte{wire.AppendCount(bufpool.Get(), w)})...)
			calls = append(calls, r.GoBatch(ctxB, [][]byte{wire.AppendCount(bufpool.Get(), w)})...)
		}
		for _, c := range calls {
			if _, err := c.Count(); err != nil {
				t.Fatal(err)
			}
		}
		return r.TenantUsage("a"), r.TenantUsage("b")
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Errorf("attribution differs across identical runs:\n a: %+v vs %+v\n b: %+v vs %+v", a1, a2, b1, b2)
	}
}

// TestBusyLinkNextEnvelopeLeadsWithPriority: arbitration happens when the
// link is busy. With the window full and a fast and a bulk lane
// backlogged behind it, the envelope the completing dispatcher takes next
// leads with the fast lane's probes and fills down with bulk ones.
func TestBusyLinkNextEnvelopeLeadsWithPriority(t *testing.T) {
	sched := NewScheduler()
	sched.SetPolicy("fast", TenantPolicy{Priority: 1})
	sched.SetPolicy("bulk", TenantPolicy{Priority: 0})
	objs := dataset.Uniform(30, dataset.World, 11)
	gate := &gateRT{inner: netsim.Serve(server.New("T", objs)), gate: make(chan struct{})}
	var order []netsim.TenantID // tenants of the one envelope's probes, in frame order
	link := rtFunc(func(ctx context.Context, req []byte) ([]byte, error) {
		if subs, err := wire.DecodeBatchAppend(req, wire.MsgBatch, nil); err == nil {
			for _, sub := range subs {
				id := netsim.TenantID("bulk") // bulk sends WINDOWs, fast COUNTs
				if wire.Type(sub) == wire.MsgCount {
					id = "fast"
				}
				order = append(order, id)
			}
		}
		return gate.RoundTrip(ctx, req)
	})
	r, err := NewRemote("T", link, netsim.DefaultLink(), 1,
		WithBatch(BatchConfig{MaxBatch: 8}), WithScheduler(sched))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w := dataset.World
	fast := netsim.WithTenant(context.Background(), "fast")
	bulk := netsim.WithTenant(context.Background(), "bulk")

	// Lone probes, each sent bare by its waiter, fill the window.
	held := make(chan error, inflightWindow)
	for i := 0; i < inflightWindow; i++ {
		first := r.GoBatch(bulk, [][]byte{wire.AppendWindow(bufpool.Get(), w)})[0]
		go func() { _, err := first.Frame(); held <- err }()
		waitFor(t, "the window to fill", func() bool { return r.b.frames.Load() == int64(i+1) })
	}

	// Bulk queues first, fast second; neither fills an envelope alone.
	var calls []*Call
	for i := 0; i < 5; i++ {
		calls = append(calls, r.GoBatch(bulk, [][]byte{wire.AppendWindow(bufpool.Get(), w)})...)
	}
	for i := 0; i < 3; i++ {
		calls = append(calls, r.GoBatch(fast, [][]byte{wire.AppendCount(bufpool.Get(), w)})...)
	}
	done := make(chan error, len(calls))
	for _, c := range calls {
		go func() { _, err := c.Frame(); done <- err }()
	}
	waitFor(t, "every waiter to park", func() bool {
		r.b.mu.Lock()
		defer r.b.mu.Unlock()
		return r.b.parked == len(calls)
	})
	close(gate.gate)
	for range inflightWindow {
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	}
	for range calls {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := []netsim.TenantID{"fast", "fast", "fast", "bulk", "bulk", "bulk", "bulk", "bulk"}
	if !slices.Equal(order, want) {
		t.Errorf("envelope taken off the busy link = %v, want %v", order, want)
	}
	if f, want := r.b.frames.Load(), int64(inflightWindow+1); f != want {
		t.Errorf("%d frames, want %d: the held probes, then one envelope for everything queued behind them", f, want)
	}
}

// rtFunc adapts a function to a transport that needs no closing.
type rtFunc func(ctx context.Context, req []byte) ([]byte, error)

func (f rtFunc) RoundTrip(ctx context.Context, req []byte) ([]byte, error) { return f(ctx, req) }
func (f rtFunc) Close() error                                              { return nil }

// TestSchedulerConcurrentSubmitters: many goroutines across several
// tenants hammer one scheduled batcher; everything completes correctly
// and the attribution stays exact. Run with -race.
func TestSchedulerConcurrentSubmitters(t *testing.T) {
	ledger := netsim.NewLedger()
	sched := NewScheduler()
	sched.SetPolicy("t0", TenantPolicy{Priority: 1, Weight: 2})
	sched.SetPolicy("t1", TenantPolicy{Priority: 0, Weight: 1})
	sched.SetPolicy("t2", TenantPolicy{Priority: 0, Weight: 3})
	r := newTenantRemote(t, sched, ledger, 8)
	w := dataset.World

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 6; g++ {
		id := netsim.TenantID(fmt.Sprintf("t%d", g%3))
		wg.Add(1)
		go func(id netsim.TenantID) {
			defer wg.Done()
			ctx := netsim.WithTenant(context.Background(), id)
			for i := 0; i < 30; i++ {
				c := r.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), w)})[0]
				if n, err := c.Count(); err != nil {
					errc <- fmt.Errorf("%s: %w", id, err)
					return
				} else if n != 300 {
					errc <- fmt.Errorf("%s: count %d", id, n)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	total := r.Usage()
	var sum netsim.Usage
	ids := []netsim.TenantID{"t0", "t1", "t2"}
	for _, id := range ids {
		sum = sum.Add(r.TenantUsage(id))
	}
	if sum != total {
		t.Errorf("tenant columns sum %+v != link total %+v", sum, total)
	}
	var spent int64
	for _, id := range ids {
		spent += ledger.Spent(id)
	}
	if spent != int64(total.WireBytes) {
		t.Errorf("ledger spend %d != metered wire %d", spent, total.WireBytes)
	}
}
