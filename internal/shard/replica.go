package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/gostack"
	"repro/internal/health"
	"repro/internal/netsim"
)

// This file makes each shard a replica set. A ReplicaSet presents N
// servers holding the *same* partition as one logical endpoint with
// three behaviours a single Remote cannot offer:
//
//   - Load balancing: every probe is assigned a primary replica by a
//     deterministic rotation (seeded round-robin) when it is submitted,
//     in submission order, spreading the read load evenly — no replica
//     starves, and a sequential run issues a reproducible request
//     schedule on every replica link, which the byte goldens rely on.
//
//   - Hedged reads: when a probe has been in flight longer than a high
//     percentile of the recent attempt-latency window (HedgePct, fed by
//     the client.LatencyTracker), the same probe is speculatively
//     re-issued on the next replica. The first reply wins; the loser is
//     cancelled through the context plumbing and its traffic is
//     sub-accounted in the meter's hedged column. Every query in the
//     protocol is idempotent, so racing two replicas is always
//     semantically safe — the reply is consumed exactly once, never
//     merged twice.
//
//   - Failover: a replica that drops the request, severs the
//     connection, or is simply dead fails the attempt; the probe is
//     re-issued on the next untried replica. Only terminal failures
//     (parent context cancelled, transport closed by us) propagate.
//
// GoBatch is the set's one executor, and Do is GoBatch of one. A
// ReplicaSet is an Endpoint — it implements the seam call Do at the
// frame level and embeds client.Typed for the query surface — so it
// slots under the scatter–gather Router unchanged: a fleet of S shards ×
// R replicas serves every algorithm unmodified. Assemble never builds a
// one-replica set (a lone replica is its Remote); one built by hand
// takes the ordinary walk, which over one replica sends the same frames
// the Remote would.

// ReplicaConfig parameterizes a ReplicaSet.
type ReplicaConfig struct {
	// HedgePct, when > 0, enables hedged reads: a probe still in flight
	// after the HedgePct-th percentile of the recent latency window is
	// raced against the next replica. 95 is a sane production value —
	// roughly one probe in twenty pays a second request for a shot at
	// cutting the tail.
	HedgePct float64
	// HedgeAfter overrides the percentile threshold with a fixed delay
	// when positive. A negative value hedges every probe immediately
	// with no timer — deterministic total speculation, for tests and
	// goldens that pin the hedged-bytes column.
	HedgeAfter time.Duration
	// Seed offsets the round-robin rotation, so the primary-selection
	// schedule is a pure function of (Seed, probe sequence).
	Seed int64
	// Health, when non-nil, arms one circuit breaker per replica from
	// the registry (keyed by the replica's name, with a cheap INFO round
	// trip as its background recovery probe). Selection then skips
	// replicas whose breaker is open — a known-dead replica costs zero
	// probes until it recovers — and every attempt outcome feeds the
	// breaker's EWMA score. Nil keeps the pre-breaker behaviour exactly:
	// every failure is re-discovered by a live attempt.
	Health *health.Registry
	// Budget, when positive, bounds each logical probe end-to-end: the
	// primary attempt, failovers, and any hedge all draw from one
	// deadline, so the worst case of a probe is Budget regardless of how
	// many replicas it walks. Zero applies no budget.
	Budget time.Duration
}

// ReplicaStats counts the replica-layer decisions of one set. Every
// launched hedge resolves exactly once as a win (the speculative reply
// was consumed) or a loss (it was cancelled, or it failed), so after
// quiescence Hedges == HedgeWins + HedgeLosses — the property suite
// pins this.
type ReplicaStats struct {
	// Hedges counts speculative secondary attempts launched.
	Hedges int64
	// HedgeWins counts hedges whose reply won the race and was consumed.
	HedgeWins int64
	// HedgeLosses counts hedges cancelled or failed; their reply was
	// never consumed.
	HedgeLosses int64
	// Failovers counts probes re-issued on a sibling replica after a
	// transport fault.
	Failovers int64
}

// ReplicaSet serves one shard from several identical replica servers.
type ReplicaSet struct {
	client.Typed

	name     string
	replicas []*client.Remote
	cfg      ReplicaConfig
	next     atomic.Uint64
	lat      *client.LatencyTracker
	// brk holds one breaker per replica when cfg.Health armed them
	// (nil otherwise — the unarmed fast path is byte-identical to the
	// pre-breaker code).
	brk []*health.Breaker
	// setSkips counts whole-set skips: sub-queries a router routed
	// around this shard because no replica admitted traffic.
	setSkips atomic.Int64

	hedges, hedgeWins, hedgeLosses, failovers atomic.Int64
}

// NewReplicaSet assembles a replica set named name over the given
// replicas, which must serve identical data over links with one shared
// per-byte tariff.
func NewReplicaSet(name string, replicas []*client.Remote, cfg ReplicaConfig) (*ReplicaSet, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard: replica set %s needs at least one replica", name)
	}
	price := replicas[0].PricePerByte()
	for _, r := range replicas[1:] {
		if r.PricePerByte() != price {
			return nil, fmt.Errorf("shard: replica set %s: replica tariffs differ (%v vs %v)",
				name, price, r.PricePerByte())
		}
	}
	rs := &ReplicaSet{name: name, replicas: replicas, cfg: cfg,
		lat: client.NewLatencyTracker()}
	rs.Typed = client.NewTyped(rs)
	n := int64(len(replicas))
	rs.next.Store(uint64(((cfg.Seed % n) + n) % n))
	if cfg.Health != nil {
		rs.brk = make([]*health.Breaker, len(replicas))
		for i, rem := range replicas {
			rem := rem
			rs.brk[i] = cfg.Health.Breaker(rem.Name(), func(ctx context.Context) error {
				_, err := rem.Info(ctx)
				return err
			})
		}
	}
	return rs, nil
}

// Name returns the replica set's diagnostic name (the shard's).
func (rs *ReplicaSet) Name() string { return rs.name }

// Stats returns the replica-layer decision counters.
func (rs *ReplicaSet) Stats() ReplicaStats {
	return ReplicaStats{
		Hedges:      rs.hedges.Load(),
		HedgeWins:   rs.hedgeWins.Load(),
		HedgeLosses: rs.hedgeLosses.Load(),
		Failovers:   rs.failovers.Load(),
	}
}

// Usage returns the shard's accumulated traffic: the sum over all
// replica links (every netsim.Usage field, the hedged column included,
// is an additive total).
func (rs *ReplicaSet) Usage() netsim.Usage {
	var sum netsim.Usage
	for _, r := range rs.replicas {
		sum = sum.Add(r.Usage())
	}
	for _, b := range rs.brk {
		st := b.Stats()
		sum.BreakerOpens += int(st.Opens)
		sum.BreakerSkips += int(st.Skips)
	}
	sum.BreakerSkips += int(rs.setSkips.Load())
	return sum
}

// Healthy reports whether at least one replica currently admits traffic
// (always true unarmed). The router's scatter consults it under partial
// mode to route around a whole-dead shard before wasting a probe.
func (rs *ReplicaSet) Healthy() bool {
	if rs.brk == nil {
		return true
	}
	for _, b := range rs.brk {
		if b.Admits() {
			return true
		}
	}
	return false
}

// RoutedAround records that a caller skipped this whole shard because no
// replica admitted traffic — one sub-query saved, surfaced in the
// Usage breaker-skip column.
func (rs *ReplicaSet) RoutedAround() { rs.setSkips.Add(1) }

// allow reports whether replica i's breaker admits an attempt now
// (always true unarmed). May transition the breaker to half-open.
func (rs *ReplicaSet) allow(i int) bool {
	return rs.brk == nil || rs.brk[i].Allow()
}

// score feeds one attempt outcome to replica i's breaker. Failures the
// endpoint is innocent of are excluded: our own cancellation (a lost
// hedge race), a spent deadline of the attempt's own context actx (the
// probe budget), and a transport we closed. A per-try timeout inside the
// Remote does count: the attempt still had time, the endpoint just never
// answered. The outcome is classified by the error the attempt returned,
// never by whether actx has been cancelled since: a hedge partner that
// wins cancels actx before a failure that arrived first is scored, and
// that failure is the endpoint's.
func (rs *ReplicaSet) score(i int, err error, actx context.Context) {
	if rs.brk == nil {
		return
	}
	if err == nil {
		rs.brk[i].ReportSuccess(0)
		return
	}
	budgetSpent := errors.Is(err, context.DeadlineExceeded) && errors.Is(actx.Err(), context.DeadlineExceeded)
	if budgetSpent || errors.Is(err, context.Canceled) || errors.Is(err, netsim.ErrClosed) {
		return
	}
	rs.brk[i].ReportFailure(err)
}

// PricePerByte returns the shared per-byte tariff of the replica links.
func (rs *ReplicaSet) PricePerByte() float64 { return rs.replicas[0].PricePerByte() }

// Link returns the link configuration the replica links are metered
// against, the first one's standing for the set, for the online planner.
func (rs *ReplicaSet) Link() netsim.LinkConfig { return rs.replicas[0].Link() }

// Retries sums the re-issued attempts across all replica links.
func (rs *ReplicaSet) Retries() int64 {
	var n int64
	for _, r := range rs.replicas {
		n += r.Retries()
	}
	return n
}

// Close releases every replica transport, returning the first error.
func (rs *ReplicaSet) Close() error {
	var first error
	for _, r := range rs.replicas {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// hedgeDelay resolves the current hedge threshold: a fixed override, an
// unconditional hedge (HedgeAfter < 0), or the configured percentile of
// the latency window once enough samples exist.
func (rs *ReplicaSet) hedgeDelay() (time.Duration, bool) {
	if rs.cfg.HedgeAfter < 0 {
		return 0, true
	}
	if rs.cfg.HedgeAfter > 0 {
		return rs.cfg.HedgeAfter, true
	}
	if rs.cfg.HedgePct <= 0 {
		return 0, false
	}
	return rs.lat.Quantile(rs.cfg.HedgePct, hedgeMinSamples)
}

// hedgeMinSamples gates percentile hedging until the latency window
// holds this many observations: a threshold derived from a handful of
// samples is noise.
const hedgeMinSamples = 16

// failoverable reports whether a failed attempt may move to a sibling
// replica: transient transport faults are; a transport we closed
// ourselves is not (mirrors the Remote's retry gate).
func failoverable(err error) bool {
	return !errors.Is(err, netsim.ErrClosed)
}

// walk is one probe's pass over the replicas — the selection policy of
// its primary, its failovers and its hedge: start at the rotation's
// next replica, visit each replica at most once, and skip open-circuit
// replicas before any frame is spent on them. Each skip-over of an open
// replica in favour of an admitted one is counted on its breaker — that
// is the probe saved versus reactive failover. Unarmed (rs.brk == nil)
// it is exactly the plain rotation.
type walk struct {
	rs           *ReplicaSet
	start, tried int
	// forced queues the breaker-open replicas a primary or failover may
	// be forced onto when no admitted replica remains: the probe has to
	// go somewhere, and a forced trial doubles as the half-open recovery
	// attempt. Hedges never draw from it — a speculative attempt against
	// a known-dead replica is pure waste.
	forced []int
}

// newWalk advances the rotation and starts a walk at its choice.
func (rs *ReplicaSet) newWalk() walk {
	return walk{rs: rs, start: int(rs.next.Add(1)-1) % len(rs.replicas)}
}

// next returns the replica of the walk's next attempt, or -1 when every
// replica has been tried (or, for a hedge, when none is admitted).
func (w *walk) next(hedged bool) int {
	rs, n := w.rs, len(w.rs.replicas)
	idx, fresh := -1, len(w.forced) // forced[fresh:] are passed over by this call
	for idx < 0 && w.tried < n {
		i := (w.start + w.tried) % n
		w.tried++
		if rs.allow(i) {
			idx = i
		} else {
			w.forced = append(w.forced, i)
		}
	}
	if idx >= 0 || hedged {
		for _, s := range w.forced[fresh:] {
			rs.brk[s].Skip()
		}
		return idx
	}
	if len(w.forced) > 0 {
		idx, w.forced = w.forced[0], w.forced[1:]
	}
	return idx
}

// Do answers one request frame: GoBatch of one, settled on the caller's
// stack. A context that is already dead sends and charges nothing.
func (rs *ReplicaSet) Do(ctx context.Context, req []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		bufpool.Put(req)
		return nil, fmt.Errorf("%s: %w", rs.name, err)
	}
	return rs.GoBatch(ctx, [][]byte{req})[0].Frame()
}

// probe is one submitted request: its walk past the primary, the
// primary's sub-call, a private frame copy for failovers and hedges,
// and on a hedging set the chunk it crosses in.
type probe struct {
	w     walk
	idx   int
	call  *client.Call
	spare []byte
	chunk *chunk
}

// chunk is one replica's share of a hedging set's submission. Its
// requests cross together — a stall of one holds the rest — so they
// share one clock, started when the first of them is waited for: it
// times each one's hedge, and the latency window samples it once, at
// the chunk's first reply.
type chunk struct {
	mu       sync.Mutex
	start    time.Time
	answered bool
}

// GoBatch picks each request's walk and primary replica in submission
// order and hands each replica its requests as one GoBatch, in that
// order: batched replicas coalesce them, unbatched ones pipeline them.
// Each returned Call settles its request on its waiter's stack, and the
// submission draws from one Budget deadline. The frames are consumed.
func (rs *ReplicaSet) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	ctx, done := rs.budget(ctx, len(reqs))
	probes := make([]probe, len(reqs))
	var chunks []chunk
	if rs.hedging() {
		chunks = make([]chunk, len(rs.replicas))
	}
	for i, req := range reqs {
		p := &probes[i]
		p.w = rs.newWalk()
		p.idx, p.spare = p.w.next(false), clone(req)
		if chunks != nil {
			p.chunk = &chunks[p.idx]
		}
	}
	// A lone request goes through reqs itself, and its replica's
	// one-element result carries the set's call back.
	frames, calls := reqs, []*client.Call(nil)
	if len(reqs) > 1 {
		frames, calls = make([][]byte, 0, len(reqs)), make([]*client.Call, len(reqs))
	}
	for idx, rem := range rs.replicas {
		frames = frames[:0]
		for i := range probes {
			if probes[i].idx == idx {
				frames = append(frames, reqs[i])
			}
		}
		if len(frames) == 0 {
			continue
		}
		subs := rem.GoBatch(ctx, frames)
		for i, k := 0, 0; k < len(subs); i++ {
			if probes[i].idx == idx {
				probes[i].call, k = subs[k], k+1
			}
		}
		if calls == nil {
			calls = subs
		}
	}
	for i := range probes {
		p := &probes[i]
		calls[i] = client.NewLazyCall(rs.name, func() ([]byte, error) {
			defer done()
			return rs.settle(ctx, p)
		})
	}
	return calls
}

// settle answers one probe on its waiter's stack: the primary races a
// hedge when armed says so, and is otherwise awaited right here,
// spawning nothing. A failure the link is beyond retrying then fails
// over along the walk, one replica at a time; when every replica
// failed, the first failure is the error.
func (rs *ReplicaSet) settle(ctx context.Context, p *probe) ([]byte, error) {
	defer bufpool.Put(p.spare)
	var resp []byte
	var err error
	if d, ok := rs.armed(p); ok {
		resp, err = rs.race(ctx, p, d)
	} else {
		resp, err = p.call.Frame()
		rs.land(p.chunk, err == nil)
		rs.score(p.idx, err, ctx)
	}
	first := err
	for err != nil && ctx.Err() == nil && failoverable(err) {
		idx := p.w.next(false)
		if idx < 0 {
			break
		}
		rs.failovers.Add(1)
		resp, err = rs.replicas[idx].GoBatch(ctx, [][]byte{clone(p.spare)})[0].Frame()
		rs.score(idx, err, ctx)
	}
	if err != nil {
		return nil, first
	}
	return resp, nil
}

// armed reports whether p races a hedge, and after what delay from now:
// its chunk's clock, started here by the chunk's first waiter, counts
// toward hedgeDelay. A chunk that has answered races no more, unless
// HedgeAfter < 0 hedges every probe.
func (rs *ReplicaSet) armed(p *probe) (time.Duration, bool) {
	c := p.chunk
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	if c.start.IsZero() {
		c.start = time.Now()
	}
	start, answered := c.start, c.answered
	c.mu.Unlock()
	d, ok := rs.hedgeDelay()
	return d - time.Since(start), ok && (!answered || rs.cfg.HedgeAfter < 0)
}

// land marks chunk c answered. Its first reply, when ok — a success
// that won or ran no race (a primary that lost would have been
// cancelled, crossing alone) — feeds the latency window, which only
// percentile hedging reads.
func (rs *ReplicaSet) land(c *chunk, ok bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	first, start := !c.answered, c.start
	c.answered = true
	c.mu.Unlock()
	if first && ok && rs.cfg.HedgePct > 0 && rs.cfg.HedgeAfter == 0 {
		rs.lat.Add(time.Since(start))
	}
}

// race waits for p's primary on a goroutine while the waiter hedges it:
// after d (at once when d <= 0) the waiter sends the same request
// through the walk's next replica's Do under netsim.WithHedged — a
// batcher's envelope would drop the mark — on its own stack. The first
// success wins. A primary that succeeds cancels the hedge; one that lost
// runs on under its submission's context until the submission has
// settled, and its outcome is dropped. When both fail, the primary's
// failure is the error.
func (rs *ReplicaSet) race(ctx context.Context, p *probe, d time.Duration) ([]byte, error) {
	hctx, cancel := context.WithCancel(netsim.WithHedged(ctx))
	defer cancel()
	type outcome struct {
		resp []byte
		err  error
	}
	primary := make(chan outcome, 1)
	go func() {
		gostack.Grow()
		resp, err := p.call.Frame()
		rs.land(p.chunk, err == nil && hctx.Err() == nil)
		rs.score(p.idx, err, ctx)
		if err == nil {
			cancel()
		}
		primary <- outcome{resp, err}
	}()
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case out := <-primary:
			return out.resp, out.err
		case <-t.C:
		}
	}
	if idx := p.w.next(true); idx >= 0 {
		rs.hedges.Add(1)
		resp, err := rs.replicas[idx].Do(hctx, clone(p.spare))
		rs.score(idx, err, hctx)
		if err == nil {
			rs.hedgeWins.Add(1)
			return resp, nil
		}
		rs.hedgeLosses.Add(1)
	}
	out := <-primary
	return out.resp, out.err
}

// hedging reports whether the set may hedge a probe.
func (rs *ReplicaSet) hedging() bool { return rs.cfg.HedgePct > 0 || rs.cfg.HedgeAfter != 0 }

// budget derives the context a submission of n probes runs under,
// released once each has called done: bounded by cfg.Budget, and on a
// hedging set cancellable, so that a primary which lost its race stops
// once its submission has settled.
func (rs *ReplicaSet) budget(ctx context.Context, n int) (context.Context, func()) {
	var cancel context.CancelFunc
	switch {
	case n > 0 && rs.cfg.Budget > 0:
		ctx, cancel = context.WithTimeout(ctx, rs.cfg.Budget)
	case n > 0 && rs.hedging():
		ctx, cancel = context.WithCancel(ctx)
	default:
		return ctx, func() {}
	}
	left := new(atomic.Int64)
	left.Store(int64(n))
	return ctx, func() {
		if left.Add(-1) == 0 {
			cancel()
		}
	}
}
