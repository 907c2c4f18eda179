package shard

import (
	"context"
	"errors"
	"fmt"
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
//     deterministic rotation (seeded round-robin), spreading the read
//     load evenly — no replica starves, and a sequential run issues a
//     reproducible request schedule, which the byte goldens rely on.
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
// A ReplicaSet is an Endpoint — it implements the seam call Do at the
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
	// MinSamples gates percentile hedging until the latency window has
	// at least this many observations (default 16): a threshold derived
	// from a handful of samples is noise.
	MinSamples int
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
		lat: client.NewLatencyTracker(0)}
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

// Replicas exposes the replica remotes (tests and diagnostics).
func (rs *ReplicaSet) Replicas() []*client.Remote { return rs.replicas }

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

// Breakers exposes the per-replica breakers (nil unarmed; tests and
// diagnostics).
func (rs *ReplicaSet) Breakers() []*health.Breaker { return rs.brk }

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

// LinkStats merges the live link observations of every replica link
// (sample-weighted RTT EWMA), for the online planner.
func (rs *ReplicaSet) LinkStats() netsim.LinkSnapshot {
	var snap netsim.LinkSnapshot
	for _, r := range rs.replicas {
		snap = snap.Merge(r.LinkStats())
	}
	return snap
}

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
	min := rs.cfg.MinSamples
	if min <= 0 {
		min = 16
	}
	return rs.lat.Quantile(rs.cfg.HedgePct, min)
}

// failoverable reports whether a failed attempt may move to a sibling
// replica: transient transport faults are; a transport we closed
// ourselves is not (mirrors the Remote's retry gate).
func failoverable(err error) bool {
	return !errors.Is(err, netsim.ErrClosed)
}

// walk is one probe's pass over the replicas — the selection policy both
// the synchronous and the batched path follow: start at the rotation's
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

// Do runs one idempotent request frame against the set: primary by
// rotation, hedged after the threshold, failed over on transport faults.
// Every attempt sends its own pooled copy of req (a Remote consumes the
// frame it is given); req itself is recycled on return. The winning
// reply is consumed exactly once; the losing attempt is cancelled when Do
// returns (the deferred cancel reaches every transport) and its buffered
// completion is dropped, so no goroutine outlives the probe beyond its
// cancellation.
func (rs *ReplicaSet) Do(ctx context.Context, req []byte) ([]byte, error) {
	if rs.cfg.Budget > 0 {
		// One deadline for the whole probe: primary, failovers, and the
		// hedge all spend from it, so the probe's worst case is Budget
		// however many replicas it walks.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rs.cfg.Budget)
		defer cancel()
	}
	n := len(rs.replicas)
	defer bufpool.Put(req)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", rs.name, err)
	}
	w := rs.newWalk()
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		resp   []byte
		err    error
		hedged bool
	}
	// Buffered to the attempt budget: a losing attempt's completion
	// never blocks its goroutine, even after Do has returned.
	ch := make(chan outcome, n)
	inflight := 0
	launch := func(hedged bool) bool {
		idx := w.next(hedged)
		if idx < 0 {
			return false
		}
		inflight++
		actx := pctx
		if hedged {
			actx = netsim.WithHedged(pctx)
			rs.hedges.Add(1)
		}
		frame := clone(req)
		go func() {
			gostack.Grow()
			t0 := time.Now()
			resp, err := rs.replicas[idx].Do(actx, frame)
			if err == nil && !hedged {
				rs.lat.Add(time.Since(t0))
			}
			rs.score(idx, err, actx)
			ch <- outcome{resp: resp, err: err, hedged: hedged}
		}()
		return true
	}
	launch(false)
	var hedgeC <-chan time.Time
	hedgeLaunched, hedgeResolved := false, false
	if d, ok := rs.hedgeDelay(); ok {
		if d <= 0 {
			hedgeLaunched = launch(true)
		} else {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				hedgeLaunched = true
			}
		case out := <-ch:
			inflight--
			if out.err == nil {
				if out.hedged {
					rs.hedgeWins.Add(1)
				} else if hedgeLaunched && !hedgeResolved {
					// The speculative attempt lost the race: it is
					// cancelled by the deferred cancel and counted here,
					// exactly once.
					rs.hedgeLosses.Add(1)
				}
				return out.resp, nil
			}
			if out.hedged {
				hedgeResolved = true
				rs.hedgeLosses.Add(1)
			}
			if firstErr == nil ||
				(errors.Is(firstErr, context.Canceled) && !errors.Is(out.err, context.Canceled)) {
				firstErr = out.err
			}
			if ctx.Err() == nil && failoverable(out.err) && launch(false) {
				rs.failovers.Add(1)
			}
			if inflight == 0 {
				return nil, firstErr
			}
		}
	}
}

// GoBatch routes each pre-encoded probe frame to its walk's first
// replica's batcher, so frames bound for the same replica link still
// coalesce into MsgBatch envelopes there. The returned Calls are lazy:
// on the stack of whoever waits for one, a failed sub-call fails over
// along the same walk Do follows (the envelope retry inside the Remote
// runs first; this layer moves to a sibling when the link itself is
// beyond retry), and the whole submission draws from one Budget
// deadline, like a synchronous probe. Batched probes are not hedged: the
// hedge race lives in Do. Failover covers availability and the
// synchronous path the tail; hedging a waiter-sent probe is a follow-up.
//
// Over replicas that do not batch there is nothing to coalesce with, so
// each request is Do itself, run by whoever waits for it: an unbatched
// fleet keeps hedge, walk and Budget whichever way a probe is submitted.
func (rs *ReplicaSet) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	if !rs.replicas[0].BatchEnabled() {
		calls := make([]*client.Call, len(reqs))
		for i, req := range reqs {
			calls[i] = client.NewLazyCall(rs.name, func() ([]byte, error) { return rs.Do(ctx, req) })
		}
		return calls
	}
	ctx, done := rs.budget(ctx, len(reqs))
	calls := make([]*client.Call, len(reqs))
	for i, req := range reqs {
		w := rs.newWalk()
		primary := w.next(false)
		rest := w // the walk as the primary's choice left it
		// Private copy for failover: submitting a frame passes its
		// ownership to the batcher, so a retry on a sibling needs its own.
		spare := clone(req)
		sub := rs.replicas[primary].GoBatch(ctx, [][]byte{req})[0]
		calls[i] = client.NewLazyCall(rs.name, func() ([]byte, error) {
			defer done()
			w, idx := rest, primary
			resp, err := sub.Frame()
			rs.score(idx, err, ctx)
			for err != nil && ctx.Err() == nil && failoverable(err) {
				if idx = w.next(false); idx < 0 {
					break
				}
				rs.failovers.Add(1)
				resp, err = rs.replicas[idx].GoBatch(ctx, [][]byte{clone(spare)})[0].Frame()
				rs.score(idx, err, ctx)
			}
			bufpool.Put(spare)
			return resp, err
		})
	}
	return calls
}

// budget bounds a submission of n batched probes by cfg.Budget: one
// derived context for all of them (frames sharing a context share the
// batcher's undetached round trip), released once each has called done.
func (rs *ReplicaSet) budget(ctx context.Context, n int) (context.Context, func()) {
	if rs.cfg.Budget <= 0 || n == 0 {
		return ctx, func() {}
	}
	ctx, cancel := context.WithTimeout(ctx, rs.cfg.Budget)
	left := new(atomic.Int64)
	left.Store(int64(n))
	return ctx, func() {
		if left.Add(-1) == 0 {
			cancel()
		}
	}
}
