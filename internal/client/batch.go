package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// This file implements probe multiplexing: a per-Remote batcher that
// coalesces outstanding request frames into one MsgBatch envelope,
// answered by the server with one MsgBatchReply — amortizing the
// per-frame packet overhead of Eq. (1), the meter's per-message charge,
// and (on latency-bearing links) the round trip across the batch.
//
// Callers submit asynchronously with GoBatch and collect each request's
// reply through its Call future. Three triggers cut a batch:
//
//   - size: the queue reaching MaxBatch dispatches immediately;
//   - linger: a timer armed when the queue becomes non-empty flushes
//     stragglers, so a lone request is never parked indefinitely;
//   - explicit: Flush dispatches whatever is queued right now.
//
// There is one queue per link, kept as per-tenant lanes; pick assembles
// each envelope from them under the Scheduler's policy (see sched.go).
// A remote without a scheduler has a single anonymous lane, and a lane
// with no backlogged peer is never held back by its DRR credit, so an
// unscheduled link and a one-tenant fleet frame identically: envelopes
// are the queue in submission order, MaxBatch at a time.
//
// The linger is adaptive per link: timer flushes that caught only a
// single request halve it (lone callers should not wait), timer flushes
// that did coalesce grow it (more time buys fuller batches), and
// size-trigger flushes decay it gently (arrivals outpace the timer
// anyway). It always stays within [MinLinger, MaxLinger].
//
// A batch is retried as a unit by the Remote's RetryPolicy — every
// sub-request is an idempotent query, so re-issuing the whole envelope
// after a transport fault is as safe as re-issuing one query, and each
// attempt is charged to the meter like any other uplink frame.
//
// Error containment: a transport failure fails every Call of the batch,
// but a server-side per-sub-request failure arrives as a MsgError
// *sub-frame* and fails only its own Call — batch-mates complete
// normally (see Call.frame).

// BatchConfig configures a Remote's probe batcher.
type BatchConfig struct {
	// MaxBatch is the size trigger: a queue reaching this many
	// requests is dispatched immediately. Values ≤ 1 disable batching
	// (every request travels as its own frame, bit-identical to the
	// pre-batching wire format).
	MaxBatch int
	// Linger is the initial adaptive linger. Zero derives a default from
	// the link: max(500µs, RTT/4), clamped to the bounds below.
	Linger time.Duration
	// MinLinger and MaxLinger bound the adaptive linger. Zero values
	// default to 50µs and 2ms.
	MinLinger, MaxLinger time.Duration
	// MaxInflight bounds the dispatch goroutines one batcher may have in
	// flight at once for size-triggered cuts. Submitters that would
	// exceed it block in GoBatch until a dispatch completes —
	// backpressure instead of an unbounded goroutine spawn under
	// sustained load. Zero defaults to 4.
	MaxInflight int
}

// WithBatch enables probe batching on the remote with the given
// configuration.
func WithBatch(cfg BatchConfig) Option {
	return func(r *Remote) { r.batchCfg = cfg }
}

// Call is the future of one batched request: it completes when the frame
// carrying the request has been answered (or failed). A Call is consumed
// by exactly one accessor (Objects, Count, ...), which waits, decodes,
// and recycles the response frame.
type Call struct {
	name string // diagnostic producer name (the Remote's, or a router's)
	ctx  context.Context
	req  []byte
	resp []byte
	err  error
	done chan struct{}
	// settled arbitrates between completion and abandonment: whichever of
	// complete (the dispatcher) and frame (a waiter whose own context is
	// done) flips it first owns the call's outcome. A late completion
	// recycles its response instead of writing fields nobody reads.
	settled atomic.Bool
}

// NewDetachedCall returns a Call bound to no Remote: an aggregator that
// merges several underlying round trips into one logical reply (e.g. a
// shard router) produces the response frame itself and completes the
// call with CompleteFrame. name labels errors the way a Remote's name
// would.
func NewDetachedCall(name string) *Call {
	return &Call{name: name, done: make(chan struct{})}
}

// CompleteFrame finishes a detached call with a response frame (ownership
// passes to the call; the frame is recycled by the consuming accessor) or
// an error. It must be called exactly once.
func (c *Call) CompleteFrame(resp []byte, err error) { c.complete(resp, err) }

func (c *Call) complete(resp []byte, err error) {
	if !c.settled.CompareAndSwap(false, true) {
		// The waiter already abandoned this call on its own context; the
		// late response has no consumer, so recycle it here.
		if resp != nil {
			bufpool.Put(resp)
		}
		return
	}
	c.resp, c.err = resp, err
	close(c.done)
}

// frame waits for completion and returns the response frame, converting a
// per-sub-request MsgError sub-frame into this call's error — batch-mates
// are unaffected. The caller owns the returned frame.
//
// A call whose own context ends first is abandoned per that context:
// frame returns the context's error immediately even while the shared
// envelope round trip — detached from any single caller — is still in
// flight, so one caller's cancellation neither waits for nor poisons its
// batch-mates.
func (c *Call) frame() ([]byte, error) {
	if c.ctx == nil {
		<-c.done
	} else {
		select {
		case <-c.done:
		case <-c.ctx.Done():
			if c.settled.CompareAndSwap(false, true) {
				return nil, fmt.Errorf("%s: %w", c.name, c.ctx.Err())
			}
			// complete won the race; consume its outcome normally.
			<-c.done
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	resp := c.resp
	c.resp = nil
	if resp == nil {
		return nil, fmt.Errorf("%s: call already consumed", c.name)
	}
	if wire.Type(resp) == wire.MsgError {
		err := fmt.Errorf("%s: %w", c.name, wire.DecodeError(resp))
		bufpool.Put(resp)
		return nil, err
	}
	return resp, nil
}

// Frame waits for completion and returns the raw response frame;
// ownership passes to the caller, which must release it with
// bufpool.Put once decoded. Aggregators that re-route replies (a
// replica set failing a batched probe over to a sibling replica, a
// router completing a detached call with a sub-reply) consume calls at
// the frame level; typed callers use the decoding accessors instead. A
// per-sub-request MsgError sub-frame is converted to an error here,
// exactly as the accessors would.
func (c *Call) Frame() ([]byte, error) { return c.frame() }

// Objects waits and decodes an OBJECTS response (WINDOW / RANGE probes).
func (c *Call) Objects() ([]geom.Object, error) {
	resp, err := c.frame()
	return reply(resp, err, wire.DecodeObjects)
}

// Count waits and decodes a COUNT-REPLY response (COUNT / RANGE-COUNT
// probes).
func (c *Call) Count() (int, error) {
	resp, err := c.frame()
	return reply(resp, err, decodeCount)
}

// cutReason records which trigger dispatched a batch, driving the
// adaptive linger.
type cutReason int

const (
	cutFull cutReason = iota
	cutTimer
	cutExplicit
)

// lane is one tenant's submission queue on one link. deficit and passed
// implement the DRR credit and the starvation bound; served marks lanes
// that contributed to the envelope being assembled, for the pass
// bookkeeping at the end of each pick; credited marks lanes that have
// drawn their quantum for the current DRR round — a round ends (and the
// flags clear) only when every credited lane is spent, so envelope-cap
// truncations never let credit inflow outrun service and distort the
// weighted shares.
type lane struct {
	queue    []*Call
	deficit  int64
	passed   int
	served   bool
	credited bool
}

// batcher is the per-link multiplexer: per-tenant lanes whose total
// backlog never stays at max — the enqueue path assembles an envelope
// with pick() the moment it fills.
type batcher struct {
	rem        *Remote
	max        int
	minL, maxL int64         // linger bounds, ns
	linger     atomic.Int64  // current adaptive linger, ns
	sched      *Scheduler    // nil = one anonymous lane at the default policy
	sem        chan struct{} // bounds in-flight spawned dispatches

	mu    sync.Mutex
	lanes map[netsim.TenantID]*lane
	order []netsim.TenantID // lane visit order (first-submission order)
	rr    int               // DRR round-robin start index into order
	npend int               // total queued across lanes
	timer *time.Timer
	armed bool

	frames atomic.Int64 // dispatched frames (diagnostics and tests)
}

func newBatcher(r *Remote, cfg BatchConfig) *batcher {
	if cfg.MaxBatch <= 1 {
		return nil
	}
	b := &batcher{rem: r, max: cfg.MaxBatch, sched: r.sched, lanes: make(map[netsim.TenantID]*lane)}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 4
	}
	b.sem = make(chan struct{}, inflight)
	b.minL = int64(cfg.MinLinger)
	if b.minL <= 0 {
		b.minL = int64(50 * time.Microsecond)
	}
	b.maxL = int64(cfg.MaxLinger)
	if b.maxL < b.minL {
		b.maxL = int64(2 * time.Millisecond)
		if b.maxL < b.minL {
			b.maxL = b.minL
		}
	}
	l := int64(cfg.Linger)
	if l <= 0 {
		l = int64(500 * time.Microsecond)
		if rtt := int64(r.m.Link().RTT) / 4; rtt > l {
			l = rtt
		}
	}
	b.linger.Store(clamp64(l, b.minL, b.maxL))
	b.timer = time.AfterFunc(time.Duration(b.maxL), func() { b.flush(cutTimer) })
	b.timer.Stop()
	return b
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// enqueue adds each call to its tenant's lane (after the quota gate),
// assembling an envelope with pick() whenever the total backlog reaches
// the size trigger. All calls of one enqueue are appended under one lock
// acquisition, so a caller submitting exactly MaxBatch requests into an
// *empty* queue gets one frame containing exactly those requests; when
// concurrent submitters have left stragglers queued, those join the
// frame and the tail of this enqueue stays queued — correct, just a
// different grouping. Sequential runs always find the queue empty (core
// flushes each probe group before issuing the next), which is what the
// deterministic byte-accounting goldens rely on.
func (b *batcher) enqueue(calls []*Call) {
	var cut [][]*Call
	b.mu.Lock()
	for _, c := range calls {
		id := b.sched.laneOf(c.ctx)
		if err := b.sched.admit(id); err != nil {
			bufpool.Put(c.req)
			c.req = nil
			c.complete(nil, fmt.Errorf("%s: %w", b.rem.name, err))
			continue
		}
		ln := b.lanes[id]
		if ln == nil {
			ln = &lane{}
			b.lanes[id] = ln
			b.order = append(b.order, id)
		}
		ln.queue = append(ln.queue, c)
		b.npend++
		if b.npend >= b.max {
			if batch := b.pick(false); len(batch) > 0 {
				cut = append(cut, batch)
			}
		}
	}
	b.retime()
	b.mu.Unlock()
	b.spawn(cut)
}

// retime keeps the linger timer armed exactly while something is queued.
// Caller holds b.mu.
func (b *batcher) retime() {
	if b.npend > 0 && !b.armed {
		b.armed = true
		b.timer.Reset(time.Duration(b.linger.Load()))
	} else if b.npend == 0 && b.armed {
		b.armed = false
		b.timer.Stop()
	}
}

// spawn dispatches size-triggered cuts on fresh goroutines, at most
// cap(b.sem) in flight at once. A submitter that would exceed the bound
// blocks here — backpressure on the producing session — instead of
// stacking goroutines on one link without limit. No lock is held while
// acquiring the semaphore, and dispatch never re-enters the batcher, so
// a full semaphore can only delay submitters, never deadlock them.
func (b *batcher) spawn(cut [][]*Call) {
	for _, batch := range cut {
		b.sem <- struct{}{}
		batch := batch
		go func() {
			defer func() { <-b.sem }()
			b.dispatch(batch, cutFull)
		}()
	}
}

// flush dispatches whatever is queued, in policy order, envelope by
// envelope, with deficits waived — the linger has expired (or the caller
// asked), so nothing may stay parked. Explicit flushes run the round
// trips on the caller's goroutine (the caller is about to wait on the
// calls anyway); timer flushes run on the timer goroutine.
func (b *batcher) flush(reason cutReason) {
	b.mu.Lock()
	var batches [][]*Call
	for b.npend > 0 {
		batch := b.pick(true)
		if len(batch) == 0 {
			break
		}
		batches = append(batches, batch)
	}
	b.retime()
	b.mu.Unlock()
	for _, batch := range batches {
		b.dispatch(batch, reason)
	}
}

// pick assembles one envelope (up to max calls) from the lanes under the
// scheduling policy. Caller holds b.mu. With force set (flushes), DRR
// deficits are waived — priority order and the starvation guard still
// apply, but no probe stays parked for lack of credit.
func (b *batcher) pick(force bool) []*Call {
	if len(b.order) == 1 && b.npend <= b.max {
		// One lane is all this link has ever seen: nobody to arbitrate
		// against, and its backlog fits, so the queue is the envelope —
		// handed over instead of copied.
		ln := b.lanes[b.order[0]]
		batch := ln.queue
		*ln = lane{}
		b.npend = 0
		return batch
	}
	batch := make([]*Call, 0, b.max)
	// Starvation guard: lanes passed over too many consecutive envelopes
	// contribute their head probe first, whatever their tier.
	starve := b.sched.StarvationBound()
	for _, id := range b.order {
		if len(batch) >= b.max {
			break
		}
		ln := b.lanes[id]
		if len(ln.queue) > 0 && ln.passed >= starve {
			batch = b.takeHead(ln, batch)
		}
	}
	// Strict priority tiers, deficit round-robin within each: the top
	// non-empty tier fills the envelope first; remaining slots fill down
	// tier by tier (sharing the frame delays nobody above).
	blocked := 0
	for len(batch) < b.max {
		tier, lanes := b.topTier()
		if lanes == 0 {
			break
		}
		before := len(batch)
		// A lane with no backlogged peer in its tier is never held to its
		// credit: DRR is fairness among backlogged lanes, and a lone lane
		// has nobody to yield to.
		batch = b.drrPass(tier, force || lanes == 1, batch)
		if len(batch) == before {
			// The tier made no progress: every lane of it is spent for
			// the current round (or deficit-blocked). With a non-empty
			// envelope, stop — lower tiers must not overtake a blocked
			// higher tier, and the round resumes on the next pick. With
			// an empty envelope, start the tier's next round (bounded, so
			// a pathological probe cannot spin forever): an envelope must
			// eventually form or the backlog would only drain on flushes.
			if len(batch) > 0 {
				break
			}
			b.resetRound(tier)
			blocked++
			if blocked > 4096 {
				break
			}
		}
	}
	// Pass bookkeeping for the starvation bound.
	for _, id := range b.order {
		ln := b.lanes[id]
		if ln.served {
			ln.passed = 0
			ln.served = false
		} else if len(ln.queue) > 0 {
			ln.passed++
		} else {
			ln.passed = 0
		}
	}
	return batch
}

// topTier returns the highest priority among backlogged lanes and how
// many of them run at it (0: nothing is queued).
func (b *batcher) topTier() (tier, lanes int) {
	for _, id := range b.order {
		if len(b.lanes[id].queue) == 0 {
			continue
		}
		switch p := b.sched.Policy(id).Priority; {
		case lanes == 0 || p > tier:
			tier, lanes = p, 1
		case p == tier:
			lanes++
		}
	}
	return tier, lanes
}

// drrPass visits each lane of the tier once in round-robin order,
// taking probes while the lane's round credit covers their request
// bytes (waive skips the credit check). A lane draws its quantum ×
// weight credit at most once per round — the credited flag — however
// many passes (and picks) the round spans, so service per round is
// exactly proportional to the weights even when envelope caps truncate
// a pass mid-way.
func (b *batcher) drrPass(tier int, waive bool, batch []*Call) []*Call {
	n := len(b.order)
	for k := 0; k < n && len(batch) < b.max; k++ {
		id := b.order[(b.rr+k)%n]
		ln := b.lanes[id]
		pol := b.sched.Policy(id)
		if len(ln.queue) == 0 || pol.Priority != tier {
			continue
		}
		if !ln.credited {
			w := pol.Weight
			if w < 1 {
				w = 1
			}
			ln.deficit += int64(schedQuantum * w)
			ln.credited = true
		}
		for len(ln.queue) > 0 && len(batch) < b.max {
			cost := int64(len(ln.queue[0].req))
			if !waive && cost > ln.deficit {
				break
			}
			ln.deficit -= cost
			if waive && ln.deficit < 0 {
				// A waived take must not mortgage the lane's future
				// rounds: the backlog it drained is payment enough.
				ln.deficit = 0
			}
			batch = b.takeHead(ln, batch)
		}
		if len(ln.queue) == 0 {
			// An idle lane keeps no credit: DRR fairness is among
			// backlogged lanes only.
			ln.deficit = 0
		}
	}
	if n > 0 {
		b.rr = (b.rr + 1) % n
	}
	return batch
}

// resetRound opens the tier's next DRR round: every lane may draw its
// quantum again.
func (b *batcher) resetRound(tier int) {
	for _, id := range b.order {
		if b.sched.Policy(id).Priority == tier {
			b.lanes[id].credited = false
		}
	}
}

// takeHead moves the lane's head call into the envelope.
func (b *batcher) takeHead(ln *lane, batch []*Call) []*Call {
	c := ln.queue[0]
	ln.queue[0] = nil
	ln.queue = ln.queue[1:]
	b.npend--
	ln.served = true
	return append(batch, c)
}

// adapt moves the linger after a dispatch, per the scheduler policy above.
func (b *batcher) adapt(reason cutReason, n int) {
	cur := b.linger.Load()
	switch reason {
	case cutTimer:
		if n <= 1 {
			cur /= 2
		} else {
			cur = cur * 5 / 4
		}
	case cutFull:
		cur = cur * 7 / 8
	case cutExplicit:
		return
	}
	b.linger.Store(clamp64(cur, b.minL, b.maxL))
}

// dispatch sends one batch as a single frame (bare for a batch of one —
// a straggler costs exactly what an unbatched request costs) and
// demultiplexes the reply to the waiting calls.
//
// The round trip is detached from any single caller: when all calls
// share one context (the single-session pattern — all probes of a join
// run share the run context) the trip runs under it directly, but a
// mixed batch runs under a derived context cancelled only once EVERY
// batched context is done. One caller's cancellation therefore never
// fails its batch-mates; the cancelled caller itself returns promptly
// through Call.frame's own-context watch.
func (b *batcher) dispatch(batch []*Call, reason cutReason) {
	b.frames.Add(1)
	b.adapt(reason, len(batch))
	if len(batch) == 1 {
		c := batch[0]
		ctx := c.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		resp, err := b.rem.Do(ctx, c.req)
		c.req = nil
		c.complete(resp, err)
		return
	}
	ctx, stop := dispatchContext(batch)
	defer stop()
	subs := make([][]byte, len(batch))
	for i, c := range batch {
		subs[i] = c.req
	}
	if b.sched != nil {
		// Multi-tenant envelope: stamp the per-tenant byte shares so the
		// meter attributes (and the ledger bills) the frame exactly.
		ctx = b.sched.withShares(ctx, batch)
	}
	frame := wire.AppendBatch(bufpool.Get(), subs)
	for _, c := range batch {
		bufpool.Put(c.req)
		c.req = nil
	}
	resp, err := b.rem.Do(ctx, frame)
	if err != nil {
		for _, c := range batch {
			c.complete(nil, err)
		}
		return
	}
	subs, err = wire.DecodeBatchAppend(resp, wire.MsgBatchReply, subs[:0])
	if err == nil && len(subs) != len(batch) {
		err = fmt.Errorf("batch reply carries %d sub-frames, want %d", len(subs), len(batch))
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", b.rem.name, err)
		for _, c := range batch {
			c.complete(nil, err)
		}
		bufpool.Put(resp)
		return
	}
	// Each call receives a private copy of its sub-reply so the shared
	// envelope frame can be recycled immediately; decoded values never
	// alias the copies either (the accessors recycle them after decoding).
	for i, c := range batch {
		buf := bufpool.GetCap(len(subs[i]))
		c.complete(append(buf, subs[i]...), nil)
	}
	bufpool.Put(resp)
}

// dispatchContext returns the context an envelope's round trip runs
// under, plus a stop func the dispatcher must call when the trip is
// over. Fast path: every call shares one context — use it directly (it
// carries the run's values: tenant, hedge mark, deadline). Otherwise the
// trip is detached: a fresh context cancelled only when ALL batched
// contexts are done, so the envelope outlives any single caller's
// cancellation but does not outlive the moment nobody wants its replies.
func dispatchContext(batch []*Call) (context.Context, func()) {
	first := batch[0].ctx
	shared := true
	for _, c := range batch[1:] {
		if c.ctx != first {
			shared = false
			break
		}
	}
	if shared {
		if first == nil {
			return context.Background(), func() {}
		}
		return first, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		// Wait each caller's context in turn; order is irrelevant for
		// "all done". A nil context is never done, so the trip can never
		// become all-abandoned — the watcher just retires.
		for _, c := range batch {
			if c.ctx == nil {
				return
			}
			select {
			case <-c.ctx.Done():
			case <-stopped:
				return
			}
		}
		cancel()
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			close(stopped)
			cancel()
		})
	}
}

// withShares stamps ctx with the envelope's per-tenant request-
// byte shares (computed before the sub-frames are recycled). Response
// bytes are split by the same shares — a deliberate approximation: the
// reply's per-sub-frame sizes are unknown until decoded, and request-
// proportional attribution keeps the split deterministic and exact in
// total. A single-tenant envelope takes the cheaper WithTenant stamp.
func (s *Scheduler) withShares(ctx context.Context, batch []*Call) context.Context {
	shares := make([]netsim.TenantShare, 0, 2)
	for _, c := range batch {
		id, n := s.laneOf(c.ctx), len(c.req)
		found := false
		for i := range shares {
			if shares[i].ID == id {
				shares[i].Bytes += n
				found = true
				break
			}
		}
		if !found {
			shares = append(shares, netsim.TenantShare{ID: id, Bytes: n})
		}
	}
	if len(shares) == 1 {
		return netsim.WithTenant(ctx, shares[0].ID)
	}
	return netsim.WithShares(ctx, shares)
}

// --- Remote surface -------------------------------------------------------

// BatchEnabled reports whether this remote multiplexes probes.
func (r *Remote) BatchEnabled() bool { return r.b != nil }

// BatchFrames returns how many frames the batcher has dispatched
// (envelopes and bare stragglers alike). Diagnostics only.
func (r *Remote) BatchFrames() int64 {
	if r.b == nil {
		return 0
	}
	return r.b.frames.Load()
}

// GoBatch submits pre-encoded request frames (ownership of each buffer
// passes to the client) and returns one Call per request. The requests
// are enqueued atomically under one lock acquisition: concurrent
// submitters never interleave *within* one GoBatch's requests, though
// stragglers already queued may share its frames. Requests below the
// size trigger stay queued until the queue fills, the linger timer
// fires, or an explicit Flush dispatches them.
//
// With batching disabled each request is dispatched immediately as its
// own concurrent round trip, so callers need not special-case the
// configuration.
func (r *Remote) GoBatch(ctx context.Context, reqs [][]byte) []*Call {
	calls := make([]*Call, len(reqs))
	for i, req := range reqs {
		calls[i] = &Call{name: r.name, ctx: ctx, req: req, done: make(chan struct{})}
	}
	if r.b == nil {
		for _, c := range calls {
			c := c
			go func() {
				resp, err := r.Do(c.ctx, c.req)
				c.req = nil
				c.complete(resp, err)
			}()
		}
		return calls
	}
	r.b.enqueue(calls)
	return calls
}

// Flush dispatches any queued batched requests immediately instead of
// waiting for the size or linger triggers. Callers submit a probe group
// with GoBatch, Flush the tail, then wait on the calls.
func (r *Remote) Flush() {
	if r.b != nil {
		r.b.flush(cutExplicit)
	}
}
