package client

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
// reply through its Call future. No probe waits on a clock; two triggers
// cut an envelope, both inside one in-flight window per link:
//
//   - size: the queue reaching MaxBatch dispatches immediately;
//   - waiter: a queued probe is sent by the first goroutine that sends
//     or waits for it, on that goroutine's own stack (see batcher.send
//     and batcher.drive).
//
// At most inflightWindow (4) envelopes are in flight on a link. While the
// window is full submissions queue and waiters park, and each completing
// dispatcher takes the next envelope — so coalescing and lane
// arbitration happen exactly when the link is busy, and cost an idle
// link nothing.
//
// There is one queue per link, kept as per-tenant lanes; pick assembles
// each envelope from them under the Scheduler's policy (see sched.go).
// A remote without a scheduler has a single anonymous lane, and a lane
// with no backlogged peer is never held back by its DRR credit, so an
// unscheduled link and a one-tenant fleet frame identically: envelopes
// are the queue in submission order, MaxBatch at a time.
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
}

// inflightWindow is a link's window: how many envelopes, whatever cut
// them, may be in flight at once. Probes submitted while it is full stay
// queued until a dispatcher completes and takes them.
const inflightWindow = 4

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
	// work is the call's deferred work, done on its waiter's stack: the
	// *group of a call of an unbatched group, or a lazy call's Lazy until
	// evaluated.
	work interface{ Send() }
	// b is the batcher the call was submitted to, if any. Under b.mu:
	// queued while the call sits in b's lanes, parked once its waiter has
	// found the window full, env once Send sent it in an envelope.
	b   *batcher
	env *envelope
	// settled arbitrates between completion and abandonment: whichever of
	// complete (the dispatcher) and frame (a waiter whose own context is
	// done) flips it first owns the call's outcome. A late completion
	// recycles its response instead of writing fields nobody reads.
	settled        atomic.Bool
	queued, parked bool
	sent           bool // Send has run its work
}

// NewDetachedCall returns a Call bound to no Remote: an aggregator that
// merges several underlying round trips into one logical reply (e.g. a
// shard router) produces the response frame itself and completes the
// call with CompleteFrame. name labels errors the way a Remote's name
// would.
func NewDetachedCall(name string) *Call {
	return &Call{name: name, done: make(chan struct{})}
}

// Lazy is the work behind a lazy call: Eval computes the call's reply
// from the calls it folds, and Send sends them (Call.Send).
type Lazy interface {
	Send()
	Eval() ([]byte, error)
}

// NewLazyCall returns a Call whose reply l computes from other calls, on
// the stack of the goroutine that waits for it: a reply that only
// merges, meters or retries other replies costs no goroutine or channel.
func NewLazyCall(name string, l Lazy) *Call {
	return &Call{name: name, work: l}
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
// are unaffected. The caller owns the returned frame. Waiting is what
// sends a call still queued in a batcher and what evaluates a lazy one.
//
// A call whose own context ends first is abandoned per that context:
// frame returns the context's error immediately even while the shared
// envelope round trip — detached from any single caller — is still in
// flight, so one caller's cancellation neither waits for nor poisons its
// batch-mates.
func (c *Call) frame() ([]byte, error) {
	if g, ok := c.work.(*group); ok {
		g.once.Do(g.run)
	} else if c.work != nil {
		l := c.work.(Lazy)
		c.work = nil
		c.resp, c.err = l.Eval()
	} else if c.done != nil {
		if c.b != nil {
			c.b.drive(c)
		}
		var abandoned <-chan struct{} // nil (never ready) without a context
		if c.ctx != nil {
			abandoned = c.ctx.Done()
		}
		select {
		case <-c.done:
		case <-abandoned:
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

// Send puts the call's request on the wire from the caller's stack
// without waiting for the reply, which its waiter receives: a caller
// about to wait on several calls sends them all first, so their round
// trips overlap. A request that cannot leave without waiting (a full
// window, a group that crosses whole) leaves when waited for. A lazy
// call sends the calls it folds. A second Send is a no-op.
func (c *Call) Send() {
	switch {
	case c.work != nil && !c.sent:
		c.sent = true
		c.work.Send()
	case c.b != nil:
		c.b.send(c)
	}
}

// Frame waits for completion and returns the raw response frame;
// ownership passes to the caller, which must release it with
// bufpool.Put once decoded. Layers that re-route replies (a
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

// batcher is the per-link multiplexer: per-tenant lanes, assembled into
// envelopes by pick() inside a window of cap(sem) envelopes in flight.
// Outside b.mu, room in the window implies fewer than max probes queued
// (enqueue and next both cut a full backlog before leaving room).
type batcher struct {
	rem   *Remote
	max   int
	sched *Scheduler    // nil = one anonymous lane at the default policy
	sem   chan struct{} // one token per envelope in flight; sends hold b.mu

	mu     sync.Mutex
	lanes  map[netsim.TenantID]*lane
	order  []netsim.TenantID // lane visit order (first-submission order)
	rr     int               // DRR round-robin start index into order
	npend  int               // total queued across lanes
	parked int               // queued calls whose waiter found the window full
	held   int               // envelopes sent by Call.Send and not yet received

	frames atomic.Int64 // dispatched frames, envelopes and stragglers alike (read by tests)
}

func newBatcher(r *Remote, cfg BatchConfig) *batcher {
	if cfg.MaxBatch <= 1 {
		return nil
	}
	return &batcher{rem: r, max: cfg.MaxBatch, sched: r.sched,
		sem: make(chan struct{}, inflightWindow), lanes: make(map[netsim.TenantID]*lane)}
}

// full reports whether the window has no room. Caller holds b.mu.
func (b *batcher) full() bool { return len(b.sem) == cap(b.sem) }

// enqueue adds each call to its tenant's lane (after Remote.admit, the
// link's one quota gate), assembling an envelope with pick() whenever
// the total backlog reaches the size trigger and the window has room for
// it. All calls of one enqueue are appended under one lock acquisition,
// so a caller submitting exactly MaxBatch requests into an *empty* queue
// gets one frame containing exactly those requests; when concurrent
// submitters have left stragglers queued, those join the frame and the
// tail of this enqueue stays queued — correct, just a different
// grouping. Sequential runs always find the queue empty (core collects
// each probe group before issuing the next), which is what the
// deterministic byte-accounting goldens rely on.
func (b *batcher) enqueue(calls []*Call) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range calls {
		if err := b.rem.admit(c.ctx); err != nil {
			bufpool.Put(c.req)
			c.req = nil
			c.complete(nil, err)
			continue
		}
		id := b.sched.laneOf(c.ctx)
		ln := b.lanes[id]
		if ln == nil {
			ln = &lane{}
			b.lanes[id] = ln
			b.order = append(b.order, id)
		}
		ln.queue = append(ln.queue, c)
		c.queued = true
		b.npend++
		if b.npend >= b.max && !b.full() {
			if batch := b.pick(false); len(batch) > 0 {
				b.sem <- struct{}{}
				go b.run(batch)
			}
		}
	}
}

// drive is the waiter trigger: the goroutine about to wait for c sends
// it. While c is queued and the window has room, what is queued leaves
// as an envelope (DRR credit waived: room means nothing contends for the
// link) — on the waiter's own stack when every call aboard shares its
// context, so it can abandon the round trip exactly when it may abandon
// its own call, else on a spawned dispatcher. With the window full the
// waiter parks; a completing dispatcher takes its call.
func (b *batcher) drive(c *Call) {
	for {
		b.mu.Lock()
		if e := c.env; e != nil {
			b.mu.Unlock()
			e.land()
			return
		}
		if c.queued && b.full() && !c.parked {
			c.parked = true
			b.parked++
		}
		if !c.queued || b.full() {
			b.mu.Unlock()
			return
		}
		batch := b.pick(true)
		b.sem <- struct{}{}
		b.mu.Unlock()
		if !sharedBy(batch, c.ctx) {
			go b.run(batch)
			continue
		}
		b.dispatch(batch)
		if next := b.next(); next != nil {
			go b.run(next) // the waiter has its reply; it does not stay to serve others
		}
	}
}

// send is Call.Send of a queued call: what is queued leaves as the
// envelope c's waiter would send (drive), to be received by whoever
// first waits for one of its calls. It holds its window slot until then,
// so at most cap-1 slots are held: in a full window one envelope is a
// dispatcher's, which finishes on its own and serves a parked waiter.
func (b *batcher) send(c *Call) {
	b.mu.Lock()
	if !c.queued || b.full() || b.held >= cap(b.sem)-1 {
		b.mu.Unlock()
		return
	}
	batch := b.pick(true)
	b.sem <- struct{}{}
	if !sharedBy(batch, c.ctx) {
		b.mu.Unlock()
		go b.run(batch)
		return
	}
	e := &envelope{b: b, batch: batch}
	e.mu.Lock() // a mate's waiter lands it once sent
	for _, m := range batch {
		m.env = e
	}
	b.held++
	b.mu.Unlock()
	e.send()
	e.mu.Unlock()
}

// sharedBy reports whether every call of the batch runs under ctx.
func sharedBy(batch []*Call, ctx context.Context) bool {
	for _, c := range batch {
		if c.ctx != ctx {
			return false
		}
	}
	return true
}

// run is a spawned dispatcher: it sends its envelope and then, in the
// same window slot, every envelope next hands it.
func (b *batcher) run(batch []*Call) {
	for batch != nil {
		b.dispatch(batch)
		batch = b.next()
	}
}

// next ends an envelope's flight. Its window slot passes to the next
// envelope while a waiter is parked or a full envelope has accumulated
// behind the window; otherwise it frees. Probes nobody waits for yet are
// left to their waiter: taking them here would split a group still
// being submitted, and with it the framing sequential runs pin.
func (b *batcher) next() []*Call {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.parked > 0 || b.npend >= b.max {
		// Backlogged lanes share the busy link by DRR credit; force only
		// if credit alone cannot form an envelope.
		if batch := b.pick(false); len(batch) > 0 {
			return batch
		}
		if batch := b.pick(true); len(batch) > 0 {
			return batch
		}
	}
	<-b.sem
	return nil
}

// pick assembles one envelope (up to max calls) from the lanes under the
// scheduling policy. Caller holds b.mu. With force set (a waiter sending
// into a window with room), DRR deficits are waived — priority order and
// the starvation guard still apply, but no probe stays queued for lack
// of credit.
func (b *batcher) pick(force bool) []*Call {
	if len(b.order) == 1 && b.npend <= b.max {
		// One lane is all this link has ever seen: nobody to arbitrate
		// against, and its backlog fits, so the queue is the envelope —
		// handed over instead of copied.
		ln := b.lanes[b.order[0]]
		batch := ln.queue
		*ln = lane{}
		b.npend = 0
		for _, c := range batch {
			b.taken(c)
		}
		return batch
	}
	batch := make([]*Call, 0, b.max)
	// Starvation guard: lanes passed over too many consecutive envelopes
	// contribute their head probe first, whatever their tier.
	for _, id := range b.order {
		if len(batch) >= b.max {
			break
		}
		ln := b.lanes[id]
		if len(ln.queue) > 0 && ln.passed >= starvationBound {
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
			// eventually form or the backlog would only drain by force.
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
	b.taken(c)
	return append(batch, c)
}

// taken marks c as having left the queue. Caller holds b.mu.
func (b *batcher) taken(c *Call) {
	c.queued = false
	if c.parked {
		c.parked = false
		b.parked--
	}
}

// envelope is one batch crossing the link as a single frame (bare for a
// batch of one — a straggler costs exactly what an unbatched request
// costs): send puts it on the wire, receive demultiplexes the reply to
// the batch's calls.
//
// The round trip is detached from any single caller: when all calls
// share one context (the single-session pattern — all probes of a join
// run share the run context) the trip runs under it directly, but a
// mixed batch runs under a derived context cancelled only once EVERY
// batched context is done. One caller's cancellation therefore never
// fails its batch-mates; the cancelled caller itself returns promptly
// through Call.frame's own-context watch.
type envelope struct {
	b     *batcher
	batch []*Call // nil once received
	subs  [][]byte
	stop  func()
	f     netsim.Flight
	err   error // the quota gate's
	// held is the frame under a timed retry policy, sent by Do under ctx
	// when the envelope is received.
	held []byte
	ctx  context.Context

	mu sync.Mutex // held while it is sent, and while it lands
}

// dispatch sends one batch and receives its reply on the caller's stack.
func (b *batcher) dispatch(batch []*Call) {
	e := envelope{b: b, batch: batch}
	e.send()
	e.receive()
}

func (e *envelope) send() {
	b, batch := e.b, e.batch
	b.frames.Add(1)
	ctx, stop := dispatchContext(batch)
	e.stop = stop
	var frame []byte
	if len(batch) == 1 {
		frame, batch[0].req = batch[0].req, nil
	} else {
		e.subs = make([][]byte, len(batch))
		for i, c := range batch {
			e.subs[i] = c.req
		}
		if b.sched != nil {
			// Multi-tenant envelope: stamp the per-tenant byte shares so
			// the meter attributes (and the ledger bills) the frame
			// exactly.
			ctx = b.sched.withShares(ctx, batch)
		}
		frame = wire.AppendBatch(bufpool.Get(), e.subs)
		for _, c := range batch {
			bufpool.Put(c.req)
			c.req = nil
		}
	}
	if b.rem.timed() {
		e.held, e.ctx = frame, ctx
		return
	}
	e.f, e.err = b.rem.send(ctx, frame)
}

func (e *envelope) receive() {
	defer e.stop()
	b, batch := e.b, e.batch
	var resp []byte
	err := e.err
	switch {
	case e.held != nil:
		resp, err = b.rem.Do(e.ctx, e.held)
	case err == nil:
		resp, err = b.rem.recv(&e.f)
	}
	if len(batch) == 1 {
		batch[0].complete(resp, err)
		return
	}
	if err != nil {
		for _, c := range batch {
			c.complete(nil, err)
		}
		return
	}
	subs, err := wire.DecodeBatchAppend(resp, wire.MsgBatchReply, e.subs[:0])
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

// land receives an envelope Call.Send sent, unless a mate's waiter did,
// and hands its slot on as drive does.
func (e *envelope) land() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.batch == nil {
		return
	}
	e.receive()
	e.batch = nil
	b := e.b
	b.mu.Lock()
	b.held--
	b.mu.Unlock()
	if next := b.next(); next != nil {
		go b.run(next)
	}
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
	if sharedBy(batch[1:], first) {
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

// GoBatch submits pre-encoded request frames (ownership of each buffer
// passes to the client; the reqs slice itself stays the caller's) and
// returns one Call per request. The requests are enqueued atomically
// under one lock acquisition: concurrent submitters never interleave
// *within* one GoBatch's requests, though stragglers already queued may
// share its frames. Requests below the size trigger stay queued until the
// queue fills or the first goroutine to wait on one of the queued Calls
// sends them.
//
// With batching disabled the requests form one group (see group.go) that
// travels as the same bare frames the typed calls send, in the same
// order: nothing is spawned and nothing is sent at submission — the
// first goroutine to wait on any of the Calls sends the whole group on
// its own stack, a chunk of requests at a time, each chunk's replies
// awaited before the next chunk leaves. Callers need not special-case
// the configuration.
func (r *Remote) GoBatch(ctx context.Context, reqs [][]byte) []*Call {
	if r.b == nil {
		return r.group(ctx, reqs)
	}
	calls := make([]*Call, len(reqs))
	for i, req := range reqs {
		calls[i] = &Call{name: r.name, ctx: ctx, req: req, done: make(chan struct{}), b: r.b}
	}
	r.b.enqueue(calls)
	return calls
}
