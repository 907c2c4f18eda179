// Package client models the mobile device of the paper: a resource-
// constrained host with a bounded object buffer, holding metered
// connections to the two non-cooperative dataset servers and issuing the
// primitive queries of §3 through them.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Device is the PDA: it owns the buffer constraint shared by all
// operations of one join execution. Algorithms consult CanHold before
// downloading and repartition (or stream probes) when a window does not
// fit.
type Device struct {
	// BufferObjects is the maximum number of objects the device can hold
	// at once; 0 means unlimited.
	BufferObjects int
}

// CanHold reports whether n objects fit in the buffer.
func (d Device) CanHold(n int) bool {
	return d.BufferObjects <= 0 || n <= d.BufferObjects
}

// RetryPolicy governs how a Remote re-issues queries after transient
// transport failures. Every protocol message is a pure, idempotent query
// (nothing on the server changes state), so re-issuing a request whose
// frame — or whose response — was lost is always semantically safe. Each
// attempt crosses the Metered wrapper, so retransmissions are charged to
// the meter exactly like first transmissions (Eq. 1).
//
// The zero value disables retries, reproducing the fail-fast behaviour of
// the original stack.
type RetryPolicy struct {
	// MaxAttempts is the total number of times one query may be issued;
	// values below 1 mean 1 (no retries).
	MaxAttempts int
	// Backoff is the wait before the first retry, doubling with every
	// further retry. Zero retries immediately.
	Backoff time.Duration
	// PerTryTimeout bounds each individual attempt; an attempt that
	// exceeds it is abandoned and retried (the run context's deadline
	// still bounds the query as a whole). Zero applies no per-attempt
	// deadline.
	PerTryTimeout time.Duration
	// Budget, when positive, bounds one logical query end-to-end: every
	// attempt, backoff sleep, and per-try timeout draws from the same
	// deadline instead of stacking PerTryTimeout × MaxAttempts. The worst
	// case of a query is then Budget, whatever the retry schedule — the
	// guarantee flat per-try timeouts cannot give. Zero applies no
	// budget.
	Budget time.Duration
}

// DefaultRetry is a sane policy for real, lossy links: four attempts with
// a short doubling backoff.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Millisecond}
}

// Option configures a Remote at construction.
type Option func(*Remote)

// WithRetry sets the remote's retry policy.
func WithRetry(p RetryPolicy) Option {
	return func(r *Remote) { r.retry = p }
}

// WithLedger arms fleet-wide tenant accounting on the remote: its meter
// (netsim.Meter.SetLedger) attributes every frame to the tenant its
// context names and feeds the shared ledger, and the remote's one quota
// gate, admit — consulted by Do, by a pipelined group and by the batcher
// at enqueue — rejects probes of tenants whose Eq. (1) spend has crossed
// their byte quota with a typed *netsim.QuotaError. One ledger is shared
// by every remote of a serving fleet, so quotas bound a tenant's spend
// across all links at once.
func WithLedger(l *netsim.Ledger) Option {
	return func(r *Remote) { r.m.SetLedger(l) }
}

// WithScheduler arms multi-tenant probe scheduling on the remote's
// batcher: submissions queue in per-tenant lanes and the scheduler
// decides which lane's probes enter each envelope (strict priority
// tiers, deficit-round-robin within a tier, starvation bound). Requires
// batching (WithBatch, MaxBatch > 1) to have an injection point; without
// a batcher the option only arms the meter's tenant columns, so fairness
// stays observable. Quotas are WithLedger's, not the scheduler's. One
// scheduler is shared by every remote of a fleet so policies are
// consistent across links.
func WithScheduler(s *Scheduler) Option {
	return func(r *Remote) {
		r.sched = s
		if s != nil {
			r.m.EnableTenants()
		}
	}
}

// Remote is the client-side proxy to one dataset server over a metered
// transport: the leaf of the request/reply seam. Do is its one query
// path; the typed calls are the embedded Typed adaptor bound to it. All
// methods are strictly request/response and carry a context:
// cancellation or an expired deadline abandons the round trip promptly,
// even against a hung server. A Remote is safe for concurrent use:
// metering is atomic and both transports accept concurrent in-flight
// round trips, so the concurrent executor may issue several queries to
// the same server at once.
//
// Remote owns the frame buffers of its round trips: requests are encoded
// into pooled buffers and recycled once the response arrives, and
// response frames are recycled as soon as they are decoded (decoded
// values never alias the frame). This assumes the server builds response
// frames rather than echoing request bytes — true of the dataset server,
// whose replies are always freshly encoded.
type Remote struct {
	Typed

	name     string
	conn     *netsim.Metered
	m        *netsim.Meter
	retry    RetryPolicy
	retries  atomic.Int64
	batchCfg BatchConfig
	b        *batcher   // nil when batching is disabled
	sched    *Scheduler // nil unless WithScheduler armed lanes
}

// NewRemote wraps a transport to server name, metering all traffic with
// link and tariff pricePerByte. An invalid link configuration is reported
// here — the configuration boundary — instead of crashing the process.
func NewRemote(name string, rt netsim.RoundTripper, link netsim.LinkConfig, pricePerByte float64, opts ...Option) (*Remote, error) {
	m, err := netsim.NewMeter(link, pricePerByte)
	if err != nil {
		return nil, fmt.Errorf("client: remote %s: %w", name, err)
	}
	r := &Remote{name: name, conn: netsim.NewMetered(rt, m), m: m}
	r.Typed = NewTyped(r)
	for _, o := range opts {
		o(r)
	}
	r.b = newBatcher(r, r.batchCfg)
	return r, nil
}

// Name returns the remote's diagnostic name.
func (r *Remote) Name() string { return r.name }

// PricePerByte returns the link's per-byte tariff, used for money-cost
// accounting.
func (r *Remote) PricePerByte() float64 { return r.m.PricePerByte() }

// Usage returns the accumulated traffic snapshot.
func (r *Remote) Usage() netsim.Usage { return r.m.Usage() }

// TenantUsage returns the tenant's attributed slice of this link's
// traffic (zero unless tenant mode is armed — see WithLedger and
// WithScheduler). Per-tenant slices sum column by column to Usage().
func (r *Remote) TenantUsage(id netsim.TenantID) netsim.Usage { return r.m.TenantUsage(id) }

// Retries returns how many re-issued attempts this remote has made (0 on
// a failure-free run).
func (r *Remote) Retries() int64 { return r.retries.Load() }

// Link returns the link configuration this remote's meter charges
// against. The online planner (package plan) reads it to hydrate the
// cost model from the link instead of static defaults.
func (r *Remote) Link() netsim.LinkConfig { return r.m.Link() }

// Close releases the underlying transport.
func (r *Remote) Close() error { return r.conn.Close() }

// retryable reports whether a failed attempt may be re-issued: transient
// transport faults (drops, severed connections, socket errors, per-try
// timeouts) are; a transport we closed ourselves is not, and a canceled
// or expired parent context stops the loop before this check.
func retryable(err error) bool {
	return !errors.Is(err, netsim.ErrClosed)
}

// admit is the remote's one quota gate, on the unbatched path and at the
// batcher's enqueue alike: a tenant over its fleet-wide byte budget (the
// meter's ledger) is rejected before any bytes are committed to the link.
func (r *Remote) admit(ctx context.Context) error {
	if l := r.m.Ledger(); l != nil {
		if id := netsim.TenantOf(ctx); id != "" {
			if qerr := l.Check(id); qerr != nil {
				return fmt.Errorf("%s: %w", r.name, qerr)
			}
		}
	}
	return nil
}

// Do is the seam call (see Doer): it sends a pooled request frame and
// returns the response frame, re-issuing the request per the retry policy
// on transient transport failures. Ownership of the request buffer ends
// here: it is recycled on success and on every failure whose attempts
// all ran to completion. An
// abandoned attempt — one whose error carries the netsim.ErrFrameRetained
// mark (per-try timeout, cancellation, a transport shutdown mid-service)
// — may leave the frame referenced by an in-flight server worker that is
// still decoding it; once any attempt was abandoned the buffer is left
// to the garbage collector, even if a later retry succeeds or fails
// cleanly — recycling it would hand a buffer that is still being read to
// the next encoder. Retries themselves are safe: both the retry and the
// abandoned worker only read the frame. The caller owns the returned
// response frame and must release it with bufpool.Put after decoding.
//
// The dataset server always encodes responses into fresh buffers, but a
// custom in-process Handler could echo the request frame back; the
// aliasing guard makes sure the shared backing is then released exactly
// once (as the response), never double-Put.
func (r *Remote) Do(ctx context.Context, req []byte) ([]byte, error) {
	if !r.timed() {
		f, err := r.send(ctx, req)
		if err != nil {
			return nil, err
		}
		return r.recv(&f)
	}
	if err := r.admit(ctx); err != nil {
		bufpool.Put(req) // never sent
		return nil, err
	}
	if r.retry.Budget > 0 {
		// One deadline for the whole attempt loop: retries and backoffs
		// spend from it rather than stacking their own timeouts.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.retry.Budget)
		defer cancel()
	}
	return r.attempts(ctx, req, 0, nil, false)
}

// timed reports whether the retry policy times its attempts
// (PerTryTimeout, Budget). Such a request is sent by Do, whose clock
// starts with the attempt, and never ahead of its waiter.
func (r *Remote) timed() bool { return r.retry.PerTryTimeout > 0 || r.retry.Budget > 0 }

// send and recv are an untimed Do in two halves: send passes the quota
// gate (a refused request is recycled, never sent) and puts the first
// attempt on the wire (netsim.Metered.Send); recv receives it and goes
// on as Do's attempt loop. The caller owns the returned frame.
func (r *Remote) send(ctx context.Context, req []byte) (netsim.Flight, error) {
	if err := r.admit(ctx); err != nil {
		bufpool.Put(req)
		return netsim.Flight{}, err
	}
	return r.conn.Send(ctx, req), nil
}

func (r *Remote) recv(f *netsim.Flight) ([]byte, error) {
	resp, err := f.Recv()
	if err == nil {
		return r.accept(f.Request(), resp, false)
	}
	return r.attempts(f.Context(), f.Request(), 1, err, errors.Is(err, netsim.ErrFrameRetained))
}

// attempts is Do's attempt loop. last is the previous attempt's error
// (nil when none was made) and spent the attempts req has used up. Do
// enters with neither; a failed pipelined chunk enters each request it
// left unanswered with its error and spent 1 or 0 (see Remote.pipeline),
// so each is re-sent, or fails, exactly as a Do retry would. retained
// reports whether an earlier attempt may still reference req.
func (r *Remote) attempts(ctx context.Context, req []byte, spent int, last error, retained bool) ([]byte, error) {
	attempts := max(r.retry.MaxAttempts, 1)
	for try := spent; try < attempts; try++ {
		if last != nil {
			if ctx.Err() != nil || !retryable(last) {
				break
			}
			r.retries.Add(1)
			// The doubling is capped, so long loops cannot overflow.
			if backoff := r.retry.Backoff << min(max(try-1, 0), 10); backoff > 0 {
				t := time.NewTimer(backoff)
				interrupted := false
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					last = ctx.Err()
					interrupted = true
				}
				if interrupted {
					break
				}
			}
		}
		tryCtx, cancel := ctx, context.CancelFunc(func() {})
		if r.retry.PerTryTimeout > 0 {
			tryCtx, cancel = context.WithTimeout(ctx, r.retry.PerTryTimeout)
		}
		resp, err := r.conn.RoundTrip(tryCtx, req)
		cancel()
		if err == nil {
			return r.accept(req, resp, retained)
		}
		last = err
		if errors.Is(err, netsim.ErrFrameRetained) {
			retained = true
		}
	}
	if !retained {
		// Every attempt ran to completion (the transport no longer holds
		// the frame), so the request buffer can be recycled even though
		// the query failed.
		bufpool.Put(req)
	}
	return nil, fmt.Errorf("%s: %w", r.name, last)
}

// accept finishes a query whose attempt was answered with resp: the
// request frame is recycled unless an earlier attempt may still read it,
// and a MsgError reply becomes the query's error.
func (r *Remote) accept(req, resp []byte, retained bool) ([]byte, error) {
	if !retained && !bufpool.SameBacking(req, resp) {
		bufpool.Put(req)
	}
	if wire.Type(resp) == wire.MsgError {
		err := fmt.Errorf("%s: %w", r.name, wire.DecodeError(resp))
		bufpool.Put(resp)
		return nil, err
	}
	return resp, nil
}
