package netsim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Multi-tenant accounting. A long-lived join service multiplexes many
// concurrent sessions over one shared fleet of metered links, so the
// Eq. (1) bill — so far a per-link total — must additionally be
// attributable to the tenant that caused each transfer. Three pieces
// cooperate:
//
//   - a TenantID rides the context of every probe (WithTenant), so the
//     Metered wrapper knows whom to bill when a frame crosses the link;
//   - the Meter keeps one tally per tenant next to the tally of its link
//     totals: every charged frame is split across the tenants named by
//     the context, largest-remainder-exact, so the per-tenant slices
//     always sum to the link totals column by column;
//   - a fleet-wide Ledger accumulates each tenant's wire-byte spend
//     across all links and enforces byte quotas: once a tenant's spend
//     crosses its budget, admission points reject further probes with a
//     typed *QuotaError.
//
// Single-tenant stacks never enter tenant mode: no context carries a
// tenant, no attribution runs, and the metered totals stay bit-identical
// to the pre-multi-tenant goldens.

// TenantID names one tenant of a shared fleet. The empty ID is the
// anonymous default lane: traffic whose context names no tenant is
// attributed to it, so the per-tenant columns stay exhaustive.
type TenantID string

type tenantKey struct{}

// WithTenant stamps ctx with the tenant on whose behalf subsequent
// probes run. Every frame metered under the returned context is
// attributed to (and, with a ledger armed, billed against) that tenant.
func WithTenant(ctx context.Context, id TenantID) context.Context {
	return context.WithValue(ctx, tenantKey{}, id)
}

// TenantOf returns the tenant stamped on ctx, or the empty (anonymous)
// tenant.
func TenantOf(ctx context.Context) TenantID {
	id, _ := ctx.Value(tenantKey{}).(TenantID)
	return id
}

// TenantShare is one tenant's part of a frame that carries several
// tenants' payloads (a batch envelope with co-batched sub-requests).
// Bytes is the tenant's sub-payload size, the weight by which the
// envelope's metered bytes are split.
type TenantShare struct {
	ID    TenantID
	Bytes int
}

type sharesKey struct{}

// WithShares stamps ctx with an explicit multi-tenant attribution for
// the frames metered under it. The batcher uses it for envelopes whose
// sub-requests belong to different tenants; it takes precedence over a
// single WithTenant stamp.
func WithShares(ctx context.Context, shares []TenantShare) context.Context {
	return context.WithValue(ctx, sharesKey{}, shares)
}

func sharesOf(ctx context.Context) []TenantShare {
	s, _ := ctx.Value(sharesKey{}).([]TenantShare)
	return s
}

// --- quota ledger ---------------------------------------------------------

// ErrOverQuota matches (with errors.Is) the typed *QuotaError an
// admission point returns when a tenant's Eq. (1) spend has crossed its
// byte budget.
var ErrOverQuota = errors.New("netsim: tenant over byte quota")

// QuotaError reports a probe rejected because its tenant exhausted its
// byte quota. It matches ErrOverQuota under errors.Is.
type QuotaError struct {
	Tenant TenantID
	Spent  int64
	Quota  int64
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("netsim: tenant %q over byte quota (spent %d of %d)", string(e.Tenant), e.Spent, e.Quota)
}

// Is matches ErrOverQuota, so callers can test the error class without
// destructuring.
func (e *QuotaError) Is(target error) bool { return target == ErrOverQuota }

// Ledger accumulates each tenant's wire-byte spend across every metered
// link of a fleet and holds the byte quotas admission is checked
// against. One Ledger is shared by all links of a serving fleet; meters
// feed it as they attribute frames, so Spent is always the same Eq. (1)
// total the per-link tenant columns sum to.
type Ledger struct {
	mu   sync.RWMutex
	acct map[TenantID]*ledgerAccount
}

type ledgerAccount struct {
	quota int64 // 0 = unlimited
	spent atomic.Int64
}

// NewLedger returns an empty ledger (no quotas: every tenant unlimited).
func NewLedger() *Ledger {
	return &Ledger{acct: make(map[TenantID]*ledgerAccount)}
}

func (l *Ledger) account(id TenantID) *ledgerAccount {
	l.mu.RLock()
	a := l.acct[id]
	l.mu.RUnlock()
	if a != nil {
		return a
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if a = l.acct[id]; a == nil {
		a = &ledgerAccount{}
		l.acct[id] = a
	}
	return a
}

// SetQuota sets the tenant's byte budget; 0 means unlimited.
func (l *Ledger) SetQuota(id TenantID, bytes int64) {
	l.account(id).quota = bytes
}

// Charge adds wire bytes to the tenant's fleet-wide spend. Meters call
// it as they attribute frames; the crossing frame itself is never
// clipped (rejection happens at the next admission), so a tenant may
// finish marginally over budget — by at most one frame per link.
func (l *Ledger) Charge(id TenantID, wire int) {
	l.account(id).spent.Add(int64(wire))
}

// Spent returns the tenant's accumulated fleet-wide wire-byte spend.
func (l *Ledger) Spent(id TenantID) int64 { return l.account(id).spent.Load() }

// Check returns a typed *QuotaError when the tenant's spend has reached
// its quota, nil otherwise (including for unlimited tenants). Admission
// points — the probe scheduler's lanes, the client's round-trip entry —
// call it before committing bytes to the link.
func (l *Ledger) Check(id TenantID) error {
	a := l.account(id)
	if a.quota <= 0 {
		return nil
	}
	if spent := a.spent.Load(); spent >= a.quota {
		return &QuotaError{Tenant: id, Spent: spent, Quota: a.quota}
	}
	return nil
}

// --- per-meter tenant attribution -----------------------------------------

// EnableTenants puts the meter in tenant mode: every charged frame is
// additionally attributed to the tenants its context names (the empty
// tenant when it names none). Off — the default — the attribution path
// is never touched and charging stays exactly the pre-multi-tenant hot
// path.
func (m *Meter) EnableTenants() { m.tenantMode.Store(true) }

// SetLedger arms fleet-wide quota accounting: every attributed wire byte
// is also charged to the tenant's ledger account. Implies EnableTenants.
func (m *Meter) SetLedger(l *Ledger) {
	m.ledger = l
	m.EnableTenants()
}

// Ledger returns the fleet ledger this meter feeds (nil when quotas are
// not armed).
func (m *Meter) Ledger() *Ledger { return m.ledger }

// TenantUsage returns the tenant's attributed slice of this link's
// traffic. Column by column, the slices of all tenants (including the
// empty anonymous tenant) sum exactly to Usage(): shared envelope frames
// are split largest-remainder by sub-payload size, so no byte, packet,
// or message is double-counted or dropped.
func (m *Meter) TenantUsage(id TenantID) Usage {
	if t, ok := m.tenants.Load(id); ok {
		return t.(*tally).usage()
	}
	return Usage{}
}

// attribute books one already-charged frame to the tenants named by
// ctx, and each tenant's wire bytes to the ledger. Called by the Meter
// under tenant mode only.
func (m *Meter) attribute(ctx context.Context, payload, wire, pkts int, dir Direction, hedged bool) {
	shares := sharesOf(ctx)
	if len(shares) == 0 {
		// Single-tenant frame (or anonymous): the whole frame belongs to
		// one tenant — no splitting, no allocation.
		m.bill(TenantOf(ctx), 1, payload, wire, pkts, dir, hedged)
		return
	}
	payloadSplit := splitByShares(payload, shares)
	wireSplit := splitByShares(wire, shares)
	pktSplit := splitByShares(pkts, shares)
	msgSplit := splitByShares(1, shares)
	for i, sh := range shares {
		m.bill(sh.ID, msgSplit[i], payloadSplit[i], wireSplit[i], pktSplit[i], dir, hedged)
	}
}

func (m *Meter) bill(id TenantID, msgs, payload, wire, pkts int, dir Direction, hedged bool) {
	t, ok := m.tenants.Load(id)
	if !ok {
		t, _ = m.tenants.LoadOrStore(id, &tally{})
	}
	t.(*tally).add(msgs, payload, wire, pkts, dir, hedged)
	if m.ledger != nil {
		m.ledger.Charge(id, wire)
	}
}

// splitByShares divides total across the shares proportionally to their
// Bytes weights, exactly: the parts sum to total. Rounding follows the
// largest-remainder method with ties broken by share order, so the split
// is deterministic for a deterministic share list.
func splitByShares(total int, shares []TenantShare) []int {
	out := make([]int, len(shares))
	var weight int64
	for _, sh := range shares {
		w := sh.Bytes
		if w < 0 {
			w = 0
		}
		weight += int64(w)
	}
	if weight == 0 {
		// Degenerate (all-zero weights): everything to the first share so
		// the sum still balances.
		if len(out) > 0 {
			out[0] = total
		}
		return out
	}
	assigned := 0
	type rem struct {
		idx  int
		frac int64
	}
	rems := make([]rem, len(shares))
	for i, sh := range shares {
		w := int64(sh.Bytes)
		if w < 0 {
			w = 0
		}
		q := int64(total) * w
		out[i] = int(q / weight)
		rems[i] = rem{idx: i, frac: q % weight}
		assigned += out[i]
	}
	// Hand the leftover units to the largest remainders, earliest index
	// winning ties.
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for k := 0; k < total-assigned; k++ {
		out[rems[k%len(rems)].idx]++
	}
	return out
}
