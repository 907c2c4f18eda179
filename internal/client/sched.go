package client

import (
	"context"
	"sync"

	"repro/internal/netsim"
)

// Multi-tenant probe scheduling. A serving fleet multiplexes many
// concurrent join sessions over shared links; the per-link batcher is
// the one point every probe funnels through, so that is where arbitration
// lives. Submissions queue in per-tenant lanes and the scheduler decides
// which lane's probes enter each envelope:
//
//   - strict priority tiers: a lane of higher Priority always contributes
//     its probes to the envelope before any lower tier is considered
//     (lower tiers still fill the envelope's remaining slots — riding in
//     the same frame delays nobody);
//   - deficit round-robin within a tier: each round credits a lane
//     schedQuantum × Weight bytes of deficit, and the lane emits probes
//     while its deficit covers their request bytes — so under backlog,
//     byte shares within a tier converge to the weight ratio. DRR is
//     fairness among backlogged lanes: a lane with no backlogged peer in
//     its tier has nobody to yield to and is not held to its credit;
//   - starvation bound: a non-empty lane passed over starvationBound
//     consecutive envelopes contributes its head probe to the next one
//     regardless of tier, so even the lowest tier makes progress while
//     high-priority traffic is saturating the link.
//
// One Scheduler is shared by every remote of a fleet, so policies are
// consistent across links. The lanes themselves are per-batcher — per
// link — which is what makes the fairness per-link, matching the
// per-link batching it arbitrates.

// schedQuantum is the DRR byte credit one visit grants a lane per unit
// of weight. It is a few typical probe frames, so small-weight lanes
// still emit at least one probe per round and the quantum — not the
// probe size — sets the granularity of fairness.
const schedQuantum = 256

// starvationBound is the number of consecutive envelopes a waiting lane
// may be passed over before it is force-served.
const starvationBound = 8

// TenantPolicy is one tenant's scheduling class.
type TenantPolicy struct {
	// Priority is the strict tier: higher values are served first.
	Priority int
	// Weight is the deficit-round-robin weight within the tier; values
	// below 1 are treated as 1.
	Weight int
}

// Scheduler holds the fleet-wide scheduling policy: each tenant's
// priority tier and intra-tier weight. It carries no queue state — lanes
// live in each link's batcher — and no quota (that is the meter's
// ledger, see WithLedger), so one Scheduler serves any number of remotes
// concurrently.
type Scheduler struct {
	mu  sync.RWMutex
	pol map[netsim.TenantID]TenantPolicy
}

// NewScheduler returns a scheduler with every tenant at the default
// class.
func NewScheduler() *Scheduler {
	return &Scheduler{pol: make(map[netsim.TenantID]TenantPolicy)}
}

// SetPolicy sets a tenant's scheduling class. Tenants without an
// explicit policy run at {Priority: 0, Weight: 1}.
func (s *Scheduler) SetPolicy(id netsim.TenantID, p TenantPolicy) {
	if p.Weight < 1 {
		p.Weight = 1
	}
	s.mu.Lock()
	s.pol[id] = p
	s.mu.Unlock()
}

// Policy returns the tenant's scheduling class (the default class for
// tenants never configured, and for every tenant of a nil scheduler).
func (s *Scheduler) Policy(id netsim.TenantID) TenantPolicy {
	if s != nil {
		s.mu.RLock()
		p, ok := s.pol[id]
		s.mu.RUnlock()
		if ok {
			return p
		}
	}
	return TenantPolicy{Priority: 0, Weight: 1}
}

// laneOf names the lane a submission under ctx queues in: its tenant's.
// A link without a scheduler does not arbitrate between tenants, so
// everything shares the one anonymous lane.
func (s *Scheduler) laneOf(ctx context.Context) netsim.TenantID {
	if s == nil || ctx == nil {
		return ""
	}
	return netsim.TenantOf(ctx)
}
