package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Endpoint is what the router scatters over: the request/reply seam
// (client.Doer — one frame in, one frame out) plus the batcher and meter
// accessors. It declares no typed query: a layer that needs one binds
// client.NewTyped to the endpoint. Three implementations exist:
// *client.Remote (one shard behind one metered link), *ReplicaSet (one
// shard behind N replica links with load balancing, hedging, and
// failover) and *Router (an aggregation-tree node: a subtree behind a
// metered uplink, see NewTree). The router is indifferent:
// scatter–gather, routing pruning, and batched multiplexing compose
// identically over any of them.
type Endpoint interface {
	Name() string
	client.Doer
	GoBatch(ctx context.Context, reqs [][]byte) []*client.Call
	Usage() netsim.Usage
	PricePerByte() float64
	Retries() int64
	Close() error
}

// Router presents N shard servers as one logical relation. It implements
// the seam call Do — resolve the request against the routing table,
// scatter the per-shard sub-frames, merge the reply frames into one
// (route.go holds all three, and GoBatch runs the same plans through the
// shard batchers) — and embeds client.Typed bound to itself, so it
// satisfies core.Probe and every core algorithm runs unmodified against
// a sharded relation.
//
// Per-shard-link resilience and batching come from the shard endpoints
// themselves: construct the Remotes with client.WithRetry /
// client.WithBatch and the router's scatter rides on both.
type Router struct {
	client.Typed

	name string
	// relation names the logical relation gaps are reported under: the
	// router's own name, or for an interior tree node (NewTree) the
	// tree's, since a gap means "<relation> is missing shard X" whichever
	// level discovered it.
	relation string
	shards   []Endpoint

	// uplink meters the link between an interior tree node and its
	// parent (nil at the root): Do and GoBatch charge each request frame
	// Up, finish each merged reply Down — the parent is this link's
	// client, as on a leaf link. skips counts the parent's route-arounds
	// of this subtree (RoutedAround).
	uplink *netsim.Meter
	skips  atomic.Int64

	// Shard metadata for routing, fetched once (one INFO per shard link,
	// metered like any query) on first use. Guarded by mu rather than a
	// sync.Once so a transient failure does not poison the router for
	// the session's later runs. Under partial mode the cache may be
	// partial: infoOK marks the shards whose INFO arrived, infoErr keeps
	// each dead shard's root cause for gap reports, and infoRetryAt
	// spaces re-probes of each dead shard individually so one flapping
	// shard's cooldown neither costs each query a fresh timeout nor
	// delays the INFO refresh of a different shard that revives sooner.
	mu          sync.Mutex
	ready       bool
	infos       []wire.Info
	infoOK      []bool
	infoErr     []error
	infoRetryAt []time.Time
}

// infoRetryCooldown spaces INFO re-probes of a dead shard under partial
// mode. A revived shard rejoins routing at the first query after the
// cooldown; until then its absence is reported as a gap, not re-paid.
const infoRetryCooldown = 250 * time.Millisecond

// healthChecked is implemented by endpoints that track their own
// liveness (*ReplicaSet with breakers armed, and *Router, which folds
// its children's). Under partial mode the router consults Healthy before
// scattering to a shard, so a shard whose every replica is open-circuit
// — or a subtree none of whose children admits traffic — is routed
// around, gap recorded, probe saved, instead of re-discovered by a
// doomed attempt.
type healthChecked interface {
	Healthy() bool
	RoutedAround()
}

// errAllOpen reports a shard skipped because no replica admits
// traffic (every breaker open).
var errAllOpen = errors.New("shard: all replicas open-circuit")

// NewRouter assembles a router named name over the given shard
// endpoints (plain remotes or replica sets — see Remotes for the
// former). All shard links must share one per-byte tariff: the
// money-cost account (Eq. 1 × price) is computed from the merged usage,
// which is only exact under a uniform price.
func NewRouter(name string, shards []Endpoint) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: router %s needs at least one shard", name)
	}
	price := shards[0].PricePerByte()
	for _, s := range shards[1:] {
		if s.PricePerByte() != price {
			return nil, fmt.Errorf("shard: router %s: shard tariffs differ (%v vs %v)",
				name, price, s.PricePerByte())
		}
	}
	r := &Router{name: name, relation: name, shards: shards}
	r.Typed = client.NewTyped(r)
	return r, nil
}

// Name returns the router's diagnostic name.
func (r *Router) Name() string { return r.name }

// Shards exposes the shard endpoints (tests and diagnostics).
func (r *Router) Shards() []Endpoint { return r.shards }

// NumShards returns the number of leaf shards behind this router. For a
// flat router that is simply len(shards); in an aggregation tree each
// interior child reports its own leaf count, so the root answer is the
// fleet size regardless of topology — which keeps Completeness
// accounting (ShardsTotal, ShardsAnswered) in leaf units at any depth.
func (r *Router) NumShards() int {
	n := 0
	for _, s := range r.shards {
		if sub, ok := s.(*Router); ok {
			n += sub.NumShards()
		} else {
			n++
		}
	}
	return n
}

// LevelUsages returns the accumulated traffic of every level of the
// routing topology, root outward: index 0 sums the links into the root
// device (this router's direct children), index 1 the links one hop
// below, and so on. A flat router yields one level — identical to
// Usage(). An aggregation tree yields one entry per level: interior
// nodes contribute their uplink meter (the bytes that actually crossed
// the link into the level above) and recurse, leaves contribute their
// full link usage. The scaling benchmarks and Explain read level 0
// to show the root fan-in staying ~flat while leaf traffic grows with N.
func (r *Router) LevelUsages() []netsim.Usage {
	var levels []netsim.Usage
	frontier := slices.Clone(r.shards)
	for len(frontier) > 0 {
		var sum netsim.Usage
		var next []Endpoint
		for _, s := range frontier {
			if sub, ok := s.(*Router); ok {
				sum = sum.Add(sub.uplinkUsage())
				next = append(next, sub.shards...)
				continue
			}
			sum = sum.Add(s.Usage())
		}
		levels = append(levels, sum)
		frontier = next
	}
	return levels
}

// Usage returns the relation's accumulated traffic: the sum over all
// shard links (every netsim.Usage field is an additive total) plus, for
// an interior tree node, its uplink — so the root's Usage, and with it
// Stats.TotalBytes and the Eq. 1 money cost, accounts every hop a byte
// crossed. A parent's route-arounds of the subtree fold into
// BreakerSkips like a replica set's.
func (r *Router) Usage() netsim.Usage {
	sum := r.uplinkUsage()
	for _, s := range r.shards {
		sum = sum.Add(s.Usage())
	}
	sum.BreakerSkips += int(r.skips.Load())
	return sum
}

// uplinkUsage returns the traffic an interior node exchanged with its
// parent, the partially-merged view; the root has no uplink.
func (r *Router) uplinkUsage() netsim.Usage {
	if r.uplink == nil {
		return netsim.Usage{}
	}
	return r.uplink.Usage()
}

// charge meters one frame crossing an interior node's uplink.
func (r *Router) charge(frame []byte, dir netsim.Direction) {
	if r.uplink != nil {
		r.uplink.Charge(len(frame), dir)
	}
}

// Healthy reports whether the subtree can serve: at least one child
// admits traffic (children without their own health tracking count as
// healthy). The fold is live and recursive — a child node folds its own
// children — and stops at the first healthy child.
func (r *Router) Healthy() bool {
	for _, s := range r.shards {
		if h, tracked := s.(healthChecked); !tracked || h.Healthy() {
			return true
		}
	}
	return false
}

// RoutedAround records that a parent skipped this subtree because no
// child admits traffic.
func (r *Router) RoutedAround() { r.skips.Add(1) }

// PricePerByte returns the shared per-byte tariff of the shard links.
func (r *Router) PricePerByte() float64 { return r.shards[0].PricePerByte() }

// Link returns the link configuration of the first shard endpoint that
// reports one, standing for the homogeneous fleet, for the online
// planner.
func (r *Router) Link() netsim.LinkConfig {
	for _, s := range r.shards {
		if l, ok := s.(interface{ Link() netsim.LinkConfig }); ok {
			if cfg := l.Link(); cfg != (netsim.LinkConfig{}) {
				return cfg
			}
		}
	}
	return netsim.LinkConfig{}
}

// ShardInfos returns every shard's advertised metadata in shard order,
// fetching (and caching) the INFO fan-out if it has not happened yet.
// The online planner reads it to measure placement skew: a relation
// whose objects pile onto few shards violates the cost model's
// uniformity assumption at the fleet level, exactly like a dense
// quadrant does at the window level.
func (r *Router) ShardInfos(ctx context.Context) ([]wire.Info, error) {
	infos, err := r.routingInfos(ctx)
	return slices.Clone(infos), err
}

// Retries sums the re-issued attempts across all shard links.
func (r *Router) Retries() int64 {
	var n int64
	for _, s := range r.shards {
		n += s.Retries()
	}
	return n
}

// Close releases every shard transport, returning the first error.
func (r *Router) Close() error {
	var first error
	for _, s := range r.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// solo reports whether this router is a single-shard pass-through.
func (r *Router) solo() bool { return len(r.shards) == 1 }

// routingInfos returns the per-shard metadata routing decisions read,
// fetching every shard's INFO once (one fan-out, all metered) and
// caching it. Safe for concurrent callers; a failure leaves the router
// un-poisoned so the next call retries. The returned slice is never
// written again: the complete cache is immutable, and an incomplete one
// is handed out as a copy.
//
// Under partial mode (a health.Report in ctx) a shard whose INFO fails
// is absorbed instead of failing the fetch: the live shards' metadata is
// cached and served, the dead shard holds the zero Info — pruned like an
// empty one — and is reported as a gap by every query until it answers,
// and its INFO is re-probed after infoRetryCooldown so a revived shard
// rejoins routing without each query paying the discovery.
func (r *Router) routingInfos(ctx context.Context) ([]wire.Info, error) {
	rep := health.ReportFrom(ctx)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ready {
		return r.infos, nil
	}
	n := len(r.shards)
	if r.infos == nil {
		r.infos = make([]wire.Info, n)
		r.infoOK = make([]bool, n)
		r.infoErr = make([]error, n)
		r.infoRetryAt = make([]time.Time, n)
	}
	// The cooldown is per shard: a shard inside its own re-probe window
	// stays out of this fetch (its absence is this query's gap), while a
	// sibling whose window has lapsed — or that was never dead — is
	// probed normally. One flapping shard therefore never delays the
	// INFO refresh of the rest of the fleet.
	now := time.Now()
	var subs []sub
	for i, ok := range r.infoOK {
		if ok {
			continue
		}
		if rep != nil && !r.infoRetryAt[i].IsZero() && now.Before(r.infoRetryAt[i]) {
			continue
		}
		subs = append(subs, sub{shard: i, frame: wire.AppendInfo(bufpool.Get())})
	}
	if len(subs) == 0 {
		// Every dead shard is cooling down: serve the cached partial
		// metadata; the dead shards' absence is a gap for this query.
		r.recordInfoGapsLocked(rep)
		return slices.Clone(r.infos), nil
	}
	// The INFOs cross as one scatter, submitted and gathered as Do's
	// sub-requests are (partial mode admits every one); its replies are
	// folded into the shared cache only once every sub-request has
	// answered and none failed outside partial mode.
	r.submit(ctx, nil, []plan{{subs: subs}}, nil)
	wait(subs)
	got := make([]wire.Info, len(subs))
	for k := range subs {
		if s := &subs[k]; s.err == nil {
			got[k], s.err = wire.DecodeInfoReply(s.frame)
			bufpool.Put(s.frame)
		}
	}
	if rep == nil || ctx.Err() != nil {
		for _, s := range subs {
			if s.err != nil {
				return nil, s.err
			}
		}
	}
	for k, s := range subs {
		i := s.shard
		if s.err == nil {
			r.infos[i], r.infoOK[i], r.infoErr[i] = got[k], true, nil
			r.infoRetryAt[i] = time.Time{}
		} else {
			r.infoErr[i] = s.err // absorbed: the live shards' metadata is served
			r.infoRetryAt[i] = time.Now().Add(infoRetryCooldown)
		}
	}
	if r.ready = !slices.Contains(r.infoOK, false); r.ready {
		return r.infos, nil
	}
	r.recordInfoGapsLocked(rep)
	return slices.Clone(r.infos), nil
}

// recordInfoGapsLocked records one gap per INFO-dead shard for the
// calling query. Caller holds r.mu; rep is non-nil (the partial path is
// the only one that leaves shards INFO-dead).
func (r *Router) recordInfoGapsLocked(rep *health.Report) {
	for i, ok := range r.infoOK {
		if ok {
			continue
		}
		if sub, isTree := r.shards[i].(*Router); isTree {
			// A dead interior node stands for its whole subtree: expand
			// the gap to the leaf shard names the caller knows.
			sub.recordLeafGaps(rep, r.relation, r.infoErr[i])
			continue
		}
		reason := "info unavailable"
		if r.infoErr[i] != nil {
			reason = r.infoErr[i].Error()
		}
		rep.Record(r.relation, r.shards[i].Name(), geom.Rect{}, 0, reason)
	}
}

// gap records shard i's missing contribution for one sub-query under
// the router's relation (see gapAs).
func (r *Router) gap(rep *health.Report, i int, err error) { r.gapAs(rep, r.relation, i, err) }

// gapAs records shard i's missing contribution under relation, with the
// shard's advertised bounds and cardinality when its INFO was fetched
// before it died. When the child is itself an aggregation-tree node, the
// gap expands to the leaf shard names behind it — the report is always
// in leaf units, whatever the topology.
func (r *Router) gapAs(rep *health.Report, relation string, i int, err error) {
	if sub, isTree := r.shards[i].(*Router); isTree {
		sub.recordLeafGaps(rep, relation, err)
		return
	}
	var bounds geom.Rect
	var count int64
	r.mu.Lock()
	if r.infoOK != nil && r.infoOK[i] {
		bounds, count = r.infos[i].Bounds, int64(r.infos[i].Count)
	}
	r.mu.Unlock()
	reason := "unreachable"
	if err != nil {
		reason = err.Error()
	}
	rep.Record(relation, r.shards[i].Name(), bounds, count, reason)
}

// recordLeafGaps reports every leaf shard behind this interior node as a
// gap under the caller's relation — invoked when a parent lost or routed
// around this whole subtree. Children that are themselves interior nodes
// recurse.
func (r *Router) recordLeafGaps(rep *health.Report, relation string, err error) {
	for i := range r.shards {
		r.gapAs(rep, relation, i, err)
	}
}
