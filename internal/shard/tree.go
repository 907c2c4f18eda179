package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
)

// Aggregator is an interior node of a hierarchical scatter–gather tree:
// it fronts a subtree of shard endpoints behind the same Endpoint seam
// the router scatters over, so a parent router (or another aggregator)
// sees it as a single fat shard. The flat router's fan-in
// wall — root-link bytes, reply frames, and merge CPU all O(N) in the
// shard count — becomes O(fanout) at every level, because each interior
// node *partially merges* its children's replies before forwarding up:
//
//   - COUNT / RANGE-COUNT forward one summed integer, not N (exact:
//     Assign places each object on exactly one leaf, so subtree counts
//     are disjoint — summing is associative and the tree total equals
//     the flat total at any depth).
//   - WINDOW / RANGE / MBR-MATCH forward one object list: the children's
//     records concatenated in child order by the same merge the flat
//     router uses. Children are runs of consecutive leaves, so the
//     gathered order is bit-identical at any depth.
//   - Bucket queries reassemble per-probe groups (counts summed, object
//     groups concatenated) before forwarding.
//   - UPLOAD-JOIN prunes the upload set against each child's advertised
//     bounds on the way down and concatenates the disjoint pair lists
//     on the way up.
//   - INFO folds child metadata (count-sum, bounds-union, min height)
//     into one subtree summary.
//
// The embedded Router supplies all of that: the routing table, scatter,
// partial-mode absorption, and the shared merge layer. What the
// Aggregator adds is the accounting and health semantics of being an
// interior node:
//
//   - Its uplink — the link between this node and its parent — is a real
//     metered link (Eq. 1: per-message overhead + payload + packets,
//     priced like every other hop). Every frame crossing the node charges
//     it — the request frame up, the partially-merged reply frame down —
//     so LevelUsages can show the root link staying ~flat while leaf
//     traffic grows with N, and money cost accounts every level.
//   - It folds child breaker state into a gossiped subtree health
//     summary (see Healthy), so the parent routes around a dead subtree
//     without paying per-query discovery.
//   - Routed-around or failed subtrees report completeness gaps in leaf
//     shard units (recordLeafGaps), so AllowPartial composes up the
//     tree exactly as it does flat.
type Aggregator struct {
	// Typed is bound to this node's Do, shadowing the embedded router's:
	// typed calls on an aggregator cross the metered uplink.
	client.Typed
	*Router

	// uplink meters the traffic this node exchanges with its parent,
	// priced at the fleet tariff. Directions follow the leaf-link
	// convention (the parent is this link's client): requests charge
	// Up, replies charge Down.
	uplink *netsim.Meter

	// skips counts how often a parent routed around this subtree while
	// its summary said dead — the tree-level analogue of ReplicaSet's
	// per-set breaker skips, folded into Usage().BreakerSkips.
	skips atomic.Int64

	// Gossiped subtree health summary: refreshed from the children at
	// most once per gossip interval, so a parent's Healthy() check costs
	// a cached bool, not a subtree walk per query.
	healthMu sync.Mutex
	healthAt time.Time
	healthOK bool
}

// subtreeGossipInterval is how long an aggregator trusts its cached
// subtree health summary before re-folding child breaker state. The
// interval bounds staleness the same way breaker probe intervals do: a
// subtree that died stays "healthy" for at most one interval before the
// parent starts routing around it, and a revived one waits at most one
// interval to rejoin.
const subtreeGossipInterval = 50 * time.Millisecond

// NewAggregator builds an interior tree node named name over children,
// with a metered uplink of the given link shape. Gaps are reported under
// relation (the logical relation this subtree serves). The children may
// be leaf endpoints (Remotes, ReplicaSets) or further Aggregators.
func NewAggregator(name, relation string, children []Endpoint, link netsim.LinkConfig) (*Aggregator, error) {
	r, err := NewRouter(name, children)
	if err != nil {
		return nil, err
	}
	r.relation = relation
	m, err := netsim.NewMeter(link, r.PricePerByte())
	if err != nil {
		return nil, err
	}
	a := &Aggregator{Router: r, uplink: m}
	a.Typed = client.NewTyped(a)
	return a, nil
}

// UplinkUsage returns the traffic this node has exchanged with its
// parent — the partially-merged view. LevelUsages sums these per tree
// level; the difference against the children's own usage is the fan-in
// the partial merges absorbed.
func (a *Aggregator) UplinkUsage() netsim.Usage { return a.uplink.Usage() }

// Usage returns the subtree's accumulated traffic: every interior and
// leaf link below this node plus this node's own uplink — so a root
// router's Usage() (and with it Stats.TotalBytes and the Eq. 1 money
// cost) accounts every hop a byte crossed, and the hedged/breaker
// columns of the leaves surface unchanged. Parent route-arounds of this
// subtree fold into BreakerSkips like a replica set's.
func (a *Aggregator) Usage() netsim.Usage {
	u := a.Router.Usage().Add(a.uplink.Usage())
	u.BreakerSkips += int(a.skips.Load())
	return u
}

// Healthy reports the gossiped subtree summary: the subtree can serve
// while at least one child admits traffic (children without their own
// health tracking count as healthy). The fold is cached for
// subtreeGossipInterval — parents read a summary, they do not walk the
// tree — and composes recursively: a child aggregator answers from its
// own cache, which is exactly the gossip model (each node periodically
// folds its children's state and serves the digest upward).
func (a *Aggregator) Healthy() bool {
	a.healthMu.Lock()
	defer a.healthMu.Unlock()
	now := time.Now()
	if a.healthAt.IsZero() || now.Sub(a.healthAt) >= subtreeGossipInterval {
		a.healthOK = a.foldHealth()
		a.healthAt = now
	}
	return a.healthOK
}

// foldHealth recomputes the subtree summary from the children.
func (a *Aggregator) foldHealth() bool {
	for _, s := range a.Router.shards {
		h, tracked := s.(healthChecked)
		if !tracked || h.Healthy() {
			return true
		}
	}
	return false
}

// RoutedAround records that a parent skipped this subtree because the
// summary said no child admits traffic.
func (a *Aggregator) RoutedAround() { a.skips.Add(1) }

// Do forwards one request frame into the subtree, charging the uplink
// the frame on the way in and the partially-merged reply frame on the
// way out — exactly the bytes a real link here would carry.
func (a *Aggregator) Do(ctx context.Context, req []byte) ([]byte, error) {
	a.uplink.Charge(len(req), netsim.Up)
	resp, err := a.Router.Do(ctx, req)
	if err == nil {
		a.uplink.Charge(len(resp), netsim.Down)
	}
	return resp, err
}

// GoBatch forwards pre-encoded probe frames into the subtree — each
// request charges the uplink on the way in, and each partially-merged
// reply frame charges it on the way out. The embedded router does the
// actual routing (through the children's own batchers, so same-link
// sub-requests still coalesce into MsgBatch envelopes at every level);
// this wrapper only meters each reply frame, on the stack of whoever
// waits for it, before passing ownership through to the caller.
func (a *Aggregator) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	for _, req := range reqs {
		a.uplink.Charge(len(req), netsim.Up)
	}
	calls := a.Router.GoBatch(ctx, reqs)
	for i, in := range calls {
		calls[i] = client.NewLazyCall(a.name, func() ([]byte, error) {
			frame, err := in.Frame()
			if err == nil {
				a.uplink.Charge(len(frame), netsim.Down)
			}
			return frame, err
		})
	}
	return calls
}

// --- tree assembly --------------------------------------------------------

// NewTree builds a hierarchical scatter–gather router over the given
// leaf shard endpoints: consecutive leaves group under Aggregator nodes
// (Assign numbers shards in k-d order, so a run of consecutive shards is
// a compact cell of the data and the node's advertised bounds — the
// union of its children's — let its parent prune the whole subtree),
// levels stack until the root fans out to at most fanout children, and
// the returned Router is that root. With fanout < 2 or no more leaves than
// fanout, the tree degenerates to the flat router — one level, same
// object — so a "tree of depth 1" is not merely equivalent to the flat
// scatter, it is the flat scatter.
//
// Interior uplinks share the leaf link shape and tariff: the cost model
// prices every byte crossing every level, so a deeper tree trades more
// total hops for an O(fanout) root fan-in.
//
// A trailing group that would hold a single leaf is folded into its
// left sibling (fanout+1 wide) rather than wrapped in a degenerate
// one-child aggregator that would meter a pointless extra hop.
func NewTree(name string, leaves []Endpoint, fanout int, link netsim.LinkConfig) (*Router, error) {
	level := leaves
	for depth := 1; fanout >= 2 && len(level) > fanout; depth++ {
		var next []Endpoint
		for lo := 0; lo < len(level); {
			hi := lo + fanout
			if hi > len(level) || len(level)-hi == 1 {
				hi = len(level)
			}
			agg, err := NewAggregator(
				fmt.Sprintf("%s@%d.%d", name, depth, len(next)+1),
				name, level[lo:hi:hi], link)
			if err != nil {
				return nil, err
			}
			next = append(next, agg)
			lo = hi
		}
		level = next
	}
	return NewRouter(name, level)
}
