package shard

import (
	"fmt"

	"repro/internal/netsim"
)

// Aggregator names an interior node of a hierarchical scatter–gather
// tree, which is a Router whose uplink is metered (see NewTree). It is
// an alias, not a layer: code that walks a topology by switching on
// *Aggregator walks every Router child.
type Aggregator = Router

// NewTree builds a hierarchical scatter–gather router over the given
// leaf shard endpoints: consecutive leaves group under interior Router
// nodes (Assign numbers shards in k-d order, so a run of consecutive
// shards is a compact cell of the data and the node's advertised bounds
// — the union of its children's — let its parent prune the whole
// subtree), levels stack until the root fans out to at most fanout
// children, and the returned Router is that root. With fanout < 2 or no
// more leaves than fanout, the tree degenerates to the flat router — one
// level, same object — so a "tree of depth 1" is not merely equivalent
// to the flat scatter, it is the flat scatter.
//
// A parent sees an interior node as one fat shard, and the node's
// routing table partially merges its children's replies before they go
// up: COUNTs forward one sum, object lists one concatenation in child
// order, INFO one folded summary. Every fold is associative and the
// children are runs of consecutive leaves, so the root's answer is the
// flat router's bit for bit, while the root fans in O(fanout) replies
// whatever the fleet size. Gaps are reported under the tree's name, in
// leaf shard units.
//
// Each interior node meters its uplink — the link to its parent — at the
// leaf link shape and tariff: the cost model prices every byte crossing
// every level (Eq. 1), so a deeper tree trades more total hops for an
// O(fanout) root fan-in, and LevelUsages shows the trade level by level.
//
// A trailing group that would hold a single leaf is folded into its
// left sibling (fanout+1 wide) rather than wrapped in a degenerate
// one-child node that would meter a pointless extra hop: a solo router
// passes frames through untouched, so it never meters one.
func NewTree(name string, leaves []Endpoint, fanout int, link netsim.LinkConfig) (*Router, error) {
	level := leaves
	for depth := 1; fanout >= 2 && len(level) > fanout; depth++ {
		var next []Endpoint
		for lo := 0; lo < len(level); {
			hi := lo + fanout
			if hi > len(level) || len(level)-hi == 1 {
				hi = len(level)
			}
			node, err := NewRouter(fmt.Sprintf("%s@%d.%d", name, depth, len(next)+1), level[lo:hi:hi])
			if err != nil {
				return nil, err
			}
			if node.uplink, err = netsim.NewMeter(link, node.PricePerByte()); err != nil {
				return nil, err
			}
			node.relation = name
			next = append(next, node)
			lo = hi
		}
		level = next
	}
	return NewRouter(name, level)
}
