// Package core implements the paper's contribution: adaptive,
// distribution-aware algorithms for evaluating ad-hoc spatial joins on a
// mobile device against two non-cooperative servers, minimizing
// transferred bytes.
//
// Algorithms (all implement Algorithm):
//
//   - Naive      — download both datasets (splitting only for memory).
//   - Grid       — regular-grid partitioning with COUNT pruning (§3).
//   - MobiJoin   — recursive cost-based partitioning with the uniformity
//     assumption of [9] (§3.2); the baseline the paper improves upon.
//   - UpJoin     — Uniform Partition Join (§4.1, Fig. 3).
//   - SrJoin     — Similarity Related Join (§4.2, Fig. 5).
//   - SemiJoin   — the cooperative, index-publishing comparator (§5.3).
//
// Join semantics are defined by Spec: MBR-intersection join, ε-distance
// join, or iceberg distance semi-join (R objects matching at least m
// objects of S). For a query window W, the result contains every pair
// (r, s) with pred(r, s), s intersecting W, and r intersecting W expanded
// by ε. Each pair is reported once, by the one partition cell that owns
// its reference point (geom.Rect.Owned), so all algorithms return
// identical result sets — a property the tests enforce against a
// brute-force oracle.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/memjoin"
	"repro/internal/netsim"
)

// Kind selects the join predicate family.
type Kind int

// Join kinds.
const (
	// Intersection is the MBR-intersection join (filter step).
	Intersection Kind = iota
	// Distance is the ε-distance join: MinDist(r, s) <= Eps.
	Distance
	// IcebergSemi is the iceberg distance semi-join: return objects of R
	// within Eps of at least MinMatches objects of S.
	IcebergSemi
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Intersection:
		return "intersection"
	case Distance:
		return "distance"
	case IcebergSemi:
		return "iceberg-semi"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one join query.
type Spec struct {
	Kind Kind
	// Eps is the distance threshold for Distance and IcebergSemi.
	Eps float64
	// MinMatches is the iceberg threshold m (IcebergSemi only).
	MinMatches int
	// CountOnly asks an Intersection or Distance join for its size
	// alone: the Result carries Count and no Pairs, and the device counts
	// its matches instead of listing and sorting them. The plan, the
	// frames and so the Stats are the listing run's. IcebergSemi ignores
	// it.
	CountOnly bool
}

// Validate reports configuration errors.
func (sp Spec) Validate() error {
	switch sp.Kind {
	case Intersection:
		if sp.Eps != 0 {
			return fmt.Errorf("core: intersection join with eps %v", sp.Eps)
		}
	case Distance:
		if sp.Eps < 0 {
			return fmt.Errorf("core: negative eps %v", sp.Eps)
		}
	case IcebergSemi:
		if sp.Eps < 0 || sp.MinMatches < 1 {
			return fmt.Errorf("core: iceberg needs eps >= 0 and m >= 1")
		}
	default:
		return fmt.Errorf("core: unknown kind %d", sp.Kind)
	}
	return nil
}

func (sp Spec) pred() memjoin.Pred {
	if sp.Kind == Intersection {
		return memjoin.Intersection()
	}
	return memjoin.WithinDist(sp.Eps)
}

// Stats summarizes one execution: metered traffic per server plus
// decision counters for diagnostics and ablations.
type Stats struct {
	// R and S are the metered traffic on each server link.
	R, S netsim.Usage
	// AggQueries counts aggregate queries (COUNT, RANGE-COUNT, AVG-AREA).
	AggQueries int
	// HBSJ, NLSJ, Repartitions, Pruned count the decisions taken.
	HBSJ, NLSJ, Repartitions, Pruned int
	// MoneyCost is Σ price × wire bytes over both links.
	MoneyCost float64
	// RLevels and SLevels break each relation's wire bytes out per
	// hierarchical-aggregation-tree level, root outward: index 0 is the
	// links into the root device (the fan-in the partial merges keep
	// ~flat), deeper indexes the interior and leaf levels whose traffic
	// grows with the fleet. Nil for flat or unsharded relations, and for
	// a multi-tenant server's runs, whose level meters are not split by
	// tenant; R/S above already include every level's bytes.
	RLevels, SLevels []int
}

// TotalBytes is the headline metric of every figure: wire bytes over both
// links, including packet headers (Eq. 1).
func (st Stats) TotalBytes() int { return st.R.WireBytes + st.S.WireBytes }

// TotalQueries is the number of uplink requests across both servers.
func (st Stats) TotalQueries() int { return st.R.Queries + st.S.Queries }

// Result is the outcome of one join execution.
type Result struct {
	// Pairs holds the qualifying (R, S) pairs, each once, sorted
	// (Intersection and Distance kinds); nil under Spec.CountOnly.
	Pairs []geom.Pair
	// Objects holds the qualifying R objects for IcebergSemi, sorted by ID.
	Objects []geom.Object
	// Count is the result's size whether or not it is listed: the number
	// of pairs, or of Objects for IcebergSemi.
	Count int
	Stats Stats
	// Completeness describes which shards contributed, set only on runs
	// with Env.AllowPartial. Complete() reports a full answer; with gaps
	// the pairs are a lower bound (every reported pair is real; pairs
	// touching the unreachable shards are missing).
	Completeness *health.Completeness
	// Explain is the online planner's phase-by-phase account (candidate
	// table, estimated vs metered bytes, re-plans). Set only by the Auto
	// algorithm; nil for the fixed algorithms.
	Explain *Explain
}

// Algorithm is one join evaluation strategy.
type Algorithm interface {
	// Name identifies the algorithm in reports ("upJoin", "srJoin", ...).
	Name() string
	// Run evaluates spec in env and returns the result. Implementations
	// must leave meters un-reset; the caller snapshots usage around Run.
	//
	// Run honors ctx: cancellation or an expired deadline aborts the
	// execution promptly — every in-flight round trip is interrupted, all
	// worker goroutines of the concurrent engine are joined before Run
	// returns, and the context's error is reported. A nil ctx is treated
	// as context.Background().
	Run(ctx context.Context, env *Env, spec Spec) (*Result, error)
}

// ParseAlgorithm resolves an algorithm by the name the CLIs, the daemon
// protocol and the chaos scenarios spell it with: case-insensitive, the
// short forms up/sr/mobi/semi accepted, the empty name meaning UpJoin.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "upjoin", "up":
		return UpJoin{}, nil
	case "naive":
		return Naive{}, nil
	case "grid":
		return Grid{}, nil
	case "mobijoin", "mobi":
		return MobiJoin{}, nil
	case "srjoin", "sr":
		return SrJoin{}, nil
	case "semijoin", "semi":
		return SemiJoin{}, nil
	case "auto":
		return Auto{}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// ParseSpec builds the Spec of a join kind named intersection, distance
// (also the empty name) or iceberg, keeping only the parameters that
// kind reads: eps for the two distance kinds, minMatches for iceberg.
func ParseSpec(kind string, eps float64, minMatches int) (Spec, error) {
	switch strings.ToLower(kind) {
	case "intersection":
		return Spec{Kind: Intersection}, nil
	case "", "distance":
		return Spec{Kind: Distance, Eps: eps}, nil
	case "iceberg":
		return Spec{Kind: IcebergSemi, Eps: eps, MinMatches: minMatches}, nil
	}
	return Spec{}, fmt.Errorf("unknown join kind %q", kind)
}

// Oracle computes the reference result locally from raw object slices,
// with the same semantics the distributed algorithms implement: a pair
// qualifies when the predicate holds and its reference point
// (geom.RefPointEps) lies in the query window. Passing the union of the
// dataset bounds (or any containing rectangle) as the window yields the
// whole-space join, matching algorithms run with an unset Env.Window.
// Oracle is exported for tests and examples.
func Oracle(r, s []geom.Object, spec Spec, window geom.Rect) *Result {
	pred := spec.pred()
	if spec.Eps > 0 {
		// The root window is a partition cell like any other: it is
		// expanded by ε/2 so hull-edge reference points stay inside.
		window = window.Expand(spec.Eps / 2)
	}
	var pairs []geom.Pair
	robjs := make(map[uint32]geom.Object)
	for _, a := range r {
		for _, b := range s {
			if !pred.Match(a.MBR, b.MBR) {
				continue
			}
			if !window.ContainsPoint(geom.RefPointEps(a.MBR, b.MBR, spec.Eps)) {
				continue
			}
			pairs = append(pairs, geom.Pair{RID: a.ID, SID: b.ID})
			robjs[a.ID] = a
		}
	}
	pairs = memjoin.DedupPairs(pairs)
	if spec.Kind == IcebergSemi {
		counts := make(map[uint32]int)
		for _, p := range pairs {
			counts[p.RID]++
		}
		objs := icebergFilter(counts, robjs, spec.MinMatches)
		return &Result{Objects: objs, Count: len(objs)}
	}
	return &Result{Pairs: pairs, Count: len(pairs)}
}

// icebergFilter keeps the R objects with at least m matches, sorted by
// ID, given each R id's match count. Geometry comes from robjs where
// known; IDs without geometry get degenerate MBRs.
func icebergFilter(counts map[uint32]int, robjs map[uint32]geom.Object, m int) []geom.Object {
	var out []geom.Object
	for id, n := range counts {
		if n >= m {
			if o, ok := robjs[id]; ok {
				out = append(out, o)
			} else {
				out = append(out, geom.Object{ID: id})
			}
		}
	}
	slices.SortFunc(out, func(a, b geom.Object) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
