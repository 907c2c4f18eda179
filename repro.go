// Package repro is the public facade of the reproduction of
// "Ad-hoc Distributed Spatial Joins on Mobile Devices" (Kalnis, Mamoulis,
// Bakiras, Li — IPDPS 2006).
//
// It presents the building blocks under internal/ as a small, documented
// API: a Session starts in-process dataset servers, connects a simulated
// mobile device to them over metered links, and evaluates spatial joins
// with the paper's algorithms while accounting every transferred byte; a
// Server shares one such fleet among tenants and speaks the join
// daemon's JSON-lines protocol (daemon.go). The assembly itself —
// servers, links, shards, replicas, tree, breakers, device environment —
// is internal/fleet's; SessionConfig is its Config.
//
// Quick start:
//
//	hotels := repro.GaussianClusters(1000, 4, 300, repro.World, 1)
//	bars := repro.GaussianClusters(1000, 4, 300, repro.World, 2)
//	sess, _ := repro.NewSession(repro.SessionConfig{
//		R: hotels, S: bars, Buffer: 800,
//	})
//	defer sess.Close()
//	res, _ := sess.Run(repro.UpJoin{}, repro.Spec{Kind: repro.Distance, Eps: 150})
//	fmt.Println(len(res.Pairs), "pairs for", res.Stats.TotalBytes(), "bytes")
//
// Setting SessionConfig.Parallelism > 1 enables the concurrent execution
// engine: independent requests to the two servers overlap, sibling
// partitions run as live subproblems on a bounded pool, and downloads
// pipeline with device-side joins — with bit-identical results and byte
// accounting. Parallelism is how many partitions may hold downloaded
// objects at once; statistics in flight are bounded by each link's
// batcher window, live partitions by the engine's pool rule (see
// docs/ARCHITECTURE.md, "What is bounded, and by what").
//
// See README.md for a tour and docs/ARCHITECTURE.md for the layer stack
// and the concurrency model.
package repro

import (
	"context"
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
)

// Re-exported geometry and result types.
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (MBR).
	Rect = geom.Rect
	// Object is a spatial object: ID plus MBR.
	Object = geom.Object
	// Pair is one join result.
	Pair = geom.Pair
)

// Re-exported join specification and results.
type (
	// Spec describes a join query (kind, ε, iceberg threshold).
	Spec = core.Spec
	// Kind selects the join predicate family.
	Kind = core.Kind
	// Result is a join outcome with byte-accounting stats.
	Result = core.Result
	// Stats summarizes the traffic and decisions of one execution.
	Stats = core.Stats
	// Algorithm is one join evaluation strategy.
	Algorithm = core.Algorithm
	// Env is the execution environment handed to algorithms.
	Env = core.Env
	// LinkConfig describes the physical link of Eq. (1) (MTU, header
	// bytes, simulated RTT).
	LinkConfig = netsim.LinkConfig
	// RetryPolicy governs re-issuing queries after transient transport
	// faults; the zero value disables retries.
	RetryPolicy = client.RetryPolicy
)

// Link presets from the paper.
var (
	// DefaultLink is the WiFi/Ethernet link (MTU 1500, BH 40).
	DefaultLink = netsim.DefaultLink
	// DialupLink is the dial-up alternative (MTU 576, BH 40).
	DialupLink = netsim.DialupLink
	// DefaultRetry is a sane retry policy for lossy links.
	DefaultRetry = client.DefaultRetry
)

// Join kinds.
const (
	// Intersection is the MBR-intersection join.
	Intersection = core.Intersection
	// Distance is the ε-distance join.
	Distance = core.Distance
	// IcebergSemi is the iceberg distance semi-join.
	IcebergSemi = core.IcebergSemi
)

// The paper's algorithms.
type (
	// Naive downloads both datasets (§3 strawman).
	Naive = core.Naive
	// Grid is regular-grid partitioning with COUNT pruning (§3).
	Grid = core.Grid
	// MobiJoin is the SSTD 2003 baseline analysed in §3.2.
	MobiJoin = core.MobiJoin
	// UpJoin is the Uniform Partition Join (§4.1).
	UpJoin = core.UpJoin
	// SrJoin is the Similarity Related Join (§4.2).
	SrJoin = core.SrJoin
	// SemiJoin is the cooperative indexed comparator (§5.3).
	SemiJoin = core.SemiJoin
	// Auto is the online cost-based planner: it observes first (COUNTs,
	// live link stats, shard skew), scores every candidate operator with
	// the §3.1 model hydrated from those observations, commits the
	// cheapest, and can re-plan mid-join when a measurement contradicts
	// the estimate it committed on. Result.Explain carries its account.
	Auto = core.Auto
)

// Observability of the execution engine: every run decomposes into
// observe/plan/transfer/re-plan phases, reported to Env.Observer.
type (
	// PhaseEvent is one phase boundary of a run (see Env.Observer).
	PhaseEvent = core.PhaseEvent
	// PhaseKind classifies a phase boundary.
	PhaseKind = core.PhaseKind
	// Explain is the online planner's phase-by-phase account, attached to
	// Result.Explain by the Auto algorithm.
	Explain = core.Explain
)

// Phase kinds.
const (
	// PhaseObserve is a statistics phase (COUNT/INFO queries).
	PhaseObserve = core.PhaseObserve
	// PhasePlan is a planning decision.
	PhasePlan = core.PhasePlan
	// PhaseTransfer is an object-moving phase.
	PhaseTransfer = core.PhaseTransfer
	// PhaseReplan marks a mid-join revision of an earlier plan.
	PhaseReplan = core.PhaseReplan
)

// Dataset helpers.
var (
	// World is the default data space.
	World = dataset.World
	// GaussianClusters generates the paper's synthetic workload.
	GaussianClusters = dataset.GaussianClusters
	// Uniform generates uniform points.
	Uniform = dataset.Uniform
	// Railway generates the synthetic railway substitute dataset.
	Railway = dataset.Railway
	// Oracle computes the reference result locally.
	Oracle = core.Oracle
)

// DefaultRailway is the ~35K-segment configuration of §5.2.
func DefaultRailway() dataset.RailwayConfig { return dataset.DefaultRailway() }

// SessionConfig configures NewSession (and, as ServerConfig.Fleet, the
// shared fleet of a Server): datasets, device, links, batching, retries,
// shards, replicas, tree, breakers. It is the repository's one
// configuration type; see fleet.Config for the fields.
type SessionConfig = fleet.Config

// BreakerConfig re-exports the circuit-breaker tuning knobs
// (health.Config): failure thresholds, open cool-down, and the recovery
// prober's cadence and budget.
type BreakerConfig = health.Config

// Completeness describes which shards contributed to a partial result.
type Completeness = health.Completeness

// Gap is one unreachable shard's missing contribution.
type Gap = health.Gap

// Session is a ready-to-run device↔servers assembly using in-process
// servers. Create one per joined dataset pair; run as many
// algorithms as desired (each Run sees only its own traffic).
type Session struct {
	env   *core.Env
	fleet *fleet.Fleet
}

// NewSession starts in-process servers for cfg.R and cfg.S (one per
// relation, or cfg.Shards × cfg.Replicas each) and wires a device
// environment to them. An invalid link configuration is reported here,
// at the configuration boundary.
func NewSession(cfg SessionConfig) (*Session, error) {
	f, err := fleet.Serve(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Session{env: f.NewEnv(f.R, f.S), fleet: f}, nil
}

// Run executes one algorithm. Stats cover only this run's traffic.
func (s *Session) Run(alg Algorithm, spec Spec) (*Result, error) {
	return s.RunContext(context.Background(), alg, spec)
}

// RunContext executes one algorithm under ctx: canceling it, or passing
// its deadline, aborts the join promptly — in-flight round trips are
// interrupted, all worker goroutines join before the call returns, and
// the context's error is reported. Stats cover only this run's traffic.
func (s *Session) RunContext(ctx context.Context, alg Algorithm, spec Spec) (*Result, error) {
	if alg == nil {
		return nil, fmt.Errorf("repro: nil algorithm")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return alg.Run(ctx, s.env, spec)
}

// Env exposes the underlying environment for advanced use (custom
// algorithms, inspecting meters).
func (s *Session) Env() *Env { return s.env }

// Close shuts the fleet down. The breaker registry's
// recovery probers are stopped first — and waited for — so no background
// INFO probe outlives the session or races a closing transport.
func (s *Session) Close() error { return s.fleet.Close() }

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a Rect from two corners.
func R(x1, y1, x2, y2 float64) Rect { return geom.R(x1, y1, x2, y2) }

// PointObject builds a point Object.
func PointObject(id uint32, p Point) Object { return geom.PointObject(id, p) }
