// Package repro is the public facade of the reproduction of
// "Ad-hoc Distributed Spatial Joins on Mobile Devices" (Kalnis, Mamoulis,
// Bakiras, Li — IPDPS 2006).
//
// It wires together the building blocks under internal/ into a small,
// documented API: start dataset servers (in-process goroutine peers or
// real TCP), connect a simulated mobile device to them over metered
// links, and evaluate spatial joins with the paper's algorithms while
// accounting every transferred byte.
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
// partitions run on a worker pool, and downloads pipeline with device-side
// joins — with bit-identical results and byte accounting (see
// docs/ARCHITECTURE.md).
//
// See README.md for a tour and docs/ARCHITECTURE.md for the layer stack
// and the concurrency model.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
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

// SessionConfig configures NewSession.
type SessionConfig struct {
	// R and S are the two datasets to serve.
	R, S []Object
	// Buffer is the device capacity in objects (0 = unlimited).
	Buffer int
	// PriceR and PriceS are per-byte tariffs; 0 means 1 unit each.
	PriceR, PriceS float64
	// Window restricts the join spatially; zero means whole space.
	Window Rect
	// Bucket enables bucket query submission (§3.1).
	Bucket bool
	// PublishIndexes enables the SemiJoin comparator's cooperative
	// protocol on both servers.
	PublishIndexes bool
	// Seed drives algorithm-internal randomness.
	Seed int64
	// Parallelism bounds the number of concurrently in-flight operations
	// per run. 0 or 1 reproduces the paper's single-threaded device;
	// higher values enable the concurrent execution engine (parallel
	// dual-server probing, a worker pool over sibling partitions, and
	// download/join pipelining). Results and metered byte counts are
	// identical to the sequential run; only wall-clock time changes. The
	// in-process servers are given one worker goroutine per unit of
	// parallelism.
	Parallelism int
	// BatchSize, when > 1, multiplexes independent probes into MsgBatch
	// envelopes of up to this many sub-requests per link, amortizing
	// frame headers, packet overhead (Eq. 1), and — on RTT-bearing links
	// — round trips across the batch. 0 or 1 keeps every request in its
	// own frame, bit-identical to the pre-batching wire format. Results
	// are identical at every batch size; only the framing (and hence the
	// byte totals) changes. Sequential runs frame deterministically; see
	// docs/ARCHITECTURE.md ("Batched probe multiplexing").
	BatchSize int
	// Link selects the physical link parameters of both metered links.
	// The zero value means the paper's default WiFi link (MTU 1500,
	// BH 40); an invalid configuration fails NewSession.
	Link LinkConfig
	// Retry is the per-query retry policy applied to both remotes. The
	// zero value disables retries (the paper's fail-fast device). Retried
	// requests are charged to the meter per attempt, so a faulty link
	// costs real bytes — failure-free runs meter identically with any
	// policy.
	Retry RetryPolicy
	// RunTimeout, when positive, bounds every Run/RunContext call with a
	// deadline. Canceling the deadline (or the caller's context) aborts
	// the join promptly and joins all worker goroutines.
	RunTimeout time.Duration
	// Shards, when > 1, splits each relation across this many in-process
	// servers (spatial-tile assignment with a hash fallback; every object
	// lands on exactly one shard) and routes all queries through a
	// scatter–gather shard.Router: COUNTs fan out to the overlapping
	// shards and sum, window/bucket replies merge in deterministic order,
	// so every algorithm returns the exact unsharded result. 0 or 1 keeps
	// the paper's one-server-per-relation setting; Shards == 1 runs the
	// router as a pass-through, bit-identical on the wire to the
	// unsharded protocol. Sharded byte totals differ from unsharded ones
	// (one link per shard, its own INFO, per-shard pruning) and are pinned
	// by their own golden test.
	Shards int
	// TreeFanout, when >= 2 (and smaller than Shards), routes each
	// relation through a hierarchical aggregation tree instead of the
	// flat scatter: interior Aggregator nodes front groups of TreeFanout
	// consecutive shards, partially merging COUNT sums and ID-ordered
	// object lists level by level, so the root link carries O(TreeFanout)
	// replies per query regardless of the fleet size. Results are
	// bit-identical to the flat router's; byte totals additionally
	// account the interior uplinks (Stats.RLevels/SLevels break wire
	// bytes out per tree level). 0 keeps the flat scatter.
	TreeFanout int
	// Replicas, when > 1, serves every shard (or the whole relation when
	// unsharded) from this many identical replica servers behind a
	// shard.ReplicaSet: probes load-balance round-robin across the
	// replica links, fail over to a sibling replica on transport faults
	// (after the per-link Retry policy is exhausted), and — with HedgePct
	// set — hedge stragglers against a second replica. 0 or 1 keeps one
	// server per shard. Each probe still travels exactly one replica link
	// (absent hedges), so the summed byte totals match the unreplicated
	// goldens bit for bit.
	Replicas int
	// HedgePct, when > 0 (e.g. 95), arms hedged reads on every replica
	// set: a probe still in flight past that percentile of the recent
	// attempt-latency window is raced against the next replica,
	// fastest-of-two, loser cancelled. Hedge traffic costs real bytes and
	// is sub-accounted in Stats (Usage.HedgedWireBytes). Ignored unless
	// Replicas > 1.
	HedgePct float64
	// Breakers arms a circuit breaker per replica endpoint (Replicas > 1
	// only): a replica whose link keeps failing is declared dead after a
	// few consecutive failures, skipped by selection and hedging before
	// any probe is wasted on it, and re-closed by cheap background INFO
	// probes once it answers again. Breaker activity is exported in
	// Stats (Usage.BreakerOpens / BreakerSkips). With BreakerConfig's
	// zero fields the health.Config defaults apply.
	Breakers bool
	// Breaker tunes the armed breakers (thresholds, cool-down, probe
	// cadence); ignored unless Breakers is set.
	Breaker BreakerConfig
	// AllowPartial opts runs into degraded partial results: when a shard
	// is unreachable (every replica open-circuit, or its sub-query
	// exhausted its retries), the run completes over the shards that
	// answered and Result.Completeness reports the gaps — answered/total
	// shards, the unreachable shards' advertised bounds and cardinality,
	// and the affected query count. The pairs of a partial result are a
	// lower bound: every reported pair is real. Off (the default), any
	// shard failure fails the run — bit-identical to before.
	AllowPartial bool
	// QueryBudget, when positive, bounds each logical probe end to end:
	// its retries, backoffs, hedges, and failovers all draw from this one
	// deadline instead of stacking flat per-try timeouts. Applied to both
	// the per-link retry loop and the replica-set probe loop.
	QueryBudget time.Duration
}

// BreakerConfig re-exports the circuit-breaker tuning knobs
// (health.Config): failure thresholds, open cool-down, and the recovery
// prober's cadence and budget.
type BreakerConfig = health.Config

// Completeness describes which shards contributed to a partial result.
type Completeness = health.Completeness

// Gap is one unreachable shard's missing contribution.
type Gap = health.Gap

// Session is a ready-to-run device↔servers assembly using in-process
// goroutine servers. Create one per joined dataset pair; run as many
// algorithms as desired (each Run sees only its own traffic).
type Session struct {
	env        *core.Env
	remR, remS core.Probe
	reg        *health.Registry // nil unless Breakers armed
	runTimeout time.Duration
}

// fleet is the assembled serving side of one SessionConfig: the two
// relation endpoints (bare remotes, or routers over shards/replicas),
// the optional breaker registry, and the resolved link/tariff
// parameters the cost model needs. A Session owns one privately; a
// Server shares one among all its tenants.
type fleet struct {
	remR, remS     endpoint
	reg            *health.Registry // nil unless Breakers armed
	link           LinkConfig
	priceR, priceS float64
}

// endpoint is one relation of a fleet: the typed view the algorithms
// call (core.Probe) plus the frame seam under it, which a Server's
// tenant wrapper stamps.
type endpoint interface {
	core.Probe
	client.Doer
}

// close releases the fleet (breaker probers first, so no background
// probe races a closing transport).
func (f *fleet) close() error {
	if f.reg != nil {
		f.reg.Close()
	}
	err1 := f.remR.Close()
	err2 := f.remS.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// buildFleet starts the in-process servers of cfg and wires the metered
// client side to them, with extra client options (a Server's scheduler
// and ledger) appended after the session-derived ones. An invalid link
// configuration is reported here, at the configuration boundary.
func buildFleet(cfg SessionConfig, extra ...client.Option) (*fleet, error) {
	if cfg.PriceR == 0 {
		cfg.PriceR = 1
	}
	if cfg.PriceS == 0 {
		cfg.PriceS = 1
	}
	link := cfg.Link
	if link == (LinkConfig{}) {
		link = netsim.DefaultLink()
	}
	var opts []server.Option
	if cfg.PublishIndexes {
		opts = append(opts, server.PublishIndex())
	}
	workers := cfg.Parallelism
	if workers < 1 {
		workers = 1
	}
	retry := cfg.Retry
	if cfg.QueryBudget > 0 {
		retry.Budget = cfg.QueryBudget
	}
	copts := []client.Option{client.WithRetry(retry)}
	if cfg.BatchSize > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: cfg.BatchSize}))
	}
	copts = append(copts, extra...)
	var reg *health.Registry
	if cfg.Breakers && cfg.Replicas > 1 {
		reg = health.NewRegistry(cfg.Breaker)
	}
	var remR, remS endpoint
	if cfg.Shards >= 1 || cfg.Replicas > 1 || cfg.AllowPartial {
		// The relation is served sharded and/or replicated: partition
		// servers behind a scatter–gather router, each shard optionally a
		// replica set (the 1-shard, 1-replica router is a pure
		// pass-through, bit-identical on the wire to a direct remote).
		// AllowPartial routes through here too — the router is the layer
		// that absorbs sub-query failures into completeness gaps.
		lcfg := shard.LocalConfig{
			Shards: cfg.Shards, Replicas: cfg.Replicas, Workers: workers,
			TreeFanout: cfg.TreeFanout,
			HedgePct:   cfg.HedgePct, Link: link,
			ServerOpts: opts, ClientOpts: copts,
			Health: reg, Budget: cfg.QueryBudget,
		}
		lcfg.Price = cfg.PriceR
		routerR, err := shard.ServeLocal("R", cfg.R, lcfg)
		if err != nil {
			if reg != nil {
				reg.Close()
			}
			return nil, fmt.Errorf("repro: %w", err)
		}
		lcfg.Price = cfg.PriceS
		routerS, err := shard.ServeLocal("S", cfg.S, lcfg)
		if err != nil {
			routerR.Close()
			if reg != nil {
				reg.Close()
			}
			return nil, fmt.Errorf("repro: %w", err)
		}
		remR, remS = routerR, routerS
	} else {
		srvR := server.New("R", cfg.R, opts...)
		srvS := server.New("S", cfg.S, opts...)
		rtR := netsim.ServeParallel(srvR, workers)
		rtS := netsim.ServeParallel(srvS, workers)
		r, err := client.NewRemote("R", rtR, link, cfg.PriceR, copts...)
		if err != nil {
			rtR.Close()
			rtS.Close()
			return nil, fmt.Errorf("repro: %w", err)
		}
		s, err := client.NewRemote("S", rtS, link, cfg.PriceS, copts...)
		if err != nil {
			r.Close()
			rtS.Close()
			return nil, fmt.Errorf("repro: %w", err)
		}
		remR, remS = r, s
	}
	return &fleet{
		remR: remR, remS: remS, reg: reg,
		link: link, priceR: cfg.PriceR, priceS: cfg.PriceS,
	}, nil
}

// newEnv wires one device environment over the given relation endpoints
// (the fleet's own, or per-tenant wrappers of them).
func (f *fleet) newEnv(cfg SessionConfig, remR, remS core.Probe) *core.Env {
	model := costmodel.Default()
	model.Bucket = cfg.Bucket
	model.Link = f.link
	model.PriceR, model.PriceS = f.priceR, f.priceS
	env := core.NewEnv(remR, remS, client.Device{BufferObjects: cfg.Buffer}, model, cfg.Window)
	env.Seed = cfg.Seed
	env.Parallelism = cfg.Parallelism
	env.BatchSize = cfg.BatchSize
	env.AllowPartial = cfg.AllowPartial
	return env
}

// NewSession starts in-process servers for cfg.R and cfg.S (one per
// relation, or cfg.Shards each) and wires a device environment to them.
// An invalid link configuration is reported here, at the configuration
// boundary.
func NewSession(cfg SessionConfig) (*Session, error) {
	f, err := buildFleet(cfg)
	if err != nil {
		return nil, err
	}
	env := f.newEnv(cfg, f.remR, f.remS)
	return &Session{
		env: env, remR: f.remR, remS: f.remS, reg: f.reg,
		runTimeout: cfg.RunTimeout,
	}, nil
}

// Run executes one algorithm. Stats cover only this run's traffic.
func (s *Session) Run(alg Algorithm, spec Spec) (*Result, error) {
	return s.RunContext(context.Background(), alg, spec)
}

// RunContext executes one algorithm under ctx: canceling it (or exceeding
// the session's RunTimeout, when configured) aborts the join promptly —
// in-flight round trips are interrupted, all worker goroutines join
// before the call returns, and the context's error is reported. Stats
// cover only this run's traffic.
func (s *Session) RunContext(ctx context.Context, alg Algorithm, spec Spec) (*Result, error) {
	if alg == nil {
		return nil, fmt.Errorf("repro: nil algorithm")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if s.runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.runTimeout)
		defer cancel()
	}
	return alg.Run(ctx, s.env, spec)
}

// Env exposes the underlying environment for advanced use (custom
// algorithms, inspecting meters).
func (s *Session) Env() *Env { return s.env }

// Close shuts down the server goroutines. The breaker registry's
// recovery probers are stopped first — and waited for — so no background
// INFO probe outlives the session or races a closing transport.
func (s *Session) Close() error {
	if s.reg != nil {
		s.reg.Close()
	}
	err1 := s.remR.Close()
	err2 := s.remS.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// R builds a Rect from two corners.
func R(x1, y1, x2, y2 float64) Rect { return geom.R(x1, y1, x2, y2) }

// PointObject builds a point Object.
func PointObject(id uint32, p Point) Object { return geom.PointObject(id, p) }
