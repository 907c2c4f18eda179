// Package fleet is the repository's one builder of the paper's topology
// (§3): a device, two metered links, two relations — each one server, or
// shards × replicas behind a scatter–gather router or aggregation tree.
// Config is the one description of it; Serve boots it in-process, Dial
// connects it to running spatialserve processes over TCP, and both hand
// back a Fleet whose NewEnv wires the device side. The session facade,
// the multi-tenant server, the figure harness, the chaos runner and the
// spatialjoin CLI are all callers; none assembles a layer itself.
package fleet

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// Config describes one fleet and the device joined to it — the one set
// of knobs every assembly in the repository is configured by
// (repro.SessionConfig is an alias of it). Dial takes each relation's
// shape from its address list instead of R, S, Replicas and
// PublishIndexes, which describe servers Serve boots itself.
type Config struct {
	// R and S are the two datasets to serve.
	R, S []geom.Object
	// Buffer is the device capacity in objects (0 = unlimited).
	Buffer int
	// PriceR and PriceS are per-byte tariffs; 0 means 1 unit each.
	PriceR, PriceS float64
	// Window restricts the join spatially; zero means whole space.
	Window geom.Rect
	// Bucket enables bucket query submission (§3.1).
	Bucket bool
	// PublishIndexes enables the SemiJoin comparator's cooperative
	// protocol on both servers.
	PublishIndexes bool
	// Seed drives algorithm-internal randomness.
	Seed int64
	// Parallelism switches on the concurrent execution engine. 0 or 1
	// reproduces the paper's single-threaded device; higher values enable
	// parallel dual-server probing, a bounded pool of live sibling
	// partitions, and download/join pipelining. Results and (unbatched)
	// metered byte counts are identical to the sequential run; only
	// wall-clock time changes. It bounds what costs device memory: at most
	// Parallelism partitions hold downloaded objects at once. COUNT
	// statistics in flight are bounded by each link's batcher window, and
	// the number of live partitions by core's pool rule (see
	// core.Env.Parallelism). Each TCP link is given one pooled
	// connection per unit of parallelism; the in-process servers answer
	// on their callers' goroutines and need no workers.
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
	// BH 40); an invalid configuration fails Serve and Dial.
	Link netsim.LinkConfig
	// Retry is the per-query retry policy applied to both remotes. The
	// zero value disables retries (the paper's fail-fast device). Retried
	// requests are charged to the meter per attempt, so a faulty link
	// costs real bytes — failure-free runs meter identically with any
	// policy.
	Retry client.RetryPolicy
	// Shards, when > 1, splits each relation across this many in-process
	// servers (shard.Assign's k-d split by count; every object lands on
	// exactly one shard) and routes all queries through a scatter–gather
	// shard.Router: COUNTs fan out to the overlapping shards and sum,
	// window/bucket replies are the shards' replies concatenated in shard
	// order, so every algorithm returns the exact unsharded result. 0 or 1
	// keeps the paper's one-server-per-relation setting; Shards == 1 runs
	// the router as a pass-through, bit-identical on the wire to the
	// unsharded protocol. Sharded byte totals differ from unsharded ones
	// (one link per shard, its own INFO, per-shard pruning) and are pinned
	// by their own golden test.
	Shards int
	// TreeFanout, when >= 2 (and smaller than Shards), routes each
	// relation through a hierarchical aggregation tree instead of the
	// flat scatter: interior routers with metered uplinks front groups
	// of TreeFanout consecutive shards, partially merging COUNT sums and
	// concatenating object lists level by level, so the root link carries
	// O(TreeFanout) replies per query regardless of the fleet size. Results are
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
	// Stats (Usage.BreakerOpens / BreakerSkips).
	Breakers bool
	// Breaker tunes the armed breakers (thresholds, cool-down, probe
	// cadence; zero fields take the health.Config defaults); ignored
	// unless Breakers is set.
	Breaker health.Config
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

// Endpoint is one relation of a fleet: the typed view the algorithms
// call (core.Probe), the frame seam under it, which a tenant wrapper
// stamps, and the link the planner prices. A bare *client.Remote or a
// *shard.Router.
type Endpoint interface {
	core.Probe
	client.Doer
	Link() netsim.LinkConfig
}

// Fleet is an assembled serving side plus the resolved parameters the
// device's cost model needs.
type Fleet struct {
	// R and S are the two relation endpoints.
	R, S Endpoint
	// Health is the breaker registry; nil unless Config.Breakers.
	Health *health.Registry

	cfg Config // defaults resolved
}

// Wrap decorates the transport of the in-process server named name,
// below its meter — the chaos harness's kill switches and lossy links go
// here, so a request that dies at a killed endpoint was still charged.
type Wrap func(name string, rt netsim.RoundTripper) netsim.RoundTripper

// Serve boots cfg.R and cfg.S on in-process servers (one per replica of
// each shard), each answered on its caller's goroutine, and wires the
// metered client side to them. wrap may be nil; extra client options (a
// multi-tenant server's ledger and scheduler) apply to every remote
// after the ones cfg implies.
func Serve(cfg Config, wrap Wrap, extra ...client.Option) (*Fleet, error) {
	local := func(objs []geom.Object) source {
		return func(lcfg shard.LocalConfig) ([]int, shard.OpenFunc, error) {
			lcfg.WrapTransport = wrap
			sizes, open := shard.Local(objs, lcfg)
			return sizes, open, nil
		}
	}
	return build(cfg, extra, local(cfg.R), local(cfg.S))
}

// Dial wires the client side to running servers over TCP. Each relation
// is addressed by a comma-separated shard list whose entries may be
// `+`-separated replica groups ("a+b,c+d" = two shards, two replicas
// each); a single address is the paper's one server. Every remote pools
// cfg.Parallelism connections.
func Dial(cfg Config, addrsR, addrsS string) (*Fleet, error) {
	return build(cfg, nil, dialer(addrsR), dialer(addrsS))
}

// source yields one relation's shape (replicas per shard) and the opener
// of its remotes: the only thing Serve and Dial do differently.
type source func(lcfg shard.LocalConfig) ([]int, shard.OpenFunc, error)

func dialer(list string) source {
	return func(lcfg shard.LocalConfig) ([]int, shard.OpenFunc, error) {
		var groups [][]string
		var sizes []int
		for _, group := range strings.Split(list, ",") {
			addrs := strings.Split(group, "+")
			for i, a := range addrs {
				if addrs[i] = strings.TrimSpace(a); addrs[i] == "" {
					return nil, nil, fmt.Errorf("empty address in %q", list)
				}
			}
			groups = append(groups, addrs)
			sizes = append(sizes, len(addrs))
		}
		return sizes, func(label string, i, j int) (*client.Remote, error) {
			addr := groups[i][j]
			tr, err := netsim.DialTCPPool(addr, lcfg.Workers)
			if err != nil {
				return nil, err
			}
			rem, err := client.NewRemote(label+"("+addr+")", tr, lcfg.Link, lcfg.Price, lcfg.ClientOpts...)
			if err != nil {
				tr.Close()
				return nil, err
			}
			return rem, nil
		}, nil
	}
}

// build resolves cfg's defaults, translates it into the per-layer
// options once, and assembles both relations.
func build(cfg Config, extra []client.Option, srcR, srcS source) (*Fleet, error) {
	if cfg.PriceR == 0 {
		cfg.PriceR = 1
	}
	if cfg.PriceS == 0 {
		cfg.PriceS = 1
	}
	if cfg.Link == (netsim.LinkConfig{}) {
		cfg.Link = netsim.DefaultLink()
	}
	cfg.R, cfg.S = nil, nil // the sources hold what they serve; the fleet need not pin the datasets
	f := &Fleet{cfg: cfg}
	if cfg.Breakers {
		f.Health = health.NewRegistry(cfg.Breaker)
	}
	retry := cfg.Retry
	if cfg.QueryBudget > 0 {
		retry.Budget = cfg.QueryBudget
	}
	copts := []client.Option{client.WithRetry(retry)}
	if cfg.BatchSize > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: cfg.BatchSize}))
	}
	lcfg := shard.LocalConfig{
		Shards: cfg.Shards, Replicas: cfg.Replicas, Workers: max(cfg.Parallelism, 1),
		TreeFanout: cfg.TreeFanout, HedgePct: cfg.HedgePct, Link: cfg.Link,
		ClientOpts: append(copts, extra...),
		Health:     f.Health, Budget: cfg.QueryBudget,
	}
	if cfg.PublishIndexes {
		lcfg.ServerOpts = []server.Option{server.PublishIndex()}
	}
	var err error
	lcfg.Price = cfg.PriceR
	if f.R, err = relation("R", cfg, srcR, lcfg); err == nil {
		lcfg.Price = cfg.PriceS
		f.S, err = relation("S", cfg, srcS, lcfg)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// relation assembles one relation. The paper's topology — one server,
// nothing asking for a scatter layer — keeps its bare metered remote: a
// solo router would decode every request and copy every reply for
// nothing. Shards >= 1 asks for the router explicitly (the pass-through
// the sharded goldens pin), and AllowPartial needs one as the layer that
// absorbs sub-query failures into completeness gaps.
func relation(name string, cfg Config, src source, lcfg shard.LocalConfig) (Endpoint, error) {
	sizes, open, err := src(lcfg)
	if err != nil {
		return nil, err
	}
	var ep Endpoint
	if len(sizes) == 1 && sizes[0] == 1 && cfg.Shards < 1 && !cfg.AllowPartial {
		ep, err = open(name, 0, 0)
	} else {
		ep, err = shard.Assemble(name, sizes, open, lcfg)
	}
	if err != nil {
		return nil, err // not ep: a nil pointer in a non-nil interface
	}
	return ep, nil
}

// NewEnv wires one device environment over the given relation endpoints
// — the fleet's own R and S, or per-tenant wrappers of them.
func (f *Fleet) NewEnv(r, s core.Probe) *core.Env {
	model := costmodel.Default()
	model.Bucket = f.cfg.Bucket
	model.Link = f.cfg.Link
	model.PriceR, model.PriceS = f.cfg.PriceR, f.cfg.PriceS
	env := core.NewEnv(r, s, client.Device{BufferObjects: f.cfg.Buffer}, model, f.cfg.Window)
	env.Seed = f.cfg.Seed
	env.Parallelism = f.cfg.Parallelism
	env.BatchSize = f.cfg.BatchSize
	env.AllowPartial = f.cfg.AllowPartial
	return env
}

// Close releases the fleet: the breaker registry's recovery probers are
// stopped first — and waited for — so no background INFO probe races a
// closing transport.
func (f *Fleet) Close() error {
	if f.Health != nil {
		f.Health.Close()
	}
	var errs []error
	for _, e := range []Endpoint{f.R, f.S} {
		if e != nil {
			errs = append(errs, e.Close())
		}
	}
	return errors.Join(errs...)
}
