package shard

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
)

// LocalConfig parameterizes one relation's fleet. Local reads the
// serving half (Shards, Replicas, Link, Price, ServerOpts, ClientOpts,
// WrapTransport), Assemble the wiring half (HedgePct, TreeFanout, Link,
// Health, Budget); ServeLocal is the two together.
type LocalConfig struct {
	// Shards is the partition count (< 1 means 1: unsharded).
	Shards int
	// Replicas is the number of identical servers per shard (< 1 means
	// 1: no replication). With more than one, each shard is wired behind
	// a ReplicaSet instead of a bare Remote.
	Replicas int
	// Workers sizes a dialled fleet's TCP pool per link (internal/fleet;
	// < 1 means 1). Local's servers need none: an in-process server is
	// answered on its caller's goroutine.
	Workers int
	// HedgePct enables percentile-triggered hedged reads on each
	// replica set when > 0 (ignored with a single replica).
	HedgePct float64
	// TreeFanout, when >= 2, stacks the shard endpoints under a
	// hierarchical aggregation tree (NewTree) with that fanout per
	// interior node instead of the flat scatter. Interior uplinks share
	// the leaf Link shape and Price. 0 (or a fanout no smaller than the
	// shard count) keeps the flat router.
	TreeFanout int
	// Link and Price configure every device↔server meter identically.
	Link  netsim.LinkConfig
	Price float64
	// ServerOpts and ClientOpts apply to every server and remote.
	ServerOpts []server.Option
	ClientOpts []client.Option
	// Health, when non-nil, arms a circuit breaker per replica endpoint
	// in that registry: known-dead replicas are skipped before a probe is
	// wasted and recovered by the registry's background INFO probers.
	// Nil leaves the fleet breaker-free (bit-identical to before).
	Health *health.Registry
	// Budget, when > 0, bounds each ReplicaSet probe end to end:
	// retries, hedges, and failovers all draw from this one deadline
	// instead of stacking flat per-try timeouts.
	Budget time.Duration
	// WrapTransport, when non-nil, wraps each replica server's transport
	// (named as the replica endpoint) before the metered link is layered
	// on top — the chaos harness injects kill switches and lossy links
	// here, so faulted requests are still charged like real ones.
	WrapTransport func(name string, rt netsim.RoundTripper) netsim.RoundTripper
}

// ServeLocal boots one relation's in-process sharded serving stack: the
// dataset is partitioned with Assign, each partition gets cfg.Replicas
// identical servers with a metered remote over cfg.Link at cfg.Price,
// and the endpoints are wired behind a Router — Local opens the
// remotes, Assemble names and wires them. The servers answer on their
// callers' goroutines, so booting them starts none.
func ServeLocal(name string, objs []geom.Object, cfg LocalConfig) (*Router, error) {
	sizes, open := Local(objs, cfg)
	return Assemble(name, sizes, open, cfg)
}

// OpenFunc opens the metered remote of one replica of one shard (both
// zero-based), named label.
type OpenFunc func(label string, shard, replica int) (*client.Remote, error)

// Local partitions objs with Assign and returns the fleet shape
// (cfg.Replicas per partition) plus the opener that boots one in-process
// server per replica — cfg.ServerOpts, answered on its caller's
// goroutine (netsim.Serve), its transport passed through
// cfg.WrapTransport — behind a metered remote over cfg.Link at cfg.Price
// with cfg.ClientOpts.
func Local(objs []geom.Object, cfg LocalConfig) ([]int, OpenFunc) {
	parts := Assign(objs, max(cfg.Shards, 1))
	sizes := make([]int, len(parts))
	for i := range sizes {
		sizes[i] = max(cfg.Replicas, 1)
	}
	return sizes, func(label string, i, _ int) (*client.Remote, error) {
		var rt netsim.RoundTripper = netsim.Serve(server.New(label, parts[i], cfg.ServerOpts...))
		if cfg.WrapTransport != nil {
			rt = cfg.WrapTransport(label, rt)
		}
		rem, err := client.NewRemote(label, rt, cfg.Link, cfg.Price, cfg.ClientOpts...)
		if err != nil {
			rt.Close()
			return nil, err
		}
		return rem, nil
	}
}

// Assemble is the one place a relation's client-side stack is wired:
// shard i gets sizes[i] replica remotes from open, a shard with several
// replicas sits behind a ReplicaSet (cfg.HedgePct, cfg.Health,
// cfg.Budget), and the shard endpoints go under a flat Router — or,
// with cfg.TreeFanout >= 2, an aggregation tree whose interior uplinks
// use cfg.Link. Shards are named "<name>i/n" (plain name when n == 1,
// whose router is the bit-identical pass-through); replicas append
// "-rj", e.g. "R1/2-r2". Whatever was opened is closed again when a
// later step fails. In-process fleets (Local) and dialled ones
// (internal/fleet) differ only in open.
func Assemble(name string, sizes []int, open OpenFunc, cfg LocalConfig) (*Router, error) {
	eps := make([]Endpoint, 0, len(sizes))
	fail := func(err error, rems ...*client.Remote) (*Router, error) {
		for _, r := range rems {
			r.Close()
		}
		for _, e := range eps {
			e.Close()
		}
		return nil, err
	}
	for i, n := range sizes {
		sname := name
		if len(sizes) > 1 {
			sname = fmt.Sprintf("%s%d/%d", name, i+1, len(sizes))
		}
		rems := make([]*client.Remote, 0, n)
		for j := 0; j < n; j++ {
			label := sname
			if n > 1 {
				label = fmt.Sprintf("%s-r%d", sname, j+1)
			}
			rem, err := open(label, i, j)
			if err != nil {
				return fail(err, rems...)
			}
			rems = append(rems, rem)
		}
		if n == 1 {
			eps = append(eps, rems[0])
			continue
		}
		// Seeding the rotation by shard index keeps replica selection a
		// pure function of the boot layout, so sequential runs replay the
		// exact same request schedule (the goldens depend on it).
		rset, err := NewReplicaSet(sname, rems, ReplicaConfig{
			HedgePct: cfg.HedgePct,
			Seed:     int64(i),
			Health:   cfg.Health,
			Budget:   cfg.Budget,
		})
		if err != nil {
			return fail(err, rems...)
		}
		eps = append(eps, rset)
	}
	var router *Router
	var err error
	if cfg.TreeFanout >= 2 {
		router, err = NewTree(name, eps, cfg.TreeFanout, cfg.Link)
	} else {
		router, err = NewRouter(name, eps)
	}
	if err != nil {
		return fail(err)
	}
	return router, nil
}
