package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// joinResult is what one client observed of one join.
type joinResult struct {
	lat   time.Duration
	pairs int
	bytes int
	// list is the full result, present only when asked for.
	list []geom.Pair
	// stats is the join's Eq. 1 accounting (in-process systems only).
	stats *core.Stats
	// replyBytes is the size of the daemon's reply line.
	replyBytes int
}

// system is one assembled workload that clients run joins against.
type system interface {
	// Join runs client c's algorithm once. Latency is measured around
	// the join alone, not around the bookkeeping.
	Join(ctx context.Context, c int, wantPairs bool) (joinResult, error)
	Close() error
}

// local is an in-process assembly: the device, its metered links and the
// dataset servers in one address space, connected by channels or by
// loopback TCP. It is put together by hand from the layers' public
// constructors, exactly as repro.NewSession does internally, because
// only then can a decorator be slipped in at each seam (stack_test.go
// pins the two assemblies to the same pairs and bytes). With nil tracers
// nothing is decorated: that is the stack the end-to-end runs measure.
type local struct {
	sc      scenario
	algs    []core.Algorithm
	envs    []*core.Env
	tracers []*tracer // per client; nil entries when untraced

	probes  []core.Probe // undecorated roots, R then S
	closers []func() error

	// Seams the per-layer metrics read.
	servers map[string]*server.Server // unsharded relations, by link name
	routers []*shard.Router           // sharded relations
	reg     *health.Registry
	twin    *repro.Server
	tenants []repro.TenantID
}

func (sc scenario) link() netsim.LinkConfig {
	l := netsim.DefaultLink()
	l.RTT = sc.RTT
	return l
}

// sessionConfig is the scenario as the public facade takes it: the
// configuration of the daemon's in-process twin, and the reference the
// hand-assembled stacks are tested against.
func (sc scenario) sessionConfig(r, s []geom.Object) repro.SessionConfig {
	return repro.SessionConfig{
		R: r, S: s, Buffer: sc.Buffer,
		Parallelism: sc.Parallelism, BatchSize: sc.BatchSize, Link: sc.link(),
		Shards: sc.Shards, Replicas: sc.Replicas, TreeFanout: sc.TreeFanout, Breakers: sc.Breakers,
	}
}

// buildLocal assembles an in-process scenario. trs holds one tracer per
// client, or is nil for an undecorated stack.
func buildLocal(sc scenario, r, s []geom.Object, trs []*tracer) (sys *local, err error) {
	l := &local{sc: sc, servers: map[string]*server.Server{}, tracers: make([]*tracer, len(sc.Algs))}
	copy(l.tracers, trs)
	for _, a := range sc.Algs {
		l.algs = append(l.algs, algorithm(a))
	}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()
	if sc.Transport == "daemon" {
		return l, l.buildTwin(r, s)
	}
	if sc.Breakers && sc.Replicas > 1 {
		l.reg = health.NewRegistry(health.Config{})
	}
	tr := l.tracers[0]
	pr, err := l.relation("R", r, tr)
	if err != nil {
		return nil, err
	}
	ps, err := l.relation("S", s, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		pr, ps = &tracedProbe{pr, tr}, &tracedProbe{ps, tr}
	}
	model := costmodel.Default()
	model.Link = sc.link()
	env := core.NewEnv(pr, ps, client.Device{BufferObjects: sc.Buffer}, model, geom.Rect{})
	env.Parallelism = sc.Parallelism
	env.BatchSize = sc.BatchSize
	l.envs = []*core.Env{env}
	return l, nil
}

// relation boots one relation's serving side and returns its root probe.
func (l *local) relation(name string, objs []geom.Object, tr *tracer) (core.Probe, error) {
	sc := l.sc
	copts := []client.Option{client.WithRetry(client.RetryPolicy{})}
	if sc.BatchSize > 1 {
		copts = append(copts, client.WithBatch(client.BatchConfig{MaxBatch: sc.BatchSize}))
	}
	workers := max(sc.Parallelism, 1)

	if sc.Shards > 1 || sc.Replicas > 1 {
		cfg := shard.LocalConfig{
			Shards: sc.Shards, Replicas: sc.Replicas, Workers: workers, TreeFanout: sc.TreeFanout,
			Link: sc.link(), Price: 1, ClientOpts: copts, Health: l.reg,
		}
		if tr != nil {
			cfg.WrapTransport = func(leaf string, rt netsim.RoundTripper) netsim.RoundTripper {
				return &tracedRT{RoundTripper: rt, tr: tr, link: leaf}
			}
		}
		router, err := shard.ServeLocal(name, objs, cfg)
		if err != nil {
			return nil, err
		}
		l.routers = append(l.routers, router)
		l.probes = append(l.probes, router)
		return router, nil
	}

	srv := server.New(name, objs)
	l.servers[name] = srv
	var h netsim.Handler = srv
	if tr != nil {
		h = &tracedHandler{h: srv, tr: tr}
	}
	var rt netsim.RoundTripper
	if sc.Transport == "tcp" {
		tcp, err := netsim.ListenAndServe("127.0.0.1:0", h)
		if err != nil {
			return nil, err
		}
		l.closers = append(l.closers, tcp.Close)
		if rt, err = netsim.DialTCPPool(tcp.Addr(), workers); err != nil {
			return nil, err
		}
	} else {
		rt = netsim.ServeParallel(h, workers)
	}
	if tr != nil {
		rt = &tracedRT{RoundTripper: rt, tr: tr, link: name, rtt: sc.RTT}
	}
	rem, err := client.NewRemote(name, rt, sc.link(), 1, copts...)
	if err != nil {
		rt.Close()
		return nil, err
	}
	l.probes = append(l.probes, rem)
	return rem, nil
}

// buildTwin assembles the daemon's in-process twin: the same
// repro.Server the spawned binary runs, minus the process boundary and
// the JSON protocol. Its fleet is built inside repro, so the only seam
// left to decorate is each tenant's pair of probes.
func (l *local) buildTwin(r, s []geom.Object) error {
	tenants := map[repro.TenantID]repro.TenantConfig{"fast": {Priority: 10}, "bulk": {Weight: 1}}
	srv, err := repro.NewServer(repro.ServerConfig{Fleet: l.sc.sessionConfig(r, s), Tenants: tenants})
	if err != nil {
		return err
	}
	l.twin = srv
	for c, name := range l.sc.Tenants {
		id := repro.TenantID(name)
		l.tenants = append(l.tenants, id)
		env, err := srv.Env(id)
		if err != nil {
			return err
		}
		if tr := l.tracers[c]; tr != nil {
			env.R, env.S = &tracedProbe{env.R, tr}, &tracedProbe{env.S, tr}
		}
		l.envs = append(l.envs, env)
	}
	return nil
}

func (l *local) Join(ctx context.Context, c int, wantPairs bool) (joinResult, error) {
	tr := l.tracers[c]
	var id int32
	var start int64
	if tr != nil {
		id, start = tr.startJoin()
	}
	t0 := time.Now()
	var res *core.Result
	var err error
	if l.twin != nil {
		res, err = l.twin.Run(ctx, l.tenants[c], l.algs[c], joinSpec)
	} else {
		res, err = l.algs[c].Run(ctx, l.envs[c], joinSpec)
	}
	lat := time.Since(t0)
	if tr != nil {
		tr.endJoin(id, start)
	}
	if err != nil {
		return joinResult{lat: lat}, err
	}
	out := joinResult{lat: lat, pairs: len(res.Pairs), bytes: res.Stats.TotalBytes(), stats: &res.Stats}
	if wantPairs {
		out.list = res.Pairs
	}
	return out, nil
}

func (l *local) Close() error {
	var errs []error
	if l.twin != nil {
		errs = append(errs, l.twin.Close())
	}
	if l.reg != nil {
		l.reg.Close() // probers first, so none races a closing transport
	}
	for _, p := range l.probes {
		errs = append(errs, p.Close())
	}
	for _, c := range l.closers {
		errs = append(errs, c())
	}
	return errors.Join(errs...)
}

// build assembles any scenario, spawned daemon included.
func build(sc scenario, r, s []geom.Object, work string) (system, error) {
	if sc.Transport == "daemon" {
		return spawnDaemon(sc, r, s, work)
	}
	sys, err := buildLocal(sc, r, s, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Name, err)
	}
	return sys, nil
}
