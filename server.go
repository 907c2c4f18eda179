package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/shard"
)

// This file is the multi-tenant join service: one shared serving fleet
// (the same servers/shards/replicas a Session would own privately),
// multiplexing many concurrent join sessions from different tenants
// over its metered links. Three mechanisms arbitrate the sharing:
//
//   - admission control: each tenant runs at most MaxConcurrent joins
//     at once (further Runs queue), and a tenant whose Eq. (1) spend
//     has crossed its ByteQuota is rejected with a typed error
//     (ErrOverQuota / *netsim.QuotaError) before any bytes move;
//   - probe scheduling: every link's batcher queues submissions in
//     per-tenant lanes, and a shared client.Scheduler decides which
//     lane's probes enter each envelope — strict priority tiers,
//     deficit-round-robin byte fairness within a tier, and a starvation
//     bound so even the lowest tier keeps moving;
//   - metered attribution: every frame a tenant causes is attributed to
//     it on every link it crosses (netsim tenant columns), so per-tenant
//     bills are exact — the tenants' slices sum to each link's total —
//     and quotas are enforced against real metered bytes, retries and
//     envelope shares included.
//
// Single-tenant Sessions never enter tenant mode and stay bit-identical
// to the pre-multi-tenant goldens.

// ErrOverQuota matches (via errors.Is) the typed *netsim.QuotaError a
// Run returns when its tenant has exhausted its byte quota.
var ErrOverQuota = netsim.ErrOverQuota

// ErrUnknownTenant is returned by Run for tenant names the server was
// not configured with.
var ErrUnknownTenant = errors.New("repro: unknown tenant")

// QuotaError is the typed quota-rejection error (netsim.QuotaError):
// use errors.As to read the tenant, its spend, and its quota.
type QuotaError = netsim.QuotaError

// TenantID names one tenant of a Server.
type TenantID = netsim.TenantID

// TenantConfig is one tenant's service class.
type TenantConfig struct {
	// Priority is the strict scheduling tier: a tenant of higher
	// Priority gets its probes into every link envelope before any
	// lower-priority tenant is considered. Default 0.
	Priority int
	// Weight is the deficit-round-robin weight among same-priority
	// tenants: under backlog, byte shares within a tier converge to the
	// weight ratio. Values below 1 mean 1.
	Weight int
	// ByteQuota, when positive, bounds the tenant's fleet-wide Eq. (1)
	// wire-byte spend. A Run (or an individual probe) admitted after the
	// quota is crossed is rejected with a *QuotaError; the run that
	// crosses the boundary completes its in-flight frames, so a tenant
	// may finish marginally over budget but never starts new work there.
	ByteQuota int64
	// MaxConcurrent bounds the tenant's simultaneously executing joins;
	// further Runs block until a slot frees (or their context ends).
	// 0 means unlimited.
	MaxConcurrent int
}

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Fleet describes the shared serving fleet, exactly as a Session
	// would be configured: datasets, link, shards, replicas, batching,
	// retries. BatchSize defaults to 8 when unset — per-tenant lanes
	// need a batcher as their injection point; set BatchSize to 1
	// explicitly to serve without multiplexing (quotas and attribution
	// still apply, scheduling degenerates to arrival order).
	Fleet SessionConfig
	// Tenants declares the service classes. Tenants must be declared
	// here to run; probes of undeclared tenants are rejected.
	Tenants map[TenantID]TenantConfig
}

// Server is a long-lived multi-tenant join service over one shared
// fleet. Create it once, then call Run (or Session) from any number of
// goroutines; Close shuts the fleet down.
type Server struct {
	cfg    ServerConfig
	fleet  *fleet.Fleet
	ledger *netsim.Ledger

	mu      sync.Mutex
	tenants map[TenantID]*tenantState
	closed  bool
}

// tenantState is one tenant's serving state: its environment over the
// shared fleet, the concurrency gate, and the prepare latch.
type tenantState struct {
	cfg   TenantConfig
	env   *core.Env
	slots chan struct{} // nil = unlimited

	prepMu   sync.Mutex
	prepared bool
}

// NewServer assembles the shared fleet and one environment per tenant.
func NewServer(cfg ServerConfig) (*Server, error) { return newServer(cfg, nil) }

// newServer is NewServer with fleet.Serve's transport hook, for tests
// that watch the links.
func newServer(cfg ServerConfig, wrap fleet.Wrap) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("repro: server needs at least one tenant")
	}
	if cfg.Fleet.BatchSize == 0 {
		cfg.Fleet.BatchSize = 8
	}
	ledger := netsim.NewLedger()
	sched := client.NewScheduler()
	for id, tc := range cfg.Tenants {
		sched.SetPolicy(id, client.TenantPolicy{Priority: tc.Priority, Weight: tc.Weight})
		if tc.ByteQuota > 0 {
			ledger.SetQuota(id, tc.ByteQuota)
		}
	}
	f, err := fleet.Serve(cfg.Fleet, wrap, client.WithLedger(ledger), client.WithScheduler(sched))
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	for _, e := range []fleet.Endpoint{f.R, f.S} {
		if tree, ok := e.(*shard.Router); ok {
			tree.SetLedger(ledger) // a tree's uplinks bill tenants as its leaf links do
		}
	}
	srv := &Server{
		cfg: cfg, fleet: f, ledger: ledger,
		tenants: make(map[TenantID]*tenantState, len(cfg.Tenants)),
	}
	for id, tc := range cfg.Tenants {
		env := f.NewEnv(newTenantProbe(f.R, id), newTenantProbe(f.S, id))
		ts := &tenantState{cfg: tc, env: env}
		if tc.MaxConcurrent > 0 {
			ts.slots = make(chan struct{}, tc.MaxConcurrent)
		}
		srv.tenants[id] = ts
	}
	return srv, nil
}

// Spent returns the tenant's accumulated fleet-wide wire-byte spend.
func (s *Server) Spent(id TenantID) int64 { return s.ledger.Spent(id) }

// Usage re-exports the per-link traffic snapshot type.
type Usage = netsim.Usage

// TenantUsage returns the tenant's attributed traffic on the two
// relations (summed over all links of each; zero for unknown tenants).
func (s *Server) TenantUsage(id TenantID) (r, u Usage) {
	s.mu.Lock()
	st, ok := s.tenants[id]
	s.mu.Unlock()
	if !ok {
		return Usage{}, Usage{}
	}
	return st.env.Usage()
}

// tenant looks a tenant up, failing unknown names with ErrUnknownTenant.
func (s *Server) tenant(id TenantID) (*tenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("repro: server closed")
	}
	st, ok := s.tenants[id]
	if !ok {
		return nil, fmt.Errorf("repro: tenant %q: %w", string(id), ErrUnknownTenant)
	}
	return st, nil
}

// Run executes one join on behalf of tenant id. It blocks while the
// tenant is at MaxConcurrent, rejects with a *QuotaError once the
// tenant's byte quota is exhausted, and otherwise behaves exactly like
// Session.Run — every probe it issues travels the shared links under
// the server's scheduling policy and is attributed to the tenant.
func (s *Server) Run(ctx context.Context, id TenantID, alg Algorithm, spec Spec) (*Result, error) {
	if alg == nil {
		return nil, fmt.Errorf("repro: nil algorithm")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	st, err := s.tenant(id)
	if err != nil {
		return nil, err
	}
	// Admission: quota first (cheap, typed), then the concurrency gate.
	if qerr := s.ledger.Check(id); qerr != nil {
		return nil, fmt.Errorf("repro: tenant %q: %w", string(id), qerr)
	}
	if st.slots != nil {
		select {
		case st.slots <- struct{}{}:
			defer func() { <-st.slots }()
		case <-ctx.Done():
			return nil, fmt.Errorf("repro: tenant %q: %w", string(id), ctx.Err())
		}
	}
	if s.cfg.Fleet.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Fleet.RunTimeout)
		defer cancel()
	}
	// First run of a tenant prepares its environment exactly once;
	// concurrent first runs serialize here (prepare mutates the env).
	st.prepMu.Lock()
	if !st.prepared {
		if err := st.env.Prepare(ctx); err != nil {
			st.prepMu.Unlock()
			return nil, err
		}
		st.prepared = true
	}
	st.prepMu.Unlock()
	// One tenant context for the whole run: the batcher compares contexts
	// by identity, and sends an envelope on its waiter's stack only when
	// every probe aboard shares the waiter's (see tenantProbe.stamp).
	return alg.Run(netsim.WithTenant(ctx, id), st.env, spec)
}

// Env exposes a tenant's environment for advanced use (custom
// algorithms, meter inspection). All its probes carry the tenant's
// identity.
func (s *Server) Env(id TenantID) (*Env, error) {
	st, err := s.tenant(id)
	if err != nil {
		return nil, err
	}
	return st.env, nil
}

// Close shuts the shared fleet down. In-flight runs fail as their
// transports close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.fleet.Close()
}

// --- tenant probe ----------------------------------------------------------

// tenantProbe wraps a shared-fleet endpoint with one tenant's identity:
// every frame travels under a context stamped with the tenant (so the
// meters attribute and the ledger bills it), Usage reports the tenant's
// attributed slice (so Stats of a run cover the tenant's own traffic,
// not the fleet's), and Close is a no-op (the fleet outlives any one
// tenant's environment). The typed calls are client.Typed over Do.
type tenantProbe struct {
	client.Typed
	p  fleet.Endpoint
	id netsim.TenantID
}

func newTenantProbe(p fleet.Endpoint, id netsim.TenantID) *tenantProbe {
	t := &tenantProbe{p: p, id: id}
	t.Typed = client.NewTyped(t)
	return t
}

func (t *tenantProbe) Name() string { return t.p.Name() }

// stamp returns ctx carrying the probe's tenant: the context Server.Run
// stamped as it is (a fresh WithTenant per submission would give every
// probe group of a run a context of its own), any other — a Server.Env
// caller running an algorithm itself — stamped here.
func (t *tenantProbe) stamp(ctx context.Context) context.Context {
	if netsim.TenantOf(ctx) == t.id {
		return ctx
	}
	return netsim.WithTenant(ctx, t.id)
}

func (t *tenantProbe) Do(ctx context.Context, req []byte) ([]byte, error) {
	return t.p.Do(t.stamp(ctx), req)
}

func (t *tenantProbe) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	return t.p.GoBatch(t.stamp(ctx), reqs)
}

func (t *tenantProbe) Usage() netsim.Usage {
	if tu, ok := t.p.(interface {
		TenantUsage(netsim.TenantID) netsim.Usage
	}); ok {
		return tu.TenantUsage(t.id)
	}
	return t.p.Usage()
}

func (t *tenantProbe) PricePerByte() float64 { return t.p.PricePerByte() }

func (t *tenantProbe) Retries() int64 { return t.p.Retries() }

// Close is a no-op: the shared fleet is owned by the Server, not any
// one tenant's environment.
func (t *tenantProbe) Close() error { return nil }
