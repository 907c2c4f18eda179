// Package health tracks per-endpoint liveness for the serving stack.
//
// The paper's cost model assumes every server eventually answers; a real
// fleet does not. PR 3 retries and PR 6 replica failover are *reactive*:
// every probe re-discovers a dead endpoint by paying for a failed attempt
// first. This package makes failure knowledge *persistent* between
// probes: each endpoint gets a three-state circuit breaker
//
//	Closed ──(error rate / consecutive failures)──▶ Open
//	Open ──(cool-down elapsed, live trial)──▶ HalfOpen
//	Open ──(background INFO probe succeeds)──▶ Closed
//	HalfOpen ──(trial succeeds)──▶ Closed
//	HalfOpen ──(trial fails)──▶ Open
//
// scored by an EWMA over attempt outcomes. Callers consult Allow before
// spending bytes on an endpoint and report every outcome back; a
// Registry owns the background recovery probers (one cheap INFO probe
// per interval against each open breaker) so a dead replica is
// re-admitted promptly after it revives without a live query paying for
// the discovery.
//
// Everything here is advisory bookkeeping: a breaker never blocks a
// caller that chooses to ignore it, and with no registry wired in the
// serving stack behaves exactly as before (the goldens pin this).
package health

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// State is a circuit breaker's position.
type State int32

// Breaker states.
const (
	// Closed admits all traffic (the healthy steady state).
	Closed State = iota
	// Open admits no traffic until the cool-down elapses.
	Open
	// HalfOpen admits trial traffic whose outcome decides re-closing.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// ewmaAlpha weights the most recent outcome in the failure-rate EWMA.
// 0.25 means ~4 recent attempts dominate the score: reactive enough to
// trip within a handful of failures, smooth enough that one lost frame
// on a lossy link does not open the circuit.
const ewmaAlpha = 0.25

// Config parameterizes breakers. The zero value gets the defaults noted
// per field (withDefaults).
type Config struct {
	// ConsecutiveFailures opens a closed breaker after this many failed
	// attempts in a row, regardless of the EWMA (default 3). A hard-dead
	// endpoint trips in a bounded number of wasted probes.
	ConsecutiveFailures int
	// FailureRate opens a closed breaker when the EWMA failure rate
	// reaches this threshold (default 0.9) — the flapping-endpoint trip,
	// which consecutive counting alone would miss.
	FailureRate float64
	// MinSamples gates the FailureRate trip until the EWMA has seen this
	// many outcomes (default 8): a rate derived from two attempts is
	// noise.
	MinSamples int
	// OpenFor is the cool-down an open breaker holds before admitting a
	// live half-open trial (default 50ms). Each failed recovery probe
	// pushes the cool-down out again, so live traffic never trials an
	// endpoint the prober just saw dead.
	OpenFor time.Duration
	// ProbeInterval is the period of the background recovery prober
	// attached to an open breaker (default OpenFor). Zero with a zero
	// OpenFor means the 50ms default.
	ProbeInterval time.Duration
	// ProbeBudget bounds each recovery probe end-to-end (default 250ms),
	// so a hung endpoint cannot wedge the prober.
	ProbeBudget time.Duration
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 3
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.9
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 50 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = c.OpenFor
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 250 * time.Millisecond
	}
	return c
}

// Stats is a snapshot of one breaker's (or a registry's summed)
// transition counters. All counters are monotone, so snapshots taken
// before and after a run diff meaningfully.
type Stats struct {
	// Opens counts closed/half-open → open transitions.
	Opens int64
	// Closes counts open/half-open → closed transitions (recoveries).
	Closes int64
	// HalfOpens counts open → half-open transitions (live trials).
	HalfOpens int64
	// Skips counts attempts a caller routed around this endpoint because
	// the breaker was open — each one a probe that would have been wasted
	// re-discovering the failure.
	Skips int64
	// Probes counts background recovery probes issued.
	Probes int64
}

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Opens:     s.Opens + t.Opens,
		Closes:    s.Closes + t.Closes,
		HalfOpens: s.HalfOpens + t.HalfOpens,
		Skips:     s.Skips + t.Skips,
		Probes:    s.Probes + t.Probes,
	}
}

// ProbeFunc issues one cheap liveness probe (an INFO round trip in the
// serving stack) against the breaker's endpoint.
type ProbeFunc func(ctx context.Context) error

// Breaker is the circuit breaker of one endpoint. All methods are safe
// for concurrent use.
type Breaker struct {
	name  string
	cfg   Config
	reg   *Registry // nil for a standalone breaker: no background prober
	probe ProbeFunc

	mu          sync.Mutex
	state       State
	consecutive int     // failed attempts in a row
	samples     int     // outcomes folded into the EWMA
	ewmaFail    float64 // EWMA failure rate in [0, 1]
	openedAt    time.Time
	proberLive  bool // a recovery prober goroutine is attached

	opens, closes, halfOpens, skips, probes atomic.Int64
}

// NewBreaker returns a standalone breaker (no background prober — tests
// and callers that drive recovery themselves). The serving stack obtains
// breakers from a Registry instead.
func NewBreaker(name string, cfg Config) *Breaker {
	return &Breaker{name: name, cfg: cfg.withDefaults()}
}

// Name returns the endpoint name the breaker guards.
func (b *Breaker) Name() string { return b.name }

// State returns the current breaker state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of the transition counters.
func (b *Breaker) Stats() Stats {
	return Stats{
		Opens:     b.opens.Load(),
		Closes:    b.closes.Load(),
		HalfOpens: b.halfOpens.Load(),
		Skips:     b.skips.Load(),
		Probes:    b.probes.Load(),
	}
}

// Allow reports whether an attempt may be launched now. An open breaker
// whose cool-down has elapsed transitions to half-open and admits the
// attempt as the recovery trial. Allow mutates — use Admits for a pure
// liveness check.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return true
	}
	if time.Since(b.openedAt) < b.cfg.OpenFor {
		return false
	}
	b.state = HalfOpen
	b.halfOpens.Add(1)
	return true
}

// Admits reports whether Allow would admit an attempt, without changing
// state: the router's pure "is this whole endpoint dead" check.
func (b *Breaker) Admits() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != Open || time.Since(b.openedAt) >= b.cfg.OpenFor
}

// Skip records that a caller routed around this endpoint because the
// breaker held it open — one probe saved versus reactive failover.
func (b *Breaker) Skip() { b.skips.Add(1) }

// ReportSuccess folds one successful attempt into the score; the
// breaker scores outcomes only, so the attempt's duration is not read.
// Any success closes an open or half-open breaker: the endpoint
// answered, so it serves again.
func (b *Breaker) ReportSuccess(time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observe(0)
	b.consecutive = 0
	if b.state != Closed {
		b.toClosed()
	}
}

// ReportFailure folds one failed attempt into the score, tripping a
// closed breaker past either threshold and re-opening a half-open one
// whose trial just failed. Callers must not report failures the endpoint
// is innocent of (their own cancellation, a transport they closed).
func (b *Breaker) ReportFailure(error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observe(1)
	b.consecutive++
	switch b.state {
	case HalfOpen:
		b.toOpen()
	case Closed:
		if b.consecutive >= b.cfg.ConsecutiveFailures ||
			(b.samples >= b.cfg.MinSamples && b.ewmaFail >= b.cfg.FailureRate) {
			b.toOpen()
		}
	}
}

// observe folds one outcome (0 success, 1 failure) into the failure-rate
// EWMA. Caller holds mu.
func (b *Breaker) observe(x float64) {
	b.samples++
	b.ewmaFail += ewmaAlpha * (x - b.ewmaFail)
}

// toOpen trips the breaker and attaches a recovery prober. Caller holds mu.
func (b *Breaker) toOpen() {
	b.state = Open
	b.openedAt = time.Now()
	b.opens.Add(1)
	b.startProber()
}

// toClosed re-admits the endpoint with a clean slate: the failure EWMA
// restarts so the next trip needs fresh evidence, not stale history.
// Caller holds mu.
func (b *Breaker) toClosed() {
	b.state = Closed
	b.consecutive = 0
	b.samples = 0
	b.ewmaFail = 0
	b.closes.Add(1)
}

// startProber attaches the background recovery prober if one can run and
// none is attached. Caller holds mu.
func (b *Breaker) startProber() {
	if b.probe == nil || b.reg == nil || b.proberLive {
		return
	}
	if !b.reg.track() {
		return // registry closed: no new probers
	}
	b.proberLive = true
	go b.proberLoop()
}

// proberLoop probes the open endpoint every ProbeInterval until it
// recovers, the breaker is closed by live traffic, or the registry shuts
// down. The prober is the half-open recovery path that costs no live
// query anything: one INFO round trip per interval, budget-bounded.
func (b *Breaker) proberLoop() {
	defer func() {
		b.mu.Lock()
		b.proberLive = false
		b.mu.Unlock()
		b.reg.wg.Done()
	}()
	t := time.NewTicker(b.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-b.reg.ctx.Done():
			return
		case <-t.C:
		}
		if b.State() == Closed {
			return // live traffic recovered it first
		}
		pctx, cancel := context.WithTimeout(b.reg.ctx, b.cfg.ProbeBudget)
		err := b.probe(pctx)
		cancel()
		b.probes.Add(1)
		if b.reg.ctx.Err() != nil {
			return // shut down mid-probe: the outcome proves nothing
		}
		if err == nil {
			b.ReportSuccess(0)
			return
		}
		// Still down: push the cool-down out so live traffic does not
		// spend a half-open trial on an endpoint the prober just saw dead.
		b.mu.Lock()
		if b.state == Open {
			b.openedAt = time.Now()
		}
		b.mu.Unlock()
	}
}

// Registry owns the breakers of one serving assembly and the lifecycle
// of their background recovery probers. Close is required: it stops the
// probers and waits for them, so no goroutine outlives the session.
type Registry struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	breakers map[string]*Breaker
	order    []string
}

// NewRegistry returns a registry handing out breakers configured by cfg
// (zero-value fields get the documented defaults).
func NewRegistry(cfg Config) *Registry {
	ctx, cancel := context.WithCancel(context.Background())
	return &Registry{
		cfg:      cfg.withDefaults(),
		ctx:      ctx,
		cancel:   cancel,
		breakers: make(map[string]*Breaker),
	}
}

// Breaker returns the breaker registered under name, creating it with
// probe as its recovery probe on first use (later calls keep the first
// probe). A nil probe disables background recovery for that endpoint —
// only live half-open trials re-close it.
func (g *Registry) Breaker(name string, probe ProbeFunc) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	if b, ok := g.breakers[name]; ok {
		return b
	}
	b := &Breaker{name: name, cfg: g.cfg, reg: g, probe: probe}
	g.breakers[name] = b
	g.order = append(g.order, name)
	return b
}

// Breakers returns the registered breakers in registration order.
func (g *Registry) Breakers() []*Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Breaker, len(g.order))
	for i, name := range g.order {
		out[i] = g.breakers[name]
	}
	return out
}

// Stats returns the summed transition counters over all breakers.
func (g *Registry) Stats() Stats {
	var sum Stats
	for _, b := range g.Breakers() {
		sum = sum.Add(b.Stats())
	}
	return sum
}

// AllClosed reports whether every registered breaker is closed (the
// fleet-recovered check the chaos harness polls).
func (g *Registry) AllClosed() bool {
	for _, b := range g.Breakers() {
		if b.State() != Closed {
			return false
		}
	}
	return true
}

// track registers one prober goroutine with the shutdown group; it
// returns false once the registry is closed.
func (g *Registry) track() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.wg.Add(1)
	return true
}

// Close stops every background prober — cancelling any probe in flight —
// and waits for them to exit. Idempotent.
func (g *Registry) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.wg.Wait()
}
