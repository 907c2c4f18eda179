package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/shard"
)

// This file is the declarative chaos scenario harness: a Scenario file
// (JSON, stdlib-decoded) describes a sharded+replicated fleet, a fault
// plan (per-link probabilistic faults plus a timed kill/revive/hang/sever
// schedule), one join query, and the expected outcome — complete or
// degraded, which shards may be missing, how the wall clock must be
// bounded, and which oracle the answer must match. RunScenario maps the
// scenario onto a fleet.Config (Scenario.fleet), builds it through
// fleet.Serve (the same builder the sessions use), injects netsim.Switch
// kill-switches and netsim.Faulty lossy links below the meters (a
// request that dies at a killed endpoint was still charged like a real
// transmission), replays the schedule on the
// wall clock, runs the query, and checks every expectation, returning
// the violations as data rather than asserting — the chaos test battery
// and the CLIs share the harness.

// Scenario is one declarative chaos drill.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Topology sizes the fleet and the synthetic workload.
	Topology Topology `json:"topology"`
	// Query selects the algorithm and join spec to run under fire.
	Query ChaosQuery `json:"query"`
	// Retry is the per-link retry policy (zero value: fail fast).
	Retry ChaosRetry `json:"retry"`
	// Breaker arms circuit breakers with these thresholds. Nil arms
	// breakers with the health.Config defaults when Replicas > 1.
	Breaker *ChaosBreaker `json:"breaker"`
	// Faults attaches probabilistic fault injection to matching links.
	Faults []FaultRule `json:"faults"`
	// Schedule is the timed chaos plan, relative to query start.
	Schedule []Event `json:"schedule"`
	// AllowPartial opts the run into degraded partial results.
	AllowPartial bool `json:"allow_partial"`
	// BudgetMS bounds each logical probe (retries+hedges+failovers).
	BudgetMS int `json:"budget_ms"`
	// DeadlineMS bounds the whole run's context.
	DeadlineMS int `json:"deadline_ms"`
	// Expect declares the acceptable outcome.
	Expect Expect `json:"expect"`
}

// Topology sizes the fleet and the synthetic datasets.
type Topology struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	Workers  int `json:"workers"`
	// TreeFanout >= 2 stacks the shards under a hierarchical
	// aggregation tree with this fanout per interior node; gap names
	// stay in leaf shard units regardless of depth.
	TreeFanout int `json:"tree_fanout"`
	// Points per relation, spread over Clusters Gaussian clusters of
	// spread Sigma (dataset.GaussianClusters; Seed and Seed+1).
	Points   int     `json:"points"`
	Clusters int     `json:"clusters"`
	Sigma    float64 `json:"sigma"`
	Seed     int64   `json:"seed"`
	// HedgePct arms hedged reads when > 0.
	HedgePct float64 `json:"hedge_pct"`
	// RTTMicros simulates link latency (0: instantaneous links).
	RTTMicros int `json:"rtt_micros"`
	// Buffer is the device capacity in objects (0: unlimited).
	Buffer int `json:"buffer"`
}

// ChaosQuery selects the join to run.
type ChaosQuery struct {
	// Algorithm: naive, grid, mobijoin, upjoin, srjoin, semijoin.
	Algorithm string `json:"algorithm"`
	// Kind: intersection, distance, iceberg.
	Kind       string  `json:"kind"`
	Eps        float64 `json:"eps"`
	MinMatches int     `json:"min_matches"`
}

// ChaosRetry mirrors client.RetryPolicy in milliseconds.
type ChaosRetry struct {
	MaxAttempts     int `json:"max_attempts"`
	BackoffMS       int `json:"backoff_ms"`
	PerTryTimeoutMS int `json:"per_try_timeout_ms"`
}

// ChaosBreaker mirrors health.Config in milliseconds.
type ChaosBreaker struct {
	ConsecutiveFailures int     `json:"consecutive_failures"`
	FailureRate         float64 `json:"failure_rate"`
	MinSamples          int     `json:"min_samples"`
	OpenForMS           int     `json:"open_for_ms"`
	ProbeIntervalMS     int     `json:"probe_interval_ms"`
	ProbeBudgetMS       int     `json:"probe_budget_ms"`
}

// FaultRule attaches a netsim.Faulty to every link whose endpoint name
// matches Target.
type FaultRule struct {
	// Target matches endpoint names: exact, or a prefix with a trailing
	// '*' ("S2/2-*" matches every replica of shard 2 of S).
	Target         string  `json:"target"`
	DropProb       float64 `json:"drop_prob"`
	SeverProb      float64 `json:"sever_prob"`
	DelayProb      float64 `json:"delay_prob"`
	DelayMS        int     `json:"delay_ms"`
	Seed           int64   `json:"seed"`
	MaxConsecutive int     `json:"max_consecutive"`
}

// Event is one timed chaos action.
type Event struct {
	AtMS int `json:"at_ms"`
	// Action: kill, revive, hang, sever.
	Action string `json:"action"`
	Target string `json:"target"`
	// N is the sever count (default 1).
	N int `json:"n"`
}

// Expect declares the acceptable outcome of a scenario.
type Expect struct {
	// Complete: the run must answer with zero gaps.
	Complete bool `json:"complete"`
	// GapShards lists exactly the shards that may be missing (endpoint
	// names like "S2/2"). Order-insensitive; empty with Complete false
	// means "any gaps".
	GapShards []string `json:"gap_shards"`
	// MinShardsAnswered lower-bounds Completeness.ShardsAnswered.
	MinShardsAnswered int `json:"min_shards_answered"`
	// MaxWallMS upper-bounds the run's wall time (0: unchecked).
	MaxWallMS int `json:"max_wall_ms"`
	// MinBreakerSkips lower-bounds the probes saved by open breakers.
	MinBreakerSkips int `json:"min_breaker_skips"`
	// Oracle: "full" (result equals the full local join), "live" (result
	// equals the local join over the non-gap shards' objects), or ""
	// /"none" (result unchecked).
	Oracle string `json:"oracle"`
	// BreakerRecloses: after the schedule's last revive, every breaker
	// must return to Closed within ReviveWindowMS.
	BreakerRecloses bool `json:"breaker_recloses"`
	ReviveWindowMS  int  `json:"revive_window_ms"`
}

// ChaosReport is the observed outcome of one scenario run.
type ChaosReport struct {
	Scenario string
	// Pairs is the result size (pairs, or objects for iceberg).
	Pairs int
	// Completeness is the run's shard coverage (nil when AllowPartial
	// was off).
	Completeness *health.Completeness
	// Wall is the query's wall time (schedule waiting excluded).
	Wall time.Duration
	// Usage is the combined metered traffic of both relations.
	Usage netsim.Usage
	// BreakersReclosed reports whether every breaker was Closed by the
	// revive deadline (only meaningful with Expect.BreakerRecloses).
	BreakersReclosed bool
	// Violations lists every failed expectation, empty on a green run.
	Violations []string
}

// LoadScenario decodes one scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("harness: scenario %s: %w", filepath.Base(path), err)
	}
	if sc.Name == "" {
		sc.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return &sc, nil
}

// ScenarioFiles lists the committed scenario files of a directory.
func ScenarioFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}

// match reports whether an endpoint name matches a target pattern
// (exact, or prefix with a trailing '*').
func match(pattern, name string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return pattern == name
}

func (b *ChaosBreaker) config() health.Config {
	if b == nil {
		return health.Config{}
	}
	return health.Config{
		ConsecutiveFailures: b.ConsecutiveFailures,
		FailureRate:         b.FailureRate,
		MinSamples:          b.MinSamples,
		OpenFor:             time.Duration(b.OpenForMS) * time.Millisecond,
		ProbeInterval:       time.Duration(b.ProbeIntervalMS) * time.Millisecond,
		ProbeBudget:         time.Duration(b.ProbeBudgetMS) * time.Millisecond,
	}
}

// fleet maps the scenario onto the one configuration type: topology →
// shards/replicas/tree/hedging/link RTT/buffer and the seeded synthetic
// relations, retry and budget → the per-link policy, breaker → armed
// whenever the shards are replicated. Nothing else in this file knows
// how a fleet is put together.
func (sc *Scenario) fleet() fleet.Config {
	top := sc.Topology
	if top.Points <= 0 {
		top.Points = 400
	}
	if top.Clusters <= 0 {
		top.Clusters = 4
	}
	if top.Sigma <= 0 {
		top.Sigma = 800
	}
	link := netsim.DefaultLink()
	link.RTT = time.Duration(top.RTTMicros) * time.Microsecond
	return fleet.Config{
		R:      dataset.GaussianClusters(top.Points, top.Clusters, top.Sigma, dataset.World, top.Seed),
		S:      dataset.GaussianClusters(top.Points, top.Clusters, top.Sigma, dataset.World, top.Seed+1),
		Buffer: top.Buffer, Seed: top.Seed, Parallelism: top.Workers, Link: link,
		Shards: top.Shards, Replicas: top.Replicas, TreeFanout: top.TreeFanout, HedgePct: top.HedgePct,
		Retry: client.RetryPolicy{
			MaxAttempts:   sc.Retry.MaxAttempts,
			Backoff:       time.Duration(sc.Retry.BackoffMS) * time.Millisecond,
			PerTryTimeout: time.Duration(sc.Retry.PerTryTimeoutMS) * time.Millisecond,
		},
		QueryBudget:  time.Duration(sc.BudgetMS) * time.Millisecond,
		Breakers:     top.Replicas > 1,
		Breaker:      sc.Breaker.config(),
		AllowPartial: sc.AllowPartial,
	}
}

// RunScenario executes one chaos drill and checks its expectations. The
// returned report carries the violations as data; err is reserved for
// harness failures (bad scenario, boot failure) — a red expectation is
// not an error.
func RunScenario(sc *Scenario) (*ChaosReport, error) {
	alg, err := core.ParseAlgorithm(sc.Query.Algorithm)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	spec, err := core.ParseSpec(sc.Query.Kind, sc.Query.Eps, sc.Query.MinMatches)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	cfg := sc.fleet()

	// Every endpoint transport gets a kill switch (registered by name for
	// the schedule) and, when a fault rule matches, a lossy link on top.
	var swMu sync.Mutex
	switches := map[string]*netsim.Switch{}
	f, err := fleet.Serve(cfg, func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
		sw := netsim.NewSwitch(rt)
		swMu.Lock()
		switches[name] = sw
		swMu.Unlock()
		var out netsim.RoundTripper = sw
		for _, rule := range sc.Faults {
			if match(rule.Target, name) {
				out = netsim.NewFaulty(out, netsim.FaultConfig{
					Seed:           rule.Seed,
					DropProb:       rule.DropProb,
					SeverProb:      rule.SeverProb,
					DelayProb:      rule.DelayProb,
					Delay:          time.Duration(rule.DelayMS) * time.Millisecond,
					MaxConsecutive: rule.MaxConsecutive,
				})
			}
		}
		return out
	})
	if err != nil {
		return nil, fmt.Errorf("harness: boot: %w", err)
	}
	defer f.Close()
	env := f.NewEnv(f.R, f.S)

	apply := func(ev Event) {
		swMu.Lock()
		defer swMu.Unlock()
		for name, sw := range switches {
			if !match(ev.Target, name) {
				continue
			}
			switch strings.ToLower(ev.Action) {
			case "kill":
				sw.Kill()
			case "revive":
				sw.Revive()
			case "hang":
				sw.Hang()
			case "sever":
				sw.Sever(max(ev.N, 1))
			}
		}
	}
	// Pre-start events apply synchronously (no race with the query's
	// first probe); the rest replay on the wall clock from t0.
	var timers []*time.Timer
	lastRevive := 0
	for _, ev := range sc.Schedule {
		if ev.AtMS <= 0 {
			apply(ev)
		} else {
			ev := ev
			timers = append(timers, time.AfterFunc(time.Duration(ev.AtMS)*time.Millisecond, func() { apply(ev) }))
		}
		if strings.EqualFold(ev.Action, "revive") && ev.AtMS > lastRevive {
			lastRevive = ev.AtMS
		}
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	ctx := context.Background()
	if sc.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(sc.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	t0 := time.Now()
	res, runErr := alg.Run(ctx, env, spec)
	wall := time.Since(t0)
	if runErr != nil {
		return nil, fmt.Errorf("harness: scenario %s: run: %w", sc.Name, runErr)
	}

	rep := &ChaosReport{
		Scenario:     sc.Name,
		Completeness: res.Completeness,
		Wall:         wall,
		Usage:        f.R.Usage().Add(f.S.Usage()),
	}
	rep.Pairs = len(res.Pairs)
	if spec.Kind == core.IcebergSemi {
		rep.Pairs = len(res.Objects)
	}

	// Re-close check: after the schedule's last revive, the registry's
	// probers must walk every breaker back to Closed within the window.
	if reg := f.Health; sc.Expect.BreakerRecloses && reg != nil {
		window := time.Duration(sc.Expect.ReviveWindowMS) * time.Millisecond
		if window <= 0 {
			window = time.Second
		}
		deadline := t0.Add(time.Duration(lastRevive)*time.Millisecond + window)
		for {
			if reg.AllClosed() {
				rep.BreakersReclosed = true
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	rep.Violations = sc.check(rep, res, spec, cfg.R, cfg.S)
	return rep, nil
}

// check evaluates every declared expectation against the observed run.
func (sc *Scenario) check(rep *ChaosReport, res *core.Result, spec core.Spec, robjs, sobjs []geom.Object) []string {
	var v []string
	exp := sc.Expect
	comp := rep.Completeness
	if sc.AllowPartial && comp == nil {
		v = append(v, "AllowPartial run returned no Completeness report")
	}
	if exp.Complete {
		if comp != nil && !comp.Complete() {
			v = append(v, fmt.Sprintf("expected a complete answer, got %s", comp))
		}
	} else if comp != nil {
		if comp.Complete() {
			v = append(v, "expected a degraded answer, got a complete one (chaos did not bite)")
		}
		if len(exp.GapShards) > 0 {
			want := map[string]bool{}
			for _, s := range exp.GapShards {
				want[s] = true
			}
			got := map[string]bool{}
			for _, g := range comp.Gaps {
				got[g.Shard] = true
				if !want[g.Shard] {
					v = append(v, fmt.Sprintf("unexpected gap shard %s (%s)", g.Shard, g.Reason))
				}
			}
			for s := range want {
				if !got[s] {
					v = append(v, fmt.Sprintf("expected gap shard %s is not in the report", s))
				}
			}
		}
		if exp.MinShardsAnswered > 0 && comp.ShardsAnswered < exp.MinShardsAnswered {
			v = append(v, fmt.Sprintf("%d/%d shards answered, want >= %d",
				comp.ShardsAnswered, comp.ShardsTotal, exp.MinShardsAnswered))
		}
	}
	if exp.MaxWallMS > 0 && rep.Wall > time.Duration(exp.MaxWallMS)*time.Millisecond {
		v = append(v, fmt.Sprintf("wall time %v exceeds the declared bound %dms", rep.Wall, exp.MaxWallMS))
	}
	if exp.MinBreakerSkips > 0 && rep.Usage.BreakerSkips < exp.MinBreakerSkips {
		v = append(v, fmt.Sprintf("BreakerSkips = %d, want >= %d (proactive skip not observed)",
			rep.Usage.BreakerSkips, exp.MinBreakerSkips))
	}
	if exp.BreakerRecloses && !rep.BreakersReclosed {
		v = append(v, "breakers did not re-close within the revive window")
	}
	switch strings.ToLower(exp.Oracle) {
	case "", "none":
	case "full":
		if msg := oracleDiff(res, spec, robjs, sobjs); msg != "" {
			v = append(v, "full oracle: "+msg)
		}
	case "live":
		liveR := liveObjects(robjs, "R", sc.Topology.Shards, exp.GapShards)
		liveS := liveObjects(sobjs, "S", sc.Topology.Shards, exp.GapShards)
		if msg := oracleDiff(res, spec, liveR, liveS); msg != "" {
			v = append(v, "live oracle: "+msg)
		}
	default:
		v = append(v, fmt.Sprintf("unknown oracle mode %q", exp.Oracle))
	}
	return v
}

// liveObjects drops the objects assigned to the declared gap shards of
// one relation, reproducing exactly what the fleet could still see.
func liveObjects(objs []geom.Object, relation string, shards int, gaps []string) []geom.Object {
	if shards < 1 {
		shards = 1
	}
	parts := shard.Assign(objs, shards)
	var out []geom.Object
	for i, part := range parts {
		name := relation
		if shards > 1 {
			name = fmt.Sprintf("%s%d/%d", relation, i+1, shards)
		}
		dead := false
		for _, g := range gaps {
			if g == name {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, part...)
		}
	}
	return out
}

// oracleDiff compares a run's result with the local oracle over the
// given objects (window: the union of their bounds, the same resolution
// an unset Env.Window performs over the live fleet's advertised INFOs).
func oracleDiff(res *core.Result, spec core.Spec, robjs, sobjs []geom.Object) string {
	window := boundsOf(robjs).Union(boundsOf(sobjs))
	want := core.Oracle(robjs, sobjs, spec, window)
	if spec.Kind == core.IcebergSemi {
		if len(res.Objects) != len(want.Objects) {
			return fmt.Sprintf("%d objects, oracle has %d", len(res.Objects), len(want.Objects))
		}
		for i := range want.Objects {
			if res.Objects[i].ID != want.Objects[i].ID {
				return fmt.Sprintf("object %d is #%d, oracle has #%d", i, res.Objects[i].ID, want.Objects[i].ID)
			}
		}
		return ""
	}
	if len(res.Pairs) != len(want.Pairs) {
		return fmt.Sprintf("%d pairs, oracle has %d", len(res.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if res.Pairs[i] != want.Pairs[i] {
			return fmt.Sprintf("pair %d is %v, oracle has %v", i, res.Pairs[i], want.Pairs[i])
		}
	}
	return ""
}

// boundsOf unions the MBRs of a relation's objects.
func boundsOf(objs []geom.Object) geom.Rect {
	if len(objs) == 0 {
		return geom.Rect{}
	}
	b := objs[0].MBR
	for _, o := range objs[1:] {
		b = b.Union(o.MBR)
	}
	return b
}
