package repro

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/testenv"
	"repro/internal/wire"
)

func newTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServerMultiTenantMatchesOracle: several tenants join concurrently
// over one shared fleet; every tenant's result is oracle-exact, and the
// fleet's accounting stays exhaustive — the tenants' attributed wire
// bytes (plus the anonymous lane) sum to the links' totals, and the
// ledger carries the same spend.
func TestServerMultiTenantMatchesOracle(t *testing.T) {
	r := GaussianClusters(300, 4, 250, World, 21)
	s := GaussianClusters(300, 4, 250, World, 22)
	spec := Spec{Kind: Distance, Eps: 120}
	want := Oracle(r, s, spec, World)

	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{R: r, S: s, Buffer: 400},
		Tenants: map[TenantID]TenantConfig{
			"alice": {Priority: 1, Weight: 2},
			"bob":   {Weight: 1},
			"carol": {Weight: 3},
		},
	})

	var wg sync.WaitGroup
	results := make(map[TenantID]*Result)
	errs := make(map[TenantID]error)
	var mu sync.Mutex
	for id := range srv.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Run(context.Background(), id, UpJoin{}, spec)
			mu.Lock()
			results[id], errs[id] = res, err
			mu.Unlock()
		}()
	}
	wg.Wait()

	for id, err := range errs {
		if err != nil {
			t.Fatalf("tenant %s: %v", id, err)
		}
	}
	for id, res := range results {
		if len(res.Pairs) != len(want.Pairs) {
			t.Errorf("tenant %s: %d pairs, oracle %d", id, len(res.Pairs), len(want.Pairs))
		}
		// Each tenant's Stats cover its own attributed slice, not the
		// fleet's total.
		if res.Stats.TotalBytes() <= 0 {
			t.Errorf("tenant %s: no attributed traffic in Stats", id)
		}
	}

	// Exhaustiveness: the ledger's per-tenant spend must sum to the wire
	// bytes the shared links actually metered.
	env, err := srv.Env("alice")
	if err != nil {
		t.Fatal(err)
	}
	fleetWire := srv.fleet.R.Usage().WireBytes + srv.fleet.S.Usage().WireBytes
	ledgerSum := srv.Spent("")
	for id := range srv.tenants {
		ledgerSum += srv.Spent(id)
	}
	if ledgerSum != int64(fleetWire) {
		t.Errorf("ledger spend %d, fleet wire bytes %d", ledgerSum, fleetWire)
	}
	_ = env
}

// TestServerQuotaRejectsTenantOthersComplete is the acceptance scenario:
// a tenant with a tiny byte quota is eventually rejected with the typed
// quota error while an unlimited tenant's concurrent joins keep
// completing oracle-exact.
func TestServerQuotaRejectsTenantOthersComplete(t *testing.T) {
	r := GaussianClusters(250, 3, 250, World, 31)
	s := GaussianClusters(250, 3, 250, World, 32)
	spec := Spec{Kind: Distance, Eps: 100}
	want := Oracle(r, s, spec, World)

	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{R: r, S: s, Buffer: 400},
		Tenants: map[TenantID]TenantConfig{
			"rich": {},
			"poor": {ByteQuota: 4000},
		},
	})

	// Run both tenants concurrently until poor's quota trips.
	var poorErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if _, err := srv.Run(context.Background(), "poor", UpJoin{}, spec); err != nil {
				poorErr = err
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		res, err := srv.Run(context.Background(), "rich", UpJoin{}, spec)
		if err != nil {
			t.Fatalf("rich run %d: %v", i, err)
		}
		if len(res.Pairs) != len(want.Pairs) {
			t.Fatalf("rich run %d: %d pairs, oracle %d", i, len(res.Pairs), len(want.Pairs))
		}
	}
	<-done

	if poorErr == nil {
		t.Fatal("poor tenant never hit its 4000-byte quota")
	}
	if !errors.Is(poorErr, ErrOverQuota) {
		t.Fatalf("poor rejection does not match ErrOverQuota: %v", poorErr)
	}
	var qe *QuotaError
	if !errors.As(poorErr, &qe) {
		t.Fatalf("poor rejection is not a typed *QuotaError: %v", poorErr)
	}
	if qe.Tenant != "poor" || qe.Quota != 4000 || qe.Spent < qe.Quota {
		t.Errorf("QuotaError = %+v, want tenant poor at/over quota 4000", *qe)
	}
	// Further admissions stay rejected.
	if _, err := srv.Run(context.Background(), "poor", UpJoin{}, spec); !errors.Is(err, ErrOverQuota) {
		t.Errorf("post-exhaustion run: err = %v, want ErrOverQuota", err)
	}
	// And rich still serves.
	if _, err := srv.Run(context.Background(), "rich", UpJoin{}, spec); err != nil {
		t.Errorf("rich after poor's exhaustion: %v", err)
	}
}

// TestServerUnknownTenant: undeclared tenants are rejected with the
// typed sentinel before any work starts.
func TestServerUnknownTenant(t *testing.T) {
	r := Uniform(50, World, 41)
	srv := newTestServer(t, ServerConfig{
		Fleet:   SessionConfig{R: r, S: r, Buffer: 200},
		Tenants: map[TenantID]TenantConfig{"a": {}},
	})
	if _, err := srv.Run(context.Background(), "mallory", UpJoin{}, Spec{Kind: Distance, Eps: 10}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	if _, err := srv.Env("mallory"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Env: err = %v, want ErrUnknownTenant", err)
	}
	if _, err := NewServer(ServerConfig{Fleet: SessionConfig{R: r, S: r}}); err == nil {
		t.Fatal("NewServer with no tenants should fail")
	}
}

// blockingAlg parks until released, so tests can hold a tenant's
// concurrency slot at a precise point.
type blockingAlg struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockingAlg) Name() string { return "blocking" }

func (b *blockingAlg) Run(ctx context.Context, env *core.Env, spec core.Spec) (*core.Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return &core.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestServerMaxConcurrentGates: a tenant at its MaxConcurrent blocks
// further Runs until a slot frees (or the waiter's context ends), while
// other tenants are unaffected.
func TestServerMaxConcurrentGates(t *testing.T) {
	r := Uniform(60, World, 43)
	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{R: r, S: r, Buffer: 200},
		Tenants: map[TenantID]TenantConfig{
			"gated": {MaxConcurrent: 1},
			"free":  {},
		},
	})
	alg := &blockingAlg{started: make(chan struct{}, 1), release: make(chan struct{})}

	firstDone := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background(), "gated", alg, Spec{Kind: Distance, Eps: 10})
		firstDone <- err
	}()
	<-alg.started // the slot is now held

	// A second gated run must not start while the slot is held: its
	// context expires in the admission queue.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := srv.Run(ctx, "gated", UpJoin{}, Spec{Kind: Distance, Eps: 10}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated waiter: err = %v, want DeadlineExceeded", err)
	}
	// Another tenant is untouched by the gate.
	if _, err := srv.Run(context.Background(), "free", UpJoin{}, Spec{Kind: Distance, Eps: 10}); err != nil {
		t.Fatalf("free tenant blocked by sibling's gate: %v", err)
	}

	close(alg.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("gated run: %v", err)
	}
	// Slot released: the tenant admits again.
	if _, err := srv.Run(context.Background(), "gated", UpJoin{}, Spec{Kind: Distance, Eps: 10}); err != nil {
		t.Fatalf("post-release run: %v", err)
	}
}

// TestServerTenantUsageAttribution: per-tenant usage on the server is
// non-zero for active tenants, zero for idle ones, and consistent with
// the tenant's own Stats.
func TestServerTenantUsageAttribution(t *testing.T) {
	r := GaussianClusters(200, 2, 250, World, 51)
	s := GaussianClusters(200, 2, 250, World, 52)
	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{R: r, S: s, Buffer: 400},
		Tenants: map[TenantID]TenantConfig{
			"worker": {},
			"idle":   {},
		},
	})
	res, err := srv.Run(context.Background(), "worker", SrJoin{}, Spec{Kind: Distance, Eps: 100})
	if err != nil {
		t.Fatal(err)
	}
	ru, su := srv.TenantUsage("worker")
	if ru.WireBytes == 0 || su.WireBytes == 0 {
		t.Fatalf("worker attribution empty: R %+v S %+v", ru, su)
	}
	// The run's Stats diff the tenant's own attributed columns, so the
	// cumulative attribution covers at least the run's traffic.
	if ru.WireBytes < res.Stats.R.WireBytes || su.WireBytes < res.Stats.S.WireBytes {
		t.Errorf("attribution below the run's own Stats: R %d<%d S %d<%d",
			ru.WireBytes, res.Stats.R.WireBytes, su.WireBytes, res.Stats.S.WireBytes)
	}
	iru, isu := srv.TenantUsage("idle")
	if iru.WireBytes != 0 || isu.WireBytes != 0 {
		t.Errorf("idle tenant has attributed traffic: R %+v S %+v", iru, isu)
	}
	if spent := srv.Spent("worker"); spent != int64(ru.WireBytes+su.WireBytes) {
		t.Errorf("ledger spend %d, attributed wire %d", spent, ru.WireBytes+su.WireBytes)
	}
}

// TestServerClosedRejects: Run and Env fail after Close, and Close is
// idempotent.
func TestServerClosedRejects(t *testing.T) {
	r := Uniform(40, World, 61)
	srv := newTestServer(t, ServerConfig{
		Fleet:   SessionConfig{R: r, S: r, Buffer: 200},
		Tenants: map[TenantID]TenantConfig{"a": {}},
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.Run(context.Background(), "a", UpJoin{}, Spec{Kind: Distance, Eps: 10}); err == nil {
		t.Fatal("Run on closed server should fail")
	}
}

// TestServerHighPriorityLatencyUnderLoad is the serving-quality
// acceptance check: with eight low-priority bulk sessions saturating the
// shared fleet, a high-priority tenant's probe p99 stays within 1.5× of
// its unloaded baseline (plus a small constant guard against scheduler
// jitter on loaded CI machines) — the strict-priority tiers put its
// probes at the front of every envelope.
func TestServerHighPriorityLatencyUnderLoad(t *testing.T) {
	if testenv.Race {
		t.Skip("latency assertion is meaningless under the race detector's overhead")
	}
	if testing.Short() {
		t.Skip("latency measurement skipped in -short")
	}
	r := GaussianClusters(400, 4, 250, World, 71)
	s := GaussianClusters(400, 4, 250, World, 72)
	tenants := map[TenantID]TenantConfig{
		"interactive": {Priority: 10},
	}
	for _, id := range bulkTenants() {
		tenants[id] = TenantConfig{Priority: 0}
	}
	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{
			R: r, S: s, Buffer: 400, Parallelism: 4,
			Link: LinkConfig{MTU: 1500, HeaderBytes: 40, RTT: 2 * time.Millisecond},
		},
		Tenants: tenants,
	})
	env, err := srv.Env("interactive")
	if err != nil {
		t.Fatal(err)
	}
	probe := func() time.Duration {
		t0 := time.Now()
		if _, err := env.R.Count(context.Background(), World); err != nil {
			t.Fatalf("interactive probe: %v", err)
		}
		return time.Since(t0)
	}
	p99 := func(n int) time.Duration {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = probe()
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[(n*99+99)/100-1]
	}

	for i := 0; i < 10; i++ { // warm transports, pools, and the scheduler
		probe()
	}
	solo := p99(200)

	// Eight bulk tenants hammer the fleet with distance joins until told
	// to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range bulkTenants() {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, _ = srv.Run(ctx, id, UpJoin{}, Spec{Kind: Distance, Eps: 120})
				cancel()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the bulk load build a backlog
	loaded := p99(200)
	close(stop)
	wg.Wait()

	// 1.5× the solo p99 plus two RTTs of guard: the strict tier means an
	// interactive probe waits at most for frames already in flight,
	// never behind the bulk backlog.
	limit := solo + solo/2 + 4*time.Millisecond
	if loaded > limit {
		t.Errorf("interactive p99 under load = %v, want ≤ %v (solo %v)", loaded, limit, solo)
	}
	t.Logf("interactive p99: solo %v, loaded %v", solo, loaded)
}

func bulkTenants() []TenantID {
	return []TenantID{"bulk0", "bulk1", "bulk2", "bulk3", "bulk4", "bulk5", "bulk6", "bulk7"}
}

// TestOneTenantServerFramesLikeSession: a Server with a single tenant
// arbitrates against nobody, so it must frame exactly like a Session on
// the same data and config — identical per-relation wire bytes and
// message counts. The grid's 100 R-side COUNTs fill one 64-probe envelope
// by the size trigger, the case where a lane held to its DRR quantum used
// to send several short envelopes instead.
func TestOneTenantServerFramesLikeSession(t *testing.T) {
	r := GaussianClusters(300, 4, 250, World, 21)
	s := GaussianClusters(300, 4, 250, World, 22)
	cfg := SessionConfig{R: r, S: s, Buffer: 400, BatchSize: 64}
	alg, spec := Grid{K: 10}, Spec{Kind: Distance, Eps: 120}

	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	want, err := sess.Run(alg, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, ServerConfig{Fleet: cfg, Tenants: map[TenantID]TenantConfig{"solo": {}}})
	got, err := srv.Run(context.Background(), "solo", alg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Errorf("server found %d pairs, session %d", len(got.Pairs), len(want.Pairs))
	}
	for _, rel := range []struct {
		name      string
		got, want Usage
	}{{"R", got.Stats.R, want.Stats.R}, {"S", got.Stats.S, want.Stats.S}} {
		if rel.got.WireBytes != rel.want.WireBytes || rel.got.Messages != rel.want.Messages {
			t.Errorf("%s: server metered %d bytes in %d messages, session %d in %d",
				rel.name, rel.got.WireBytes, rel.got.Messages, rel.want.WireBytes, rel.want.Messages)
		}
	}
}

// twoGroups is an algorithm of two probe groups: it submits both to R
// before waiting for either, so on an idle link they leave in one
// envelope — sent by the wait on the first call.
type twoGroups struct{ w Rect }

func (twoGroups) Name() string { return "twoGroups" }

func (a twoGroups) Run(ctx context.Context, env *Env, _ Spec) (*Result, error) {
	group := func() []*client.Call {
		return env.R.GoBatch(ctx, [][]byte{wire.AppendCount(bufpool.Get(), a.w), wire.AppendCount(bufpool.Get(), a.w)})
	}
	for _, c := range append(group(), group()...) {
		if _, err := c.Count(); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// TestServerRunGroupsShareWaiterDispatch is the regression test for the
// per-submission tenant stamp: tenantProbe used to derive a fresh
// WithTenant context for every GoBatch, the batcher compares contexts by
// identity, and so an envelope coalescing two groups of one tenant's run
// was handed to a spawned dispatcher. Server.Run stamps once; the
// envelope leaves on the stack of the goroutine that waits for it.
func TestServerRunGroupsShareWaiterDispatch(t *testing.T) {
	r := Uniform(50, World, 31)
	var (
		mu       sync.Mutex
		subs     []int  // sub-requests per R envelope
		onWaiter []bool // whether it was sent below this test function
	)
	watch := func(name string, rt netsim.RoundTripper) netsim.RoundTripper {
		if name != "R" {
			return rt
		}
		return rtFunc(func(ctx context.Context, req []byte) ([]byte, error) {
			if wire.Type(req) == wire.MsgBatch {
				frames, err := wire.DecodeBatch(req, wire.MsgBatch)
				if err != nil {
					t.Error(err)
				}
				stack := make([]byte, 1<<16)
				stack = stack[:runtime.Stack(stack, false)]
				mu.Lock()
				subs = append(subs, len(frames))
				onWaiter = append(onWaiter, bytes.Contains(stack, []byte(t.Name()+"(")))
				mu.Unlock()
			}
			return rt.RoundTrip(ctx, req)
		})
	}
	srv, err := newServer(ServerConfig{
		Fleet:   SessionConfig{R: r, S: r, Buffer: 400},
		Tenants: map[TenantID]TenantConfig{"alice": {}},
	}, watch)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := srv.Run(context.Background(), "alice", twoGroups{w: World}, Spec{Kind: Distance, Eps: 1}); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0] != 4 {
		t.Fatalf("R envelopes carried %v sub-requests, want one envelope of both groups' 4", subs)
	}
	if !onWaiter[0] {
		t.Error("an envelope of one run's two groups was handed to a spawned dispatcher, not sent by its waiter")
	}

	// A Server.Env caller runs the algorithm itself, under a context
	// nobody stamped: the probe still attributes every frame to its tenant.
	env, err := srv.Env("alice")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := srv.TenantUsage("alice")
	if _, err := (twoGroups{w: World}).Run(context.Background(), env, Spec{}); err != nil {
		t.Fatal(err)
	}
	after, _ := srv.TenantUsage("alice")
	if after.Messages != before.Messages+2 {
		t.Errorf("unstamped run: tenant's R messages %d -> %d, want one more envelope and its reply attributed", before.Messages, after.Messages)
	}
}

// rtFunc adapts a function to a netsim.RoundTripper that closes nothing.
type rtFunc func(ctx context.Context, req []byte) ([]byte, error)

func (f rtFunc) RoundTrip(ctx context.Context, req []byte) ([]byte, error) { return f(ctx, req) }
func (rtFunc) Close() error                                                { return nil }

// TestServerTenantPlansOnItsFleet: a tenant's environment sees the
// fleet a Session over the same configuration sees — its shard count,
// per-shard metadata and link — so a Server run reports the same
// completeness and Auto scores the same candidate table as a Session
// run of the same join.
func TestServerTenantPlansOnItsFleet(t *testing.T) {
	base := SessionConfig{
		R:      GaussianClusters(3000, 4, 250, World, 41),
		S:      GaussianClusters(3000, 4, 250, World, 42),
		Buffer: 800, Shards: 4, TreeFanout: 2, AllowPartial: true, BatchSize: 8,
	}
	dialup := base
	dialup.Link = DialupLink()
	spec := Spec{Kind: Distance, Eps: 75}
	for _, tc := range []struct {
		name string
		cfg  SessionConfig
		alg  Algorithm
	}{{"upjoin", base, UpJoin{}}, {"auto-dialup", dialup, Auto{}}} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			want, err := sess.Run(tc.alg, spec)
			if err != nil {
				t.Fatal(err)
			}
			srv := newTestServer(t, ServerConfig{Fleet: tc.cfg, Tenants: map[TenantID]TenantConfig{"solo": {}}})
			got, err := srv.Run(context.Background(), "solo", tc.alg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != len(want.Pairs) || got.Stats.R.WireBytes+got.Stats.S.WireBytes != want.Stats.R.WireBytes+want.Stats.S.WireBytes {
				t.Fatalf("server found %d pairs in %d B, session %d in %d B", len(got.Pairs),
					got.Stats.R.WireBytes+got.Stats.S.WireBytes, len(want.Pairs), want.Stats.R.WireBytes+want.Stats.S.WireBytes)
			}
			gc, wc := got.Completeness, want.Completeness
			if gc == nil || wc == nil || gc.ShardsTotal != wc.ShardsTotal || gc.ShardsAnswered != wc.ShardsAnswered {
				t.Errorf("server completeness %#v, session %#v", gc, wc)
			}
			if tc.alg == (Auto{}) {
				if got.Explain == nil || want.Explain == nil {
					t.Fatal("auto run without an explain report")
				}
				g, w := got.Explain.Candidates, want.Explain.Candidates
				if len(g) == 0 || !slices.Equal(g, w) {
					t.Errorf("server candidates %+v\nsession candidates %+v", g, w)
				}
			}
		})
	}
}

// TestServerTenantUsageOverReplicaSets: over replicated shards, two
// tenants running concurrently are billed exactly what their runs
// report — each tenant's TenantUsage is its metadata fetch plus the sum
// of its runs' Stats —
// and the tenant columns plus the anonymous column sum to the fleet's
// Usage, column by column, on both relations.
func TestServerTenantUsageOverReplicaSets(t *testing.T) {
	srv := newTestServer(t, ServerConfig{
		Fleet: SessionConfig{
			R:      GaussianClusters(600, 4, 250, World, 31),
			S:      GaussianClusters(600, 4, 250, World, 32),
			Buffer: 400, Shards: 2, Replicas: 2,
		},
		Tenants: map[TenantID]TenantConfig{"a": {}, "b": {Weight: 2}},
	})
	tenants := []TenantID{"a", "b"}
	algs := []Algorithm{UpJoin{}, SrJoin{}, Grid{K: 8}}
	// A tenant's first run fetches its dataset metadata before the run's
	// Stats start counting; prepared here, that traffic is each tenant's
	// opening balance.
	sums := make([][2]Usage, len(tenants))
	for i, id := range tenants {
		env, err := srv.Env(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Prepare(context.Background()); err != nil {
			t.Fatal(err)
		}
		sums[i][0], sums[i][1] = srv.TenantUsage(id)
	}
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for i, id := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A tenant's runs are sequential, so each run's Stats diff
			// covers that run alone.
			for _, alg := range algs {
				res, err := srv.Run(context.Background(), id, alg, Spec{Kind: Distance, Eps: 100})
				if err != nil {
					errs[i] = err
					return
				}
				sums[i][0] = sums[i][0].Add(res.Stats.R)
				sums[i][1] = sums[i][1].Add(res.Stats.S)
			}
		}()
	}
	wg.Wait()
	for i, id := range tenants {
		if errs[i] != nil {
			t.Fatalf("tenant %s: %v", id, errs[i])
		}
	}

	var cols [2]Usage
	for i, id := range tenants {
		ru, su := srv.TenantUsage(id)
		if ru != sums[i][0] || su != sums[i][1] {
			t.Errorf("tenant %s billed R %+v S %+v, its opening balance and runs' Stats sum to R %+v S %+v", id, ru, su, sums[i][0], sums[i][1])
		}
		cols[0], cols[1] = cols[0].Add(ru), cols[1].Add(su)
	}
	for i, e := range []fleet.Endpoint{srv.fleet.R, srv.fleet.S} {
		rt := e.(*shard.Router)
		if _, ok := rt.Shards()[0].(*shard.ReplicaSet); !ok {
			t.Fatalf("shard 0 is a %T, want a replica set", rt.Shards()[0])
		}
		if got, want := cols[i].Add(rt.TenantUsage("")), rt.Usage(); got != want {
			t.Errorf("relation %d: tenant and anonymous columns sum to %+v, fleet usage %+v", i, got, want)
		}
	}
}
