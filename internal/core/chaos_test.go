package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
)

// chaosEnv wires an environment whose two links inject seeded faults
// (drops, severed responses, delays) below the meters, with a retry
// policy generous enough that every query eventually lands. batch > 1
// batches the probes over links of 100 µs, the configuration that widens
// the engine's pool of live partitions.
func chaosEnv(t *testing.T, robjs, sobjs []geom.Object, buffer, parallelism, batch int, seed int64, opts ...server.Option) (*Env, *netsim.Faulty, *netsim.Faulty) {
	t.Helper()
	workers := parallelism
	if workers < 1 {
		workers = 1
	}
	cfg := netsim.FaultConfig{
		Seed:           seed,
		DropProb:       0.12,
		SeverProb:      0.08,
		DelayProb:      0.02,
		Delay:          100 * time.Microsecond,
		MaxConsecutive: 3,
	}
	ftR := netsim.NewFaulty(netsim.ServeParallel(server.New("R", robjs, opts...), workers), cfg)
	cfg.Seed = seed + 1
	ftS := netsim.NewFaulty(netsim.ServeParallel(server.New("S", sobjs, opts...), workers), cfg)
	var rtt time.Duration
	if batch > 1 {
		rtt = 100 * time.Microsecond
	}
	env := envOver(t, ftR, ftS, buffer, parallelism, batch, rtt, rtt,
		client.WithRetry(client.RetryPolicy{MaxAttempts: 12, Backoff: 50 * time.Microsecond}))
	t.Cleanup(func() { env.R.Close(); env.S.Close() })
	return env, ftR, ftS
}

// TestChaosAllAlgorithmsMatchOracle is the headline fault-tolerance
// guarantee: with requests dropped and responses severed on both links,
// every algorithm × join kind still returns the oracle result — the
// retry layer re-issues idempotent queries until the execution completes,
// and no fault can corrupt or duplicate results.
func TestChaosAllAlgorithmsMatchOracle(t *testing.T) {
	robjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 41)
	sobjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 42)
	window := dataset.Bounds(robjs).Union(dataset.Bounds(sobjs))

	specs := map[string]Spec{
		"intersection": {Kind: Intersection},
		"distance":     {Kind: Distance, Eps: 120},
		"iceberg":      {Kind: IcebergSemi, Eps: 120, MinMatches: 2},
	}
	algs := append(allAlgorithms(), SemiJoin{})

	totalFaults := 0
	for specName, spec := range specs {
		want := Oracle(robjs, sobjs, spec, window)
		for _, alg := range algs {
			if _, ok := alg.(SemiJoin); ok && spec.Kind == IcebergSemi {
				continue // semiJoin has no iceberg semantics
			}
			for _, pool := range enginePools {
				par := pool.par
				name := specName + "/" + alg.Name()
				if pool.batch > 1 {
					name += "/batched"
				}
				env, ftR, ftS := chaosEnv(t, robjs, sobjs, 800, par, pool.batch, int64(len(name))*100+int64(par), server.PublishIndex())
				got, err := alg.Run(context.Background(), env, spec)
				if err != nil {
					t.Fatalf("%s p=%d under faults: %v", name, par, err)
				}
				if spec.Kind == IcebergSemi {
					if len(got.Objects) != len(want.Objects) {
						t.Fatalf("%s p=%d: %d iceberg objects, oracle %d", name, par, len(got.Objects), len(want.Objects))
					}
					for i := range got.Objects {
						if got.Objects[i].ID != want.Objects[i].ID {
							t.Fatalf("%s p=%d: iceberg object %d = id %d, oracle %d", name, par, i, got.Objects[i].ID, want.Objects[i].ID)
						}
					}
				} else if !pairSetsEqual(got.Pairs, want.Pairs) {
					t.Fatalf("%s p=%d: %d pairs, oracle %d", name, par, len(got.Pairs), len(want.Pairs))
				}
				fr, fs := ftR.Stats(), ftS.Stats()
				totalFaults += fr.Drops + fr.Severs + fs.Drops + fs.Severs
			}
		}
	}
	if totalFaults == 0 {
		t.Fatal("vacuous chaos suite: no faults were injected")
	}
}

// TestChaosRetransmissionsAreMetered pins the accounting rule for
// faults: a run over faulty links must meter strictly more uplink bytes
// than the same run over clean links (every re-issued request is a real
// transmission, Eq. 1), while returning the identical result.
func TestChaosRetransmissionsAreMetered(t *testing.T) {
	robjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 51)
	sobjs := dataset.GaussianClusters(300, 4, 300, dataset.World, 52)
	spec := Spec{Kind: Distance, Eps: 120}

	clean := testEnv(t, robjs, sobjs, 800)
	base, err := UpJoin{}.Run(context.Background(), clean, spec)
	if err != nil {
		t.Fatal(err)
	}
	env, ftR, ftS := chaosEnv(t, robjs, sobjs, 800, 1, 0, 7)
	faulty, err := UpJoin{}.Run(context.Background(), env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !pairSetsEqual(base.Pairs, faulty.Pairs) {
		t.Fatal("faulty run returned different pairs")
	}
	fr, fs := ftR.Stats(), ftS.Stats()
	if fr.Drops+fr.Severs+fs.Drops+fs.Severs == 0 {
		t.Skip("no faults injected on this schedule")
	}
	if faulty.Stats.R.UpWireBytes+faulty.Stats.S.UpWireBytes <= base.Stats.R.UpWireBytes+base.Stats.S.UpWireBytes {
		t.Fatalf("retransmissions not metered: faulty uplink %d <= clean uplink %d",
			faulty.Stats.R.UpWireBytes+faulty.Stats.S.UpWireBytes,
			base.Stats.R.UpWireBytes+base.Stats.S.UpWireBytes)
	}
	if env.R.Retries()+env.S.Retries() == 0 {
		t.Fatal("faults were injected but no retries recorded")
	}
}

// blockingHandler answers through the wrapped handler for the first
// `after` requests, then blocks every further call until release is
// closed — a model of a server that hangs mid-join. reached is closed
// when the first call blocks, so tests know the join is provably stuck.
type blockingHandler struct {
	inner   netsim.Handler
	after   int32
	served  atomic.Int32
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (h *blockingHandler) Handle(req []byte) []byte {
	if h.served.Add(1) > h.after {
		h.once.Do(func() { close(h.reached) })
		<-h.release
	}
	return h.inner.Handle(req)
}

// waitGoroutines polls until the goroutine count settles back to at most
// base, failing the test otherwise.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// enginePools are the engine shapes the fault and abort tests cover:
// sequential, the pool of Parallelism, and the wide pool of a batched run
// over a latency-bearing link.
var enginePools = []struct{ par, batch int }{{1, 0}, {4, 0}, {4, 16}}

// poolEnv is envOver for an engine shape whose servers hang or fail by
// themselves: the batched shape's latency is in the cost model only.
func poolEnv(t *testing.T, trR, trS netsim.RoundTripper, par, batch int) *Env {
	var rtt time.Duration
	if batch > 1 {
		rtt = 2 * time.Millisecond
	}
	return envOver(t, trR, trS, 200, par, batch, 0, rtt)
}

// TestCancelMidJoinReturnsPromptly hangs the R server after a few
// requests, cancels the context mid-join, and requires (a) a prompt
// return with context.Canceled, and (b) zero leaked goroutines once the
// transports close — the executor must join every worker even though the
// server never answered.
func TestCancelMidJoinReturnsPromptly(t *testing.T) {
	for _, pool := range enginePools {
		par := pool.par
		baseline := runtime.NumGoroutine()
		robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 61)
		sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 62)
		hang := &blockingHandler{
			inner:   server.New("R", robjs),
			after:   4,
			reached: make(chan struct{}),
			release: make(chan struct{}),
		}
		trR := netsim.ServeParallel(hang, par)
		trS := netsim.ServeParallel(server.New("S", sobjs), par)
		env := poolEnv(t, trR, trS, par, pool.batch)
		if want := max(par, 1) * max(pool.batch, 1); liveTasks(env) != want {
			t.Fatalf("p=%d batch=%d: pool of %d live partitions, want %d", par, pool.batch, liveTasks(env), want)
		}

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := UpJoin{}.Run(ctx, env, Spec{Kind: Distance, Eps: 120})
			done <- err
		}()
		// Wait until a request is provably blocked inside the hung server,
		// then cancel.
		select {
		case <-hang.reached:
		case <-time.After(2 * time.Second):
			t.Fatalf("p=%d: join never hit the hung server", par)
		}
		start := time.Now()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("p=%d: err = %v, want context.Canceled", par, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("p=%d: Run did not return within 2s of cancellation", par)
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("p=%d: cancellation took %v, want prompt return", par, elapsed)
		}
		// Release the hung handler so the server workers can exit, then
		// close everything and verify no goroutine outlives the run.
		close(hang.release)
		env.R.Close()
		env.S.Close()
		waitGoroutines(t, baseline)
	}
}

// TestDeadlineBoundsSlowLink runs a join against a link with a real
// simulated RTT under a deadline far below the total round-trip budget:
// the run must stop with DeadlineExceeded soon after the deadline, not
// after the full join.
func TestDeadlineBoundsSlowLink(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 71)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 72)
	link := netsim.DefaultLink()
	link.RTT = 20 * time.Millisecond
	trR := netsim.Serve(server.New("R", robjs))
	trS := netsim.Serve(server.New("S", sobjs))
	r := mustRemote(t, "R", trR, link, 1)
	s := mustRemote(t, "S", trS, link, 1)
	t.Cleanup(func() { r.Close(); s.Close() })
	env := NewEnv(r, s, client.Device{BufferObjects: 200}, costmodel.Default(), geom.Rect{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := UpJoin{}.Run(ctx, env, Spec{Kind: Distance, Eps: 120})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// Generous bound: deadline + one RTT + scheduling slack.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("deadline overrun: run took %v against a 50ms deadline", elapsed)
	}
}

// errPermanent is the deterministic link failure of
// TestFirstErrorCancelsSiblings.
var errPermanent = errors.New("injected permanent link failure")

// failAfter passes through until `after` round trips have been issued,
// then fails every call.
type failAfter struct {
	rt    netsim.RoundTripper
	after int32
	n     atomic.Int32
}

func (f *failAfter) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if f.n.Add(1) > f.after {
		return nil, errPermanent
	}
	return f.rt.RoundTrip(ctx, req)
}

func (f *failAfter) Close() error { return f.rt.Close() }

// TestFirstErrorCancelsSiblings fails the S link permanently after a few
// requests while R keeps answering: the run must surface the S failure —
// the root cause, not a secondary cancellation — at any parallelism.
func TestFirstErrorCancelsSiblings(t *testing.T) {
	robjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 81)
	sobjs := dataset.GaussianClusters(400, 4, 300, dataset.World, 82)
	for _, pool := range enginePools {
		par := pool.par
		baseline := runtime.NumGoroutine()
		trR := netsim.ServeParallel(server.New("R", robjs), par)
		trS := &failAfter{rt: netsim.ServeParallel(server.New("S", sobjs), par), after: 4}
		env := poolEnv(t, trR, trS, par, pool.batch)

		_, err := UpJoin{}.Run(context.Background(), env, Spec{Kind: Distance, Eps: 120})
		if err == nil {
			t.Fatalf("p=%d: run succeeded despite failed S transport", par)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: root cause hidden behind cancellation: %v", par, err)
		}
		if !errors.Is(err, errPermanent) {
			t.Fatalf("p=%d: err = %v, want the injected S failure", par, err)
		}
		if !strings.Contains(err.Error(), "S") {
			t.Fatalf("p=%d: error does not name the failed server: %v", par, err)
		}
		env.R.Close()
		env.S.Close()
		waitGoroutines(t, baseline)
	}
}
