package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/netsim"
)

// severEvery arms its Switch to sever the reply of every every-th round
// trip that reaches it, so the chunks of probe groups are cut after k of
// their n replies at ever-changing k.
type severEvery struct {
	*netsim.Switch
	every int32
	n     atomic.Int32
}

func (s *severEvery) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	if s.n.Add(1)%s.every == 0 {
		s.Sever(1)
	}
	return s.Switch.RoundTrip(ctx, req)
}

// TestSeverAfterKOfNMatchesOracle puts faults under every meter — a
// seeded netsim.Faulty over a netsim.Switch that severs one reply in
// eleven — and runs every algorithm unbatched, flat and sharded, at
// Parallelism 1 and 4. Each probe group crosses its link as pipelined
// chunks cut wherever a fault lands, and the retried run must still
// return the oracle's pairs. A replicated fleet answers an unbatched
// group with rs.Do per request (ReplicaSet.GoBatch), so it reaches no
// chunk: its leg is a control that must stay green, not coverage of the
// pipelined path.
func TestSeverAfterKOfNMatchesOracle(t *testing.T) {
	r := dataset.GaussianClusters(250, 4, 300, dataset.World, 41)
	s := dataset.GaussianClusters(250, 4, 300, dataset.World, 42)
	spec := core.Spec{Kind: core.Distance, Eps: 120}
	want := core.Oracle(r, s, spec, dataset.World).Pairs
	shapes := map[string]Config{"flat": {}, "sharded": {Shards: 2}, "replicated": {Shards: 2, Replicas: 2}}
	faults := 0
	for shape, base := range shapes {
		for _, par := range []int{1, 4} {
			for i, name := range []string{"naive", "grid", "mobijoin", "upjoin", "srjoin", "semijoin", "auto"} {
				at := fmt.Sprintf("%s/%s/par%d", shape, name, par)
				alg, err := core.ParseAlgorithm(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := base
				cfg.R, cfg.S, cfg.Buffer, cfg.Parallelism, cfg.PublishIndexes = r, s, 200, par, true
				cfg.Retry = client.RetryPolicy{MaxAttempts: 12}
				var mu sync.Mutex
				var links []*netsim.Faulty
				f, err := Serve(cfg, func(leaf string, rt netsim.RoundTripper) netsim.RoundTripper {
					ft := netsim.NewFaulty(&severEvery{Switch: netsim.NewSwitch(rt), every: 11}, netsim.FaultConfig{
						Seed: int64(100*i + 10*par + len(leaf)), DropProb: 0.05, SeverProb: 0.05, MaxConsecutive: 2})
					mu.Lock()
					links = append(links, ft)
					mu.Unlock()
					return ft
				})
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				res, err := alg.Run(context.Background(), f.NewEnv(f.R, f.S), spec)
				f.Close()
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if !slices.Equal(res.Pairs, want) {
					t.Fatalf("%s: %d pairs, oracle has %d", at, len(res.Pairs), len(want))
				}
				for _, ft := range links {
					st := ft.Stats()
					faults += st.Drops + st.Severs
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("vacuous: no fault was injected")
	}
}
