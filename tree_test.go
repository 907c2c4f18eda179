package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestTreeSessionMatchesFlatAndOracle pins the tentpole's end-to-end
// guarantee at the session layer: stacking the shard fleets under a
// hierarchical aggregation tree changes where replies merge — never the
// answers. Every algorithm × dataset kind × spec runs at tree depths 1
// (fanout >= shards, the degenerate flat shape), 2, and 3, and each run
// must return exactly the local oracle's result — which the flat-router
// suite (TestShardedMatchesOracle) already pins, so tree and flat are
// transitively bit-identical.
func TestTreeSessionMatchesFlatAndOracle(t *testing.T) {
	specs := map[string]Spec{
		"intersection": {Kind: Intersection},
		"distance":     {Kind: Distance, Eps: 200},
		"iceberg":      {Kind: IcebergSemi, Eps: 200, MinMatches: 2},
	}
	algs := map[string]Algorithm{
		"grid":     Grid{},
		"upJoin":   UpJoin{},
		"srJoin":   SrJoin{},
		"semiJoin": SemiJoin{},
	}
	depths := []struct {
		name           string
		shards, fanout int
	}{
		{"depth1", 4, 4}, // fanout >= shards: degenerates to the flat router
		{"depth2", 4, 2},
		{"depth3", 8, 2},
	}
	for kindName, ds := range shardedDatasets(t) {
		robjs, sobjs := ds[0], ds[1]
		for specName, spec := range specs {
			want := Oracle(robjs, sobjs, spec, World)
			for algName, alg := range algs {
				if algName == "semiJoin" && spec.Kind == IcebergSemi {
					continue // semiJoin has no iceberg semantics
				}
				for _, d := range depths {
					name := fmt.Sprintf("%s/%s/%s/%s", kindName, specName, algName, d.name)
					t.Run(name, func(t *testing.T) {
						sess, err := NewSession(SessionConfig{
							R: robjs, S: sobjs, Buffer: 300, Window: World,
							Seed: 5, Shards: d.shards, TreeFanout: d.fanout,
							Parallelism: 4, PublishIndexes: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer sess.Close()
						got, err := sess.Run(alg, spec)
						if err != nil {
							t.Fatal(err)
						}
						assertShardedResult(t, name, spec, got, want)
						// Multi-level topologies must surface per-level byte
						// accounting; the degenerate flat shape must not.
						if d.shards > d.fanout {
							if len(got.Stats.RLevels) < 2 || len(got.Stats.SLevels) < 2 {
								t.Fatalf("%s: per-level stats missing: R %v, S %v",
									name, got.Stats.RLevels, got.Stats.SLevels)
							}
						} else if got.Stats.RLevels != nil || got.Stats.SLevels != nil {
							t.Fatalf("%s: flat run reports tree levels: R %v, S %v",
								name, got.Stats.RLevels, got.Stats.SLevels)
						}
					})
				}
			}
		}
	}
}

// TestTreeUplinksBillTheTenant: a tenant of a Server on an
// aggregation-tree fleet pays for every hop its bytes cross, as a Session
// does. Its run reports the Session's bytes, its ledger spend includes
// the interior uplinks, and a quota between the flat fleet's bill and
// the tree's rejects it.
func TestTreeUplinksBillTheTenant(t *testing.T) {
	r := GaussianClusters(3000, 4, 250, World, 41)
	s := GaussianClusters(3000, 4, 250, World, 42)
	spec := Spec{Kind: Distance, Eps: 75}
	cfg := SessionConfig{R: r, S: s, Buffer: 800, Shards: 4, BatchSize: 8, TreeFanout: 2}
	bill := func(cfg SessionConfig) int {
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Run(UpJoin{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalBytes()
	}
	tree := bill(cfg)
	flat := cfg
	flat.TreeFanout = 0
	leaves := bill(flat)
	if tree <= leaves {
		t.Fatalf("the tree's bill %d does not exceed the flat fleet's %d: no uplink was charged", tree, leaves)
	}

	srv := newTestServer(t, ServerConfig{Fleet: cfg, Tenants: map[TenantID]TenantConfig{"t": {}}})
	res, err := srv.Run(context.Background(), "t", UpJoin{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.TotalBytes(); got != tree {
		t.Errorf("tenant run reports %d bytes, the Session %d (flat fleet %d)", got, tree, leaves)
	}
	if spent := srv.Spent("t"); spent < int64(tree) {
		t.Errorf("ledger spend %d is below the run's %d bytes: the uplinks bill nobody", spent, tree)
	}

	quota := int64(leaves+tree) / 2
	srv = newTestServer(t, ServerConfig{Fleet: cfg, Tenants: map[TenantID]TenantConfig{"t": {ByteQuota: quota}}})
	if _, err := srv.Run(context.Background(), "t", UpJoin{}, spec); !errors.Is(err, ErrOverQuota) {
		t.Errorf("a run billed %d bytes under a %d-byte quota: err = %v, want ErrOverQuota", tree, quota, err)
	}
}
