package repro

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
)

// goldenShardBytes pins the exact metered wire bytes of every shard link
// for the golden workload at Shards = 2: {R1, R2} and {S1, S2}. Sharded
// byte totals legitimately differ from the unsharded goldens — each shard
// link answers its own INFO, scatter skips non-overlapping shards, and
// per-shard replies are smaller — but for a fixed workload they are
// exactly as deterministic, and any drift in the router's scatter set,
// the assignment, or the merge protocol must fail loudly here. If a
// change is *supposed* to alter the sharded wire exchange, re-derive
// these constants and call it out in the PR.
var goldenShardBytes = map[string][2][2]int{
	"naive/intersection":     {{7523, 7483}, {7523, 6859}},
	"grid/distance":          {{971, 3393}, {7147, 6747}},
	"mobiJoin/distance":      {{971, 4353}, {3929, 429}},
	"upJoin/intersection":    {{853, 2935}, {3567, 1489}},
	"upJoin/distance":        {{853, 1147}, {3773, 1807}},
	"upJoin/iceberg":         {{853, 1147}, {3773, 1807}},
	"upJoin/distance/bucket": {{1077, 3051}, {3667, 959}},
	"srJoin/distance":        {{1187, 2503}, {2805, 535}},
	"semiJoin/distance":      {{111, 3301}, {3391, 217}},
}

func goldenShardSession(t *testing.T, name string, shards int) (*Session, Algorithm, Spec) {
	return goldenReplicaSession(t, name, shards, 1)
}

func goldenReplicaSession(t *testing.T, name string, shards, replicas int) (*Session, Algorithm, Spec) {
	t.Helper()
	cfg, alg, spec := goldenConfig(name)
	cfg.Shards, cfg.Replicas = shards, replicas
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess, alg, spec
}

// goldenConfig is the golden workload named alg/spec[/bucket]: its
// unsharded session configuration, algorithm and spec.
func goldenConfig(name string) (SessionConfig, Algorithm, Spec) {
	robjs := GaussianClusters(600, 4, 250, World, 101)
	sobjs := GaussianClusters(600, 4, 250, World, 102)
	specs := map[string]Spec{
		"intersection": {Kind: Intersection},
		"distance":     {Kind: Distance, Eps: 75},
		"iceberg":      {Kind: IcebergSemi, Eps: 75, MinMatches: 2},
	}
	algs := map[string]Algorithm{
		"naive":    Naive{},
		"grid":     Grid{},
		"mobiJoin": MobiJoin{},
		"upJoin":   UpJoin{},
		"srJoin":   SrJoin{},
		"semiJoin": SemiJoin{},
	}
	parts := strings.Split(name, "/") // alg/spec[/bucket]
	bucket := len(parts) == 3 && parts[2] == "bucket"
	cfg := SessionConfig{
		R: robjs, S: sobjs, Buffer: 500, Window: World,
		Seed: 7, Bucket: bucket, PublishIndexes: true,
	}
	return cfg, algs[parts[0]], specs[parts[1]]
}

// TestGoldenShardedByteAccounting pins the sharded wire exchange:
//
//   - Shards = 1 must stay bit-identical to the unsharded protocol — the
//     1-shard router is a pure pass-through, so every {R, S} byte total
//     equals the goldenBytes table of TestGoldenByteAccounting, for the
//     complete algorithm × kind matrix.
//   - Shards = 2 must meter exactly the per-shard-link bytes recorded in
//     goldenShardBytes.
func TestGoldenShardedByteAccounting(t *testing.T) {
	for name, want := range goldenBytes {
		t.Run("shards1/"+name, func(t *testing.T) {
			sess, alg, spec := goldenShardSession(t, name, 1)
			defer sess.Close()
			res, err := sess.Run(alg, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]int{res.Stats.R.WireBytes, res.Stats.S.WireBytes}
			if got != want {
				t.Errorf("%s: shards=1 metered {R, S} = {%d, %d}, unsharded golden {%d, %d}",
					name, got[0], got[1], want[0], want[1])
			}
		})
	}
	for name, want := range goldenShardBytes {
		t.Run("shards2/"+name, func(t *testing.T) {
			sess, alg, spec := goldenShardSession(t, name, 2)
			defer sess.Close()
			if _, err := sess.Run(alg, spec); err != nil {
				t.Fatal(err)
			}
			rs, ss := sess.Env().R.(*shard.Router).Shards(), sess.Env().S.(*shard.Router).Shards()
			rUse := []netsim.Usage{rs[0].Usage(), rs[1].Usage()}
			sUse := []netsim.Usage{ss[0].Usage(), ss[1].Usage()}
			got := [2][2]int{
				{rUse[0].WireBytes, rUse[1].WireBytes},
				{sUse[0].WireBytes, sUse[1].WireBytes},
			}
			if got != want {
				t.Errorf("%s: shards=2 metered R{%d, %d} S{%d, %d}, golden R{%d, %d} S{%d, %d}",
					name, got[0][0], got[0][1], got[1][0], got[1][1],
					want[0][0], want[0][1], want[1][0], want[1][1])
			}
			// The relation's merged usage must be exactly the sum of its
			// per-shard links — Eq. 1 accounting stays explainable shard by
			// shard. (res.Stats diffs from a snapshot taken after the INFO
			// exchange of env.prepare, so it is compared against totals via
			// the router's own aggregation, not the absolute link counters.)
			if mr := sess.Env().R.Usage().WireBytes; mr != got[0][0]+got[0][1] {
				t.Errorf("%s: merged R usage %d is not the per-shard sum %d",
					name, mr, got[0][0]+got[0][1])
			}
			if ms := sess.Env().S.Usage().WireBytes; ms != got[1][0]+got[1][1] {
				t.Errorf("%s: merged S usage %d is not the per-shard sum %d",
					name, ms, got[1][0]+got[1][1])
			}
		})
	}
}

// TestGoldenReplicatedByteAccounting pins the replicated wire exchange
// with hedging off: every probe travels exactly one replica link, and
// sequential runs pick replicas by the seeded rotation, so the *summed*
// bytes of a replicated fleet are bit-identical to the single-replica
// goldens — replication redistributes the same frames across links, it
// never adds or reshapes traffic. Any drift in the selection policy, an
// accidental duplicate dispatch, or a stray speculative request breaks
// the equality (a hedge would also trip the zero hedged-column checks).
func TestGoldenReplicatedByteAccounting(t *testing.T) {
	for name, want := range goldenBytes {
		t.Run("shards1-replicas2/"+name, func(t *testing.T) {
			sess, alg, spec := goldenReplicaSession(t, name, 1, 2)
			defer sess.Close()
			res, err := sess.Run(alg, spec)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]int{res.Stats.R.WireBytes, res.Stats.S.WireBytes}
			if got != want {
				t.Errorf("%s: replicas=2 metered {R, S} = {%d, %d}, unreplicated golden {%d, %d}",
					name, got[0], got[1], want[0], want[1])
			}
			if h := res.Stats.R.HedgedWireBytes + res.Stats.S.HedgedWireBytes; h != 0 {
				t.Errorf("%s: hedging disabled, yet %d hedged wire bytes metered", name, h)
			}
		})
	}
	for name, want := range goldenShardBytes {
		t.Run("shards2-replicas2/"+name, func(t *testing.T) {
			sess, alg, spec := goldenReplicaSession(t, name, 2, 2)
			defer sess.Close()
			if _, err := sess.Run(alg, spec); err != nil {
				t.Fatal(err)
			}
			// Each shard's Usage is now a replica set's merged usage
			// (the sum over its two replica links); with hedging off it
			// must still equal the single-replica per-shard golden.
			rs, ss := sess.Env().R.(*shard.Router).Shards(), sess.Env().S.(*shard.Router).Shards()
			rUse := []netsim.Usage{rs[0].Usage(), rs[1].Usage()}
			sUse := []netsim.Usage{ss[0].Usage(), ss[1].Usage()}
			got := [2][2]int{
				{rUse[0].WireBytes, rUse[1].WireBytes},
				{sUse[0].WireBytes, sUse[1].WireBytes},
			}
			if got != want {
				t.Errorf("%s: shards=2 replicas=2 metered R{%d, %d} S{%d, %d}, golden R{%d, %d} S{%d, %d}",
					name, got[0][0], got[0][1], got[1][0], got[1][1],
					want[0][0], want[0][1], want[1][0], want[1][1])
			}
			for _, use := range append(rUse, sUse...) {
				if use.HedgedWireBytes != 0 || use.HedgedMessages != 0 {
					t.Errorf("%s: hedging disabled, yet hedged column is {%d msgs, %d bytes}",
						name, use.HedgedMessages, use.HedgedWireBytes)
				}
			}
		})
	}
}

// goldenTreeBytes pins the metered wire bytes of every level of an
// aggregation tree, root link first ({R levels, S levels}), for the
// golden workload run sequentially at Shards 4 and 8 under TreeFanout 2,
// unbatched and at BatchSize 8. Level 0 is what crossed the root's
// links, the last level the leaf links: a drift in how an interior node
// meters its uplink — a frame charged twice, a reply not at all — moves
// an inner level while the leaf goldens above stay put.
var goldenTreeBytes = map[string][2][]int{
	"grid/distance/shards4/batch1":          {{4142, 3832}, {13672, 13668}},
	"grid/distance/shards4/batch8":          {{4142, 3472}, {13672, 13560}},
	"grid/distance/shards8/batch1":          {{4142, 3832, 4530}, {13672, 13668, 14420}},
	"grid/distance/shards8/batch8":          {{4142, 3832, 4062}, {13672, 13668, 14312}},
	"mobiJoin/distance/shards4/batch1":      {{5102, 5004}, {4136, 4242}},
	"mobiJoin/distance/shards4/batch8":      {{5102, 4842}, {4136, 4134}},
	"mobiJoin/distance/shards8/batch1":      {{5102, 5004, 5954}, {4136, 4242, 5192}},
	"mobiJoin/distance/shards8/batch8":      {{5102, 5004, 5792}, {4136, 4242, 5084}},
	"naive/intersection/shards4/batch1":     {{14784, 14894}, {14160, 14270}},
	"naive/intersection/shards4/batch8":     {{14784, 14894}, {14160, 14270}},
	"naive/intersection/shards8/batch1":     {{14784, 14894, 16048}, {14160, 14270, 15804}},
	"naive/intersection/shards8/batch8":     {{14784, 14894, 16048}, {14160, 14270, 15804}},
	"semiJoin/distance/shards4/batch1":      {{150, 150}, {378, 558}},
	"semiJoin/distance/shards4/batch8":      {{150, 150}, {378, 558}},
	"semiJoin/distance/shards8/batch1":      {{150, 150, 150}, {442, 622, 982}},
	"semiJoin/distance/shards8/batch8":      {{150, 150, 150}, {442, 622, 982}},
	"srJoin/distance/shards4/batch1":        {{3468, 3048}, {3118, 2906}},
	"srJoin/distance/shards4/batch8":        {{3468, 2760}, {3118, 2438}},
	"srJoin/distance/shards8/batch1":        {{3468, 3048, 4634}, {3118, 2906, 4708}},
	"srJoin/distance/shards8/batch8":        {{3468, 3048, 4292}, {3118, 2906, 4132}},
	"upJoin/distance/bucket/shards4/batch1": {{3906, 3596}, {4404, 2768}},
	"upJoin/distance/bucket/shards4/batch8": {{3906, 3596}, {4404, 2300}},
	"upJoin/distance/bucket/shards8/batch1": {{3906, 3596, 4824}, {4404, 2768, 4676}},
	"upJoin/distance/bucket/shards8/batch8": {{3906, 3596, 4824}, {4404, 2768, 4100}},
	"upJoin/distance/shards4/batch1":        {{1778, 1566}, {5358, 4828}},
	"upJoin/distance/shards4/batch8":        {{1778, 1440}, {5358, 4000}},
	"upJoin/distance/shards8/batch1":        {{1778, 1566, 2732}, {5358, 4828, 7262}},
	"upJoin/distance/shards8/batch8":        {{1778, 1566, 2606}, {5358, 4828, 6272}},
	"upJoin/iceberg/shards4/batch1":         {{1778, 1566}, {5358, 4828}},
	"upJoin/iceberg/shards4/batch8":         {{1778, 1440}, {5358, 4000}},
	"upJoin/iceberg/shards8/batch1":         {{1778, 1566, 2732}, {5358, 4828, 7262}},
	"upJoin/iceberg/shards8/batch8":         {{1778, 1566, 2606}, {5358, 4828, 6272}},
	"upJoin/intersection/shards4/batch1":    {{3566, 3248}, {4834, 4198}},
	"upJoin/intersection/shards4/batch8":    {{3566, 3248}, {4834, 3478}},
	"upJoin/intersection/shards8/batch1":    {{3566, 3248, 4264}, {4834, 4198, 6208}},
	"upJoin/intersection/shards8/batch8":    {{3566, 3248, 4264}, {4834, 4198, 5380}},
}

func TestGoldenTreeByteAccounting(t *testing.T) {
	var missing []string
	for name := range goldenShardBytes {
		for _, shards := range []int{4, 8} {
			for _, batch := range []int{1, 8} {
				key := fmt.Sprintf("%s/shards%d/batch%d", name, shards, batch)
				t.Run(key, func(t *testing.T) {
					sess, alg, spec := goldenTreeSession(t, name, shards, batch)
					defer sess.Close()
					res, err := sess.Run(alg, spec)
					if err != nil {
						t.Fatal(err)
					}
					got := [2][]int{res.Stats.RLevels, res.Stats.SLevels}
					want, ok := goldenTreeBytes[key]
					if !ok {
						missing = append(missing, fmt.Sprintf("%q: {%#v, %#v},", key, got[0], got[1]))
						t.Errorf("no golden for %s: got R %v S %v", key, got[0], got[1])
						return
					}
					if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
						t.Errorf("%s: per-level bytes R %v S %v, golden R %v S %v",
							key, got[0], got[1], want[0], want[1])
					}
				})
			}
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		t.Logf("golden entries:\n%s", strings.Join(missing, "\n"))
	}
}

// goldenTreeSession boots the golden workload behind a fanout-2 tree.
func goldenTreeSession(t *testing.T, name string, shards, batch int) (*Session, Algorithm, Spec) {
	t.Helper()
	cfg, alg, spec := goldenConfig(name)
	cfg.Shards, cfg.TreeFanout, cfg.Parallelism, cfg.BatchSize = shards, 2, 1, batch
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess, alg, spec
}
