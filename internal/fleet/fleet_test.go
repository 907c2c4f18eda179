package fleet

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/shard"
)

// listen boots one relation's loopback TCP servers — cfg.Shards
// partitions × cfg.Replicas identical servers, as `spatialserve -shard
// i/N` processes would be — and returns their address list in Dial's
// grammar.
func listen(t *testing.T, name string, objs []geom.Object, cfg Config) string {
	t.Helper()
	var groups []string
	for _, part := range shard.Assign(objs, max(cfg.Shards, 1)) {
		var addrs []string
		for j := 0; j < max(cfg.Replicas, 1); j++ {
			srv, err := netsim.ListenAndServe("127.0.0.1:0", server.New(name, part))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs = append(addrs, srv.Addr())
		}
		groups = append(groups, strings.Join(addrs, "+"))
	}
	return strings.Join(groups, ",")
}

// upjoin checks whether a freshly built fleet kept R's bare remote, runs
// one sequential UpJoin on it and closes it.
func upjoin(t *testing.T, f *Fleet, err error, bare bool) *core.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.R.(*client.Remote); ok != bare {
		t.Errorf("R is a %T, bare remote expected: %v", f.R, bare)
	}
	res, err := core.UpJoin{}.Run(context.Background(), f.NewEnv(f.R, f.S), core.Spec{Kind: core.Distance, Eps: 120})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDialMatchesServe holds the two ways of obtaining a fleet to each
// other: the same Config served in-process and dialled over loopback TCP
// must give the same pairs and move the same bytes per relation, and
// must agree on whether an unsharded relation keeps its bare remote.
func TestDialMatchesServe(t *testing.T) {
	r := dataset.GaussianClusters(300, 3, 300, dataset.World, 11)
	s := dataset.GaussianClusters(300, 3, 300, dataset.World, 12)
	want := core.Oracle(r, s, core.Spec{Kind: core.Distance, Eps: 120}, dataset.World).Pairs
	cases := []struct {
		name string
		cfg  Config
		bare bool
	}{
		{"unsharded", Config{}, true},
		{"unsharded-partial", Config{AllowPartial: true}, false},
		{"2x2", Config{Shards: 2, Replicas: 2, Breakers: true}, false},
		{"4-tree2", Config{Shards: 4, TreeFanout: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.R, cfg.S, cfg.Buffer = r, s, 200
			served, err := Serve(cfg, nil)
			a := upjoin(t, served, err, tc.bare)
			dialled, err := Dial(cfg, listen(t, "R", r, cfg), listen(t, "S", s, cfg))
			b := upjoin(t, dialled, err, tc.bare)
			if !slices.Equal(a.Pairs, want) {
				t.Errorf("Serve: %d pairs, oracle has %d", len(a.Pairs), len(want))
			}
			if !slices.Equal(b.Pairs, a.Pairs) {
				t.Errorf("Dial returns %d pairs, Serve %d", len(b.Pairs), len(a.Pairs))
			}
			if a.Stats.R.WireBytes != b.Stats.R.WireBytes || a.Stats.S.WireBytes != b.Stats.S.WireBytes {
				t.Errorf("wire bytes R/S: Serve %d/%d, Dial %d/%d",
					a.Stats.R.WireBytes, a.Stats.S.WireBytes, b.Stats.R.WireBytes, b.Stats.S.WireBytes)
			}
			if len(a.Stats.RLevels) != len(b.Stats.RLevels) {
				t.Errorf("tree depth: Serve %d levels, Dial %d", len(a.Stats.RLevels), len(b.Stats.RLevels))
			}
		})
	}
}

// TestBuildFailureReleasesEverything drives the error paths: a failure
// at any step is an error, not a panic on the half-built fleet, and
// whatever was opened before it is closed again — a connection Dial
// leaked would keep its handler goroutine alive on the server.
func TestBuildFailureReleasesEverything(t *testing.T) {
	r := dataset.Uniform(50, dataset.World, 1)
	if _, err := Serve(Config{R: r, S: r, Link: netsim.LinkConfig{MTU: 10, HeaderBytes: 40}}, nil); err == nil {
		t.Error("Serve accepted a link whose header exceeds its MTU")
	}
	good := listen(t, "R", r, Config{})
	before := runtime.NumGoroutine()
	for _, bad := range []string{"", good + ",", good + "+ ", "127.0.0.1:1", good + "+127.0.0.1:1", good + "," + good + "+127.0.0.1:1"} {
		if _, err := Dial(Config{Breakers: true}, good, bad); err == nil {
			t.Errorf("Dial accepted the S address list %q", bad)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed Dials, %d after", before, runtime.NumGoroutine())
		}
	}
}
