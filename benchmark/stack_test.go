package main

import (
	"context"
	"slices"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// TestTiledOracleIsOracle pins the tiled oracle to the plain one.
func TestTiledOracleIsOracle(t *testing.T) {
	r, s := relations(1500, 5)
	want := core.Oracle(r, s, joinSpec, dataset.World).Pairs
	if got := oraclePairs(r, s, joinSpec); !slices.Equal(got, want) {
		t.Fatalf("tiled oracle has %d pairs, core.Oracle %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("the test relations do not join at all")
	}
}

// TestStacksMatchSession holds the hand-assembled stacks — decorated and
// not — to what repro.NewSession assembles from the same scenario: the
// same pairs, and where the run is sequential the same wire bytes, join
// after join. If buildFleet or ServeLocal changes how a stack is wired,
// this is where the benchmark's copy is caught drifting.
func TestStacksMatchSession(t *testing.T) {
	for _, sc := range scenarios {
		if sc.Transport == "daemon" {
			continue // its twin is repro.NewServer itself
		}
		sc := sc.short()
		t.Run(sc.Name, func(t *testing.T) {
			r, s := relations(sc.N, 3)
			sess, err := repro.NewSession(sc.sessionConfig(r, s))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			alg := algorithm(sc.Algs[0])
			var want *repro.Result
			for i := 0; i < 2; i++ { // the second join no longer pays the INFOs
				if want, err = sess.Run(alg, joinSpec); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(want.Pairs, oraclePairs(r, s, joinSpec)) {
				t.Fatal("the session itself disagrees with the oracle")
			}
			for _, trs := range [][]*tracer{nil, {newTracer()}} {
				sys, err := buildLocal(sc, r, s, trs)
				if err != nil {
					t.Fatal(err)
				}
				var got joinResult
				for i := 0; i < 2; i++ {
					if got, err = sys.Join(context.Background(), 0, true); err != nil {
						t.Fatal(err)
					}
				}
				sys.Close()
				if !slices.Equal(got.list, want.Pairs) {
					t.Errorf("traced=%v: %d pairs, the session returns %d", trs != nil, len(got.list), len(want.Pairs))
				}
				if sc.Sequential() && got.bytes != want.Stats.TotalBytes() {
					t.Errorf("traced=%v: %d wire bytes, the session moves %d", trs != nil, got.bytes, want.Stats.TotalBytes())
				}
				if trs != nil && len(trs[0].profiles) != 2 {
					t.Errorf("tracer digested %d joins, want 2", len(trs[0].profiles))
				}
			}
		})
	}
}
