package repro

import (
	"testing"
)

func newTestSession(t *testing.T, cfg SessionConfig) *Session {
	t.Helper()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func TestSessionDistanceJoinMatchesOracle(t *testing.T) {
	r := GaussianClusters(300, 4, 250, World, 1)
	s := GaussianClusters(300, 4, 250, World, 2)
	sess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 400})
	spec := Spec{Kind: Distance, Eps: 120}
	res, err := sess.Run(UpJoin{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Oracle(r, s, spec, World)
	if len(res.Pairs) != len(want.Pairs) {
		t.Fatalf("got %d pairs, oracle %d", len(res.Pairs), len(want.Pairs))
	}
}

func TestSessionRunsAreIndependentlyMetered(t *testing.T) {
	r := GaussianClusters(200, 2, 250, World, 3)
	s := GaussianClusters(200, 2, 250, World, 3)
	sess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 400})
	spec := Spec{Kind: Distance, Eps: 100}
	a, err := sess.Run(SrJoin{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Run(SrJoin{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.TotalBytes() != b.Stats.TotalBytes() {
		t.Fatalf("identical runs should meter identically: %d vs %d",
			a.Stats.TotalBytes(), b.Stats.TotalBytes())
	}
}

func TestSessionAsymmetricTariffs(t *testing.T) {
	r := GaussianClusters(200, 2, 250, World, 5)
	s := GaussianClusters(200, 2, 250, World, 5)
	sess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 400, PriceR: 10, PriceS: 1})
	res, err := sess.Run(UpJoin{}, Spec{Kind: Distance, Eps: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	wantCost := 10*float64(st.R.WireBytes) + 1*float64(st.S.WireBytes)
	if st.MoneyCost != wantCost {
		t.Fatalf("money cost %v, want %v", st.MoneyCost, wantCost)
	}
}

func TestSessionIceberg(t *testing.T) {
	r := GaussianClusters(150, 2, 300, World, 7)
	s := GaussianClusters(600, 2, 300, World, 7)
	spec := Spec{Kind: IcebergSemi, Eps: 200, MinMatches: 5}
	sess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 500})
	res, err := sess.Run(UpJoin{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Oracle(r, s, spec, World)
	if len(res.Objects) != len(want.Objects) {
		t.Fatalf("got %d objects, oracle %d", len(res.Objects), len(want.Objects))
	}
}

func TestSessionSemiJoinNeedsPublishedIndexes(t *testing.T) {
	r := Uniform(100, World, 8)
	s := Uniform(100, World, 9)
	sess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 400})
	if _, err := sess.Run(SemiJoin{}, Spec{Kind: Distance, Eps: 100}); err == nil {
		t.Fatal("semiJoin without PublishIndexes should fail")
	}
	sess2 := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 400, PublishIndexes: true})
	res, err := sess2.Run(SemiJoin{}, Spec{Kind: Distance, Eps: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := Oracle(r, s, Spec{Kind: Distance, Eps: 100}, World)
	if len(res.Pairs) != len(want.Pairs) {
		t.Fatalf("semiJoin got %d pairs, oracle %d", len(res.Pairs), len(want.Pairs))
	}
}

func TestSessionParallelismMatchesSequential(t *testing.T) {
	r := GaussianClusters(400, 4, 250, World, 11)
	s := GaussianClusters(400, 4, 250, World, 12)
	spec := Spec{Kind: Distance, Eps: 120}
	for _, alg := range []Algorithm{Naive{}, Grid{}, MobiJoin{}, UpJoin{}, SrJoin{}, Auto{}} {
		seqSess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 300})
		seq, err := seqSess.Run(alg, spec)
		if err != nil {
			t.Fatalf("%s sequential: %v", alg.Name(), err)
		}
		parSess := newTestSession(t, SessionConfig{R: r, S: s, Buffer: 300, Parallelism: 4})
		par, err := parSess.Run(alg, spec)
		if err != nil {
			t.Fatalf("%s parallel: %v", alg.Name(), err)
		}
		if len(seq.Pairs) != len(par.Pairs) {
			t.Fatalf("%s: parallel %d pairs, sequential %d", alg.Name(), len(par.Pairs), len(seq.Pairs))
		}
		for i := range seq.Pairs {
			if seq.Pairs[i] != par.Pairs[i] {
				t.Fatalf("%s: pair %d differs", alg.Name(), i)
			}
		}
		if seq.Stats.TotalBytes() != par.Stats.TotalBytes() {
			t.Fatalf("%s: parallel metered %d bytes, sequential %d",
				alg.Name(), par.Stats.TotalBytes(), seq.Stats.TotalBytes())
		}
	}
}

func TestSessionNilAlgorithm(t *testing.T) {
	sess := newTestSession(t, SessionConfig{R: nil, S: nil})
	if _, err := sess.Run(nil, Spec{Kind: Distance, Eps: 1}); err == nil {
		t.Fatal("nil algorithm should error")
	}
}

func TestFacadeHelpers(t *testing.T) {
	p := Pt(1, 2)
	if p.X != 1 || p.Y != 2 {
		t.Fatal("Pt broken")
	}
	rect := R(3, 4, 1, 2)
	if rect != (Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}) {
		t.Fatal("R should normalize corners")
	}
	o := PointObject(9, p)
	if o.ID != 9 || !o.IsPoint() {
		t.Fatal("PointObject broken")
	}
	if DefaultRailway().Segments != 35000 {
		t.Fatal("DefaultRailway should target 35K segments")
	}
	if sess := newTestSession(t, SessionConfig{}); sess.Env() == nil {
		t.Fatal("Env accessor")
	}
}
