package plan

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/netsim"
)

var world = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

func obsOf(nr, ns, buffer int, eps float64) Observations {
	return Observations{Window: world, NR: nr, NS: ns, Eps: eps, Buffer: buffer}
}

func findCand(t *testing.T, d Decision, op Op) Candidate {
	t.Helper()
	for _, c := range d.Candidates {
		if c.Op == op {
			return c
		}
	}
	t.Fatalf("no %v candidate in %+v", op, d.Candidates)
	return Candidate{}
}

// Tiny datasets that fit the buffer: downloading both windows beats any
// probe loop, so HBSJ must win outright.
func TestChooseTinyFitsPicksHBSJ(t *testing.T) {
	d := Planner{}.Choose(obsOf(20, 20, 500, 0))
	if d.Chosen.Op != OpHBSJ {
		t.Fatalf("chose %v, want hbsj; table %+v", d.Chosen.Op, d.Candidates)
	}
	if !d.Chosen.Feasible {
		t.Fatal("winner marked infeasible")
	}
}

// Over-buffer windows make HBSJ infeasible (+Inf, Eq. 2's memory
// constraint) and the planner must rank it last, never choose it.
func TestChooseOverBufferRejectsHBSJ(t *testing.T) {
	d := Planner{}.Choose(obsOf(400, 400, 100, 0))
	hbsj := findCand(t, d, OpHBSJ)
	if hbsj.Feasible || !math.IsInf(hbsj.Cost, 1) {
		t.Fatalf("hbsj should be infeasible: %+v", hbsj)
	}
	if d.Chosen.Op == OpHBSJ {
		t.Fatal("chose the infeasible hbsj")
	}
	if last := d.Candidates[len(d.Candidates)-1]; last.Op != OpHBSJ {
		t.Fatalf("infeasible candidate not sorted last: %+v", d.Candidates)
	}
}

// Equal-cost candidates are tie-broken by estimated request count: on a
// half-duplex link, fewer round trips is strictly better.
func TestChooseTieBreaksOnQueries(t *testing.T) {
	// Clustered quadrant counts typically drive grid and partition to the
	// same leaf sums; whenever any two candidates tie, the sort must put
	// the one with fewer queries first.
	qr := [4]int{300, 100, 100, 100}
	qs := [4]int{300, 100, 100, 100}
	obs := obsOf(600, 600, 200, 75)
	obs.QuadR, obs.QuadS = &qr, &qs
	d := Planner{}.Choose(obs)
	for i := 1; i < len(d.Candidates); i++ {
		a, b := d.Candidates[i-1], d.Candidates[i]
		if a.Feasible && b.Feasible && a.Cost == b.Cost && a.Queries > b.Queries {
			t.Fatalf("tie not broken by queries: %+v before %+v", a, b)
		}
	}
}

// CommitsWithoutStats: a runaway-cheap HBSJ commits without paying for
// quadrant counts; a partition-family winner never does.
func TestCommitsWithoutStats(t *testing.T) {
	p := Planner{}
	tiny := p.Choose(obsOf(20, 20, 500, 0))
	if tiny.Chosen.Op != OpHBSJ {
		t.Fatalf("setup: tiny workload chose %v", tiny.Chosen.Op)
	}
	if !p.CommitsWithoutStats(tiny) {
		t.Fatal("clear HBSJ win should commit without statistics")
	}
	// The same decision under an absurd margin must refuse to commit.
	if (Planner{CommitMargin: 1000}).CommitsWithoutStats(tiny) {
		t.Fatal("margin 1000 should force a statistics phase")
	}
	// Large over-buffer workload: partition-family wins, never commits
	// without the measured counts it plans to exploit.
	big := p.Choose(obsOf(600, 600, 200, 0))
	if big.Chosen.Op == OpGrid || big.Chosen.Op == OpPartition {
		if p.CommitsWithoutStats(big) {
			t.Fatal("partition-family choice must measure quadrants first")
		}
	}
}

// Hydrate folds measured retry rates into effective per-byte tariffs,
// clamped so a pathological link cannot zero out a candidate.
func TestHydrateRetryInflation(t *testing.T) {
	obs := obsOf(100, 100, 500, 0)
	obs.LinkR = LinkObs{Price: 2, Queries: 100, Retries: 50}
	obs.LinkS = LinkObs{Price: 1, Queries: 100, Retries: 1000}
	prm := Planner{}.Hydrate(obs)
	if want := 2 * 1.5; prm.PriceR != want {
		t.Fatalf("PriceR = %v, want %v (50%% retries on tariff 2)", prm.PriceR, want)
	}
	// Retry rate 10 clamps to 3: effective price 1×(1+3) = 4.
	if want := 4.0; prm.PriceS != want {
		t.Fatalf("PriceS = %v, want %v (clamped retry rate)", prm.PriceS, want)
	}
	// No link config observed: the default link's framing applies.
	def := netsim.DefaultLink()
	if prm.Link.MTU != def.MTU || prm.Link.HeaderBytes != def.HeaderBytes {
		t.Fatalf("link not defaulted: %+v", prm.Link)
	}
}

func TestHydrateUsesObservedLinkConfig(t *testing.T) {
	obs := obsOf(100, 100, 500, 0)
	obs.LinkR.Config = netsim.DialupLink()
	prm := Planner{}.Hydrate(obs)
	if prm.Link != netsim.DialupLink() {
		t.Fatalf("hydrated link %+v, want the observed dialup config", prm.Link)
	}
}

func TestDensityFactor(t *testing.T) {
	q := [4]int{40, 20, 20, 20}
	if got := densityFactor(&q, 100, 0); got != 1.6 {
		t.Fatalf("measured density = %v, want 1.6", got)
	}
	if got := densityFactor(nil, 100, 2.5); got != 2.5 {
		t.Fatalf("skew fallback = %v, want 2.5", got)
	}
	if got := densityFactor(nil, 100, 0); got != 1 {
		t.Fatalf("no information = %v, want 1", got)
	}
	uniform := [4]int{25, 25, 25, 25}
	if got := densityFactor(&uniform, 100, 9); got != 1 {
		t.Fatalf("measured uniform must override the skew prior: %v", got)
	}
}

func TestColocation(t *testing.T) {
	aligned := [4]int{100, 0, 0, 0}
	anti := [4]int{0, 100, 0, 0}
	uniform := [4]int{25, 25, 25, 25}
	if got := colocation(aligned, aligned, 100, 100, true); got != 4 {
		t.Fatalf("co-located clusters = %v, want 4", got)
	}
	if got := colocation(aligned, anti, 100, 100, true); got != 0 {
		t.Fatalf("anti-located clusters = %v, want 0", got)
	}
	if got := colocation(uniform, uniform, 100, 100, true); got != 1 {
		t.Fatalf("uniform = %v, want 1", got)
	}
	if got := colocation(aligned, anti, 100, 100, false); got != 1 {
		t.Fatalf("unmeasured must be neutral: %v", got)
	}
}

func TestSkewSplit(t *testing.T) {
	for _, tc := range []struct {
		n    int
		d    float64
		peak int
	}{{100, 1, 25}, {100, 2, 50}, {100, 4, 100}, {7, 3, 5}} {
		got := skewSplit(tc.n, tc.d)
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != tc.n {
			t.Fatalf("skewSplit(%d,%v) = %v loses mass (sum %d)", tc.n, tc.d, got, sum)
		}
		if got[0] != tc.peak {
			t.Fatalf("skewSplit(%d,%v) peak = %d, want %d", tc.n, tc.d, got[0], tc.peak)
		}
	}
}

// NLSJRemainder's two futures must cross over with the probe load: few
// outer objects favour finishing the probes, many outers over a dense
// inner quadrant favour downloading the quadrant once.
func TestNLSJRemainderCrossover(t *testing.T) {
	p := Planner{}
	obs := obsOf(0, 0, 1000, 600)
	prm := p.Hydrate(obs)
	inner := [4]int{200, 0, 0, 0}
	fewOuters := [4]int{3, 0, 0, 0}
	manyOuters := [4]int{50, 0, 0, 0}

	probeFew, gridFew := p.NLSJRemainder(prm, obs, true, fewOuters, inner)
	probeMany, gridMany := p.NLSJRemainder(prm, obs, true, manyOuters, inner)
	if probeFew >= gridFew {
		t.Fatalf("3 probes (%v) should beat a 200-object download (%v)", probeFew, gridFew)
	}
	if probeMany <= gridMany {
		t.Fatalf("50 probes into a dense quadrant (%v) should lose to one download (%v)", probeMany, gridMany)
	}
	if gridFew != gridMany {
		t.Fatalf("grid future must not depend on the outer count: %v vs %v", gridFew, gridMany)
	}
}

// Quadrants no probe touches are free in both futures.
func TestNLSJRemainderPrunesUntouchedQuadrants(t *testing.T) {
	p := Planner{}
	obs := obsOf(0, 0, 1000, 600)
	prm := p.Hydrate(obs)
	probe, grid := p.NLSJRemainder(prm, obs, true, [4]int{0, 0, 0, 0}, [4]int{200, 200, 200, 200})
	if probe != 0 || grid != 0 {
		t.Fatalf("no outers anywhere: want 0/0, got %v/%v", probe, grid)
	}
}

func TestReplanFactorDefaults(t *testing.T) {
	if got := (Planner{}).ReplanFactor(); got != 1.3 {
		t.Fatalf("default replan margin = %v, want 1.3", got)
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{
		OpHBSJ: "hbsj", OpNLSJR: "nlsj-outer-R", OpNLSJS: "nlsj-outer-S",
		OpGrid: "grid", OpPartition: "partition", OpSemiJoin: "semijoin",
	}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(op), op.String(), s)
		}
	}
}
