package costmodel

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func params() Params {
	p := Default()
	p.Buffer = 800
	return p
}

func stats(nr, ns int, eps float64) Stats {
	return Stats{W: geom.R(0, 0, 1000, 1000), NR: nr, NS: ns, Eps: eps}
}

func TestTaqMatchesEquation7(t *testing.T) {
	p := params()
	// Taq = (BH+BQ) + (BH+BA)
	want := float64(40+p.BQ) + float64(40+p.BA)
	if got := p.Taq(); got != want {
		t.Fatalf("Taq = %v, want %v", got, want)
	}
}

func TestC1MatchesEquation2(t *testing.T) {
	p := params()
	st := stats(100, 200, 5)
	want := 2*p.QueryBytes() + p.TB(100*p.BObj) + p.TB(200*p.BObj)
	if got := p.C1(st); math.Abs(got-want) > 1e-9 {
		t.Fatalf("C1 = %v, want %v", got, want)
	}
}

func TestC1InfeasibleWhenBufferExceeded(t *testing.T) {
	p := params()
	if got := p.C1(stats(500, 301, 5)); !math.IsInf(got, 1) {
		t.Fatalf("C1 over buffer = %v, want +Inf", got)
	}
	if got := p.C1(stats(500, 300, 5)); math.IsInf(got, 1) {
		t.Fatal("C1 at buffer limit should be finite")
	}
	p.Buffer = 0 // unlimited
	if got := p.C1(stats(1e6, 1e6, 5)); math.IsInf(got, 1) {
		t.Fatal("C1 with unlimited buffer should be finite")
	}
}

func TestC2MatchesEquation4(t *testing.T) {
	p := params()
	st := stats(10, 1000, 20)
	perProbe := math.Pi * 20 * 20 / (1000 * 1000) * 1000 // π ε² / area × |Sw|
	tdq := p.QueryBytes() + p.TB(int(math.Ceil(perProbe*float64(p.BObj))))
	want := p.QueryBytes() + p.TB(10*p.BObj) + 10*tdq
	if got := p.C2(st); math.Abs(got-want) > 1e-9 {
		t.Fatalf("C2 = %v, want %v", got, want)
	}
}

func TestC3IsSymmetricToC2(t *testing.T) {
	p := params()
	st := stats(10, 1000, 20)
	swapped := stats(1000, 10, 20)
	if got, want := p.C3(st), p.C2(swapped); math.Abs(got-want) > 1e-9 {
		t.Fatalf("C3 = %v, want C2 of swapped = %v", got, want)
	}
}

func TestC2PrefersSmallOuter(t *testing.T) {
	p := params()
	st := stats(10, 5000, 10)
	if c2, c3 := p.C2(st), p.C3(st); c2 >= c3 {
		t.Fatalf("with tiny R, C2 (%v) should beat C3 (%v)", c2, c3)
	}
	st = stats(5000, 10, 10)
	if c2, c3 := p.C2(st), p.C3(st); c3 >= c2 {
		t.Fatalf("with tiny S, C3 (%v) should beat C2 (%v)", c3, c2)
	}
}

func TestBucketCheaperThanSingleProbes(t *testing.T) {
	p := params()
	st := stats(200, 2000, 10)
	single := p.C2(st)
	p.Bucket = true
	bucket := p.C2(st)
	if bucket >= single {
		t.Fatalf("bucket C2 (%v) should be cheaper than single-probe C2 (%v)", bucket, single)
	}
}

func TestProbeAreaPointsVsRects(t *testing.T) {
	stPoints := stats(10, 100, 5)
	stRects := stats(10, 100, 5)
	stRects.AvgAreaR, stRects.AvgAreaS = 100, 100
	if ap, ar := stPoints.probeArea(0, 0), stRects.probeArea(100, 100); ar <= ap {
		t.Fatalf("rect probes (%v) should cover more area than point probes (%v)", ar, ap)
	}
	// Intersection join of points: zero probe area.
	stZero := stats(10, 100, 0)
	if got := stZero.probeArea(0, 0); got != 0 {
		t.Fatalf("point intersection probe area = %v, want 0", got)
	}
}

func TestExpectedProbeResultClamped(t *testing.T) {
	st := Stats{W: geom.R(0, 0, 1, 1), NR: 1, NS: 100, Eps: 10}
	if got := st.expectedProbeResult(100, 0, 0); got != 100 {
		t.Fatalf("expected clamp to |inner|, got %v", got)
	}
	stDeg := Stats{W: geom.RectFromPoint(geom.Pt(1, 1)), NS: 7, Eps: 1}
	if got := stDeg.expectedProbeResult(7, 0, 0); got != 7 {
		t.Fatalf("degenerate window should assume all inner objects, got %v", got)
	}
}

func TestC4UniformIncludesAggregateCost(t *testing.T) {
	p := params()
	st := stats(0, 0, 5)
	// Empty window: just the 2k² aggregate queries.
	if got, want := p.C4Uniform(st, 2), 8*p.Taq(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("C4(empty) = %v, want %v", got, want)
	}
}

func TestC4UniformGrowsWithK(t *testing.T) {
	p := params()
	st := stats(4, 4, 5)
	// With almost no data, more partitions just cost more aggregates.
	if c2, c4 := p.C4Uniform(st, 2), p.C4Uniform(st, 4); c4 <= c2 {
		t.Fatalf("k=4 (%v) should cost more than k=2 (%v) on tiny data", c4, c2)
	}
}

func TestC4UniformTerminates(t *testing.T) {
	p := params()
	st := stats(1_000_000, 1_000_000, 5)
	got := p.C4Uniform(st, 2)
	if math.IsInf(got, 1) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("C4 on huge input = %v", got)
	}
}

func TestBestPhysical(t *testing.T) {
	p := params()
	// Small balanced inputs: HBSJ should win (no probe overhead).
	st := stats(50, 50, 5)
	if c1 := p.C1(st); math.IsInf(c1, 1) || c1 > p.C2(st) || c1 > p.C3(st) {
		t.Fatalf("C1 = %v, C2 = %v, C3 = %v: want HBSJ cheapest", c1, p.C2(st), p.C3(st))
	}
	// Huge S, tiny R, over buffer: NLSJ with outer R (C2).
	st = stats(3, 5000, 5)
	if c2 := p.C2(st); c2 >= p.C1(st) || c2 >= p.C3(st) {
		t.Fatalf("C1 = %v, C2 = %v, C3 = %v: want outer R cheapest", p.C1(st), c2, p.C3(st))
	}
	// Huge R, tiny S, over buffer: NLSJ with outer S (C3).
	st = stats(5000, 3, 5)
	if c3 := p.C3(st); c3 >= p.C1(st) || c3 >= p.C2(st) {
		t.Fatalf("C1 = %v, C2 = %v, C3 = %v: want outer S cheapest", p.C1(st), p.C2(st), c3)
	}
}

func TestAsymmetricPricesShiftChoice(t *testing.T) {
	p := params()
	p.Buffer = 1 // force NLSJ
	st := stats(100, 100, 5)
	// Equal sizes, but downloading from S is 10× more expensive, so the
	// cheaper plan downloads the outer from R (C2: outer R, probes to S)
	// only if probe traffic is small... compare both directions under
	// both tariffs and assert the ordering flips.
	p.PriceS = 10
	c2exp, c3exp := p.C2(st), p.C3(st)
	p.PriceS = 1
	p.PriceR = 10
	c2cheap, c3cheap := p.C2(st), p.C3(st)
	if (c2exp < c3exp) == (c2cheap < c3cheap) {
		t.Fatalf("tariff change should flip NLSJ direction: (%v,%v) vs (%v,%v)",
			c2exp, c3exp, c2cheap, c3cheap)
	}
}

func TestQueryBytesAndBH(t *testing.T) {
	p := params()
	if p.BH() != 40 {
		t.Fatalf("BH = %d", p.BH())
	}
	if p.QueryBytes() != float64(40+p.BQ) {
		t.Fatalf("QueryBytes = %v", p.QueryBytes())
	}
}
