package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
)

func sqrtf(v float64) float64 { return math.Sqrt(v) }

// UpJoin is the Uniform Partition Join of §4.1 (Fig. 3). Before choosing
// a physical operator for a window it tests each dataset's distribution
// for uniformity (Eq. 9, parameter Alpha), confirmed by one extra COUNT
// at a randomly placed quadrant-sized window; cost estimates are only
// trusted — and physical operators applied — on windows whose relevant
// datasets are uniform, otherwise the window is repartitioned. Statistics
// are requested only for datasets that are "large enough" for them to pay
// off (Eq. 10), and a dataset found uniform is never re-tested deeper in
// the recursion.
type UpJoin struct {
	// Alpha is the uniformity tolerance of Eq. (9); 0 means the paper's
	// default of 0.25 (chosen in Fig. 6a).
	Alpha float64
}

// Name implements Algorithm.
func (UpJoin) Name() string { return "upJoin" }

func (u UpJoin) alpha() float64 {
	if u.Alpha <= 0 {
		return 0.25
	}
	return u.Alpha
}

// Run implements Algorithm.
func (u UpJoin) Run(ctx context.Context, env *Env, spec Spec) (*Result, error) {
	x, err := newExec(ctx, env, spec, "upJoin")
	if err != nil {
		return nil, err
	}
	defer x.close()
	nr, ns, err := x.countBoth(x.window)
	if err != nil {
		return nil, err
	}
	up := &upState{exec: x, alpha: u.alpha()}
	err = up.join(x.window, dsState{n: nr}, dsState{n: ns}, 0)
	if err != nil {
		return nil, err
	}
	return x.finish(), nil
}

type upState struct {
	*exec
	alpha float64
}

// dsState is the per-window knowledge about one dataset: its count, an
// optional uniformity verdict inherited from an ancestor window, and the
// quadrant counts if they were measured.
type dsState struct {
	n cnt
	// uniform is meaningful only when tested is true.
	uniform, tested bool
	// quads holds quadrant counts (measured or estimated).
	quads    [4]cnt
	hasQuads bool
}

// large implements Eq. (10): statistics pay off only when downloading the
// window would cost more than three aggregate queries.
func (u *upState) large(n int) bool {
	p := u.env.Model
	return p.TB(n*p.BObj) > 3*p.Taq()
}

// uniformTest implements Eq. (9): every quadrant count must be close to
// the |Dw|/4 expectation. The tolerance is α·(|Dw|/4) plus two standard
// deviations of binomial sampling noise (a quadrant of a truly uniform
// window is Binomial(n, 1/4), sd = √(3n/16)).
//
// Interpretation note: read literally, Eq. (9) tolerates α·|Dw| — four
// times looser — under which a 35K-object dataset never looks skewed at
// coarse windows and UpJoin degenerates to MobiJoin's behaviour on the
// real-data workloads; read as α·|Dw|/4 exactly, uniform datasets fail
// the test through sampling noise alone and UpJoin over-partitions
// everywhere. The share-plus-noise form reproduces both Fig. 6(a)'s α
// sensitivity and Fig. 8's real-data behaviour; see DESIGN.md.
func (u *upState) uniformTest(n int, qs [4]cnt) bool {
	exp := float64(n) / 4
	tol := u.alpha*exp + 2*sqrtf(float64(n)*3/16)
	for _, q := range qs {
		d := float64(q.n) - exp
		if d < 0 {
			d = -d
		}
		if d >= tol {
			return false
		}
	}
	return true
}

// inspect gathers the distribution knowledge for dataset d on window w,
// following lines 2-7 of Fig. 3.
func (u *upState) inspect(d side, w geom.Rect, st dsState) (dsState, error) {
	if st.tested && st.uniform {
		// Already found uniform at an ancestor: estimate quadrants.
		st.quads = estQuads(st.n.n)
		st.hasQuads = true
		return st, nil
	}
	if !u.large(st.n.n) {
		// Too small for statistics: assume uniform (Fig. 3 line 7).
		st.tested, st.uniform = true, true
		st.quads = estQuads(st.n.n)
		st.hasQuads = true
		return st, nil
	}
	// Resume from quadrant counts already measured by an earlier phase
	// (the online planner's observe phase seeds them) instead of paying
	// for them again; UpJoin's own recursion never pre-sets them.
	qs := st.quads
	if !st.hasQuads {
		var err error
		qs, err = u.quadrantCounts(d, w, st.n)
		if err != nil {
			return st, err
		}
	}
	st.quads, st.hasQuads = qs, true
	st.tested = true
	if !u.uniformTest(st.n.n, qs) {
		st.uniform = false
		return st, nil
	}
	// Statistics look uniform: confirm with one COUNT at a random
	// quadrant-sized window inside w (Fig. 3 line 6). The window derives
	// from a per-(dataset, window) RNG, not a shared stream, so the probe
	// — and its metered bytes — is the same under any scheduling.
	probe := randomQuadrantWindow(windowRand(u.env.Seed, d, w), w)
	pn, err := u.count(d, probe)
	if err != nil {
		return st, err
	}
	var one [4]cnt
	one[0] = exact(pn)
	one[1] = exact(st.n.n / 4) // neutral entries so only the probe is tested
	one[2] = exact(st.n.n / 4)
	one[3] = exact(st.n.n / 4)
	st.uniform = u.uniformTest(st.n.n, one)
	return st, nil
}

// estQuads distributes n uniformly over four quadrants (estimates).
func estQuads(n int) [4]cnt {
	q := n / 4
	rem := n - 3*q
	return [4]cnt{approx(q), approx(q), approx(q), approx(rem)}
}

// randomQuadrantWindow returns a quadrant-sized window placed uniformly
// at random inside w.
func randomQuadrantWindow(rng interface{ Float64() float64 }, w geom.Rect) geom.Rect {
	hw, hh := w.Width()/2, w.Height()/2
	x0 := w.MinX + rng.Float64()*hw
	y0 := w.MinY + rng.Float64()*hh
	return geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + hw, MaxY: y0 + hh}
}

// join is the recursive body of Fig. 3.
func (u *upState) join(w geom.Rect, rst, sst dsState, depth int) error {
	// Prune only on *measured* empty windows. Estimated counts (from a
	// uniformity assumption) can be zero while the window holds objects;
	// those flow on, and the physical operators re-count exactly before
	// acting.
	if (rst.n.exact && rst.n.n == 0) || (sst.n.exact && sst.n.n == 0) {
		u.dec.pruned.Add(1)
		return nil
	}
	if !u.splittable(w, depth) {
		// Splitting can no longer prune (cell at ε scale, or degenerate
		// data at the depth bound): stop gathering statistics and apply
		// the cheapest feasible physical operator.
		return u.forcePhysical(w, rst.n, sst.n)
	}

	// The two datasets' statistics are gathered independently, so the
	// R-side and S-side inspection batches overlap on a parallel link.
	err := u.both(
		func() error {
			var err error
			rst, err = u.inspect(sideR, w, rst)
			return err
		},
		func() error {
			var err error
			sst, err = u.inspect(sideS, w, sst)
			return err
		},
	)
	if err != nil {
		return err
	}

	// Fig. 3 separates cost from feasibility: c1 is the raw transfer cost
	// of HBSJ (line 8), while the memory constraint is checked explicitly
	// on line 10 — "if both datasets are uniform AND there is enough
	// memory then HBSJ, else repartition". Computing c1 as +Inf when the
	// buffer is short would wrongly divert to the NLSJ branch instead of
	// repartitioning.
	rawModel := u.env.Model
	rawModel.Buffer = 0
	st := u.modelStats(w, rst.n, sst.n)
	c1 := rawModel.C1(st)
	c2 := rawModel.C2(st)
	c3 := rawModel.C3(st)
	// Outer = cheaper NLSJ direction; inner is the other dataset, whose
	// skew decides whether NLSJ is safe (Fig. 3 lines 12-14).
	cNL, outer := c3, sideS
	innerUniform := rst.tested && rst.uniform
	if c2 < c3 {
		cNL, outer = c2, sideR
		innerUniform = sst.tested && sst.uniform
	}

	// lookahead estimates the cost of repartitioning once using the
	// *measured* quadrant counts (the statistics just paid for in
	// inspect) instead of MobiJoin's uniformity assumption: the next
	// level's aggregate queries plus, for every quadrant that would not
	// be pruned, its cheapest physical operator. Repartitioning is
	// worthwhile only when this distribution-aware estimate undercuts
	// the window's own operator — the Eq. (10) principle ("statistics
	// must cost less than they can save") carried over to the
	// repartitioning decision. This replaces the pseudocode's purely
	// qualitative "repartition when skewed" rule, which on datasets that
	// are skewed at every scale (road/rail networks) never stops paying
	// for statistics; see DESIGN.md.
	lookahead := 8 * u.env.Model.Taq()
	rq, sq := rst.quads, sst.quads
	if !rst.hasQuads {
		rq = estQuads(rst.n.n)
	}
	if !sst.hasQuads {
		sq = estQuads(sst.n.n)
	}
	for i, q := range w.Quadrants() {
		if rq[i].n == 0 || sq[i].n == 0 {
			continue // would be pruned: no further cost
		}
		sti := u.modelStats(q, rq[i], sq[i])
		ci := rawModel.C2(sti)
		if c3i := rawModel.C3(sti); c3i < ci {
			ci = c3i
		}
		if c1i := rawModel.C1(sti); c1i < ci {
			ci = c1i
		}
		lookahead += ci
	}

	op := "recurse"
	if c1 < cNL {
		if (rst.uniform && sst.uniform || lookahead >= c1) && u.env.Device.CanHold(rst.n.n+sst.n.n) {
			op = "hbsj"
		}
	} else if innerUniform || lookahead >= cNL {
		op = "nlsj"
	}
	// The note's arguments are boxed at the call, so it is built only
	// when someone observes the run.
	if u.observing() {
		u.emit(PhasePlan, "plan/upjoin", w, rst.n.n, sst.n.n, 0,
			fmt.Sprintf("d=%d uniform(R=%v,S=%v) c1=%.0f cNL=%.0f la=%.0f outer=%s -> %s",
				depth, rst.uniform, sst.uniform, c1, cNL, lookahead, "RS"[outer:outer+1], op))
	}
	switch op {
	case "hbsj":
		return u.doHBSJ(w, rst.n, sst.n, depth)
	case "nlsj":
		return u.doNLSJ(w, outer, rst.n, sst.n)
	}
	return u.recurse(w, rst, sst, depth)
}

// recurse repartitions w into quadrants, reusing measured quadrant counts
// and propagating uniformity verdicts downward. The quadrants are
// independent subproblems and run on the worker pool.
func (u *upState) recurse(w geom.Rect, rst, sst dsState, depth int) error {
	u.dec.repart.Add(1)
	if !rst.hasQuads {
		rst.quads = estQuads(rst.n.n)
	}
	if !sst.hasQuads {
		sst.quads = estQuads(sst.n.n)
	}
	quads := w.Quadrants()
	return u.fanoutSiblings(4, func(i int) error {
		cr := dsState{n: rst.quads[i], uniform: rst.uniform, tested: rst.tested && rst.uniform}
		cs := dsState{n: sst.quads[i], uniform: sst.uniform, tested: sst.tested && sst.uniform}
		return u.join(quads[i], cr, cs, depth+1)
	})
}

// forcePhysical applies the cheapest feasible physical operator without
// any further partitioning.
func (u *upState) forcePhysical(w geom.Rect, nr, ns cnt) error {
	c1, c2, c3 := u.costs(w, nr, ns)
	if c1 <= c2 && c1 <= c3 {
		return u.doHBSJ(w, nr, ns, maxDepth)
	}
	if c2 <= c3 {
		return u.doNLSJ(w, sideR, nr, ns)
	}
	return u.doNLSJ(w, sideS, nr, ns)
}
