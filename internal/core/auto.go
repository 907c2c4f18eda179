package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bufpool"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/wire"
)

// Auto is the online cost-based planner: instead of running one fixed
// strategy it observes first and commits late. The run decomposes into
// the observable phases the engine exposes (phase.go):
//
//  1. observe — the two root COUNTs, the endpoints' live link stats
//     (link configuration, retry rates, tariffs) and, when the relations
//     are sharded, the per-shard INFO skew. All of it is either free
//     (already-paid INFO round trips, passive link observation) or the
//     two aggregate queries every adaptive algorithm pays anyway.
//  2. plan — every candidate operator is scored by internal/plan under
//     the §3.1 model hydrated from those observations. If the winner
//     beats the best partition-family alternative by the commit margin,
//     it commits immediately; otherwise the planner buys one round of
//     quadrant statistics (8 aggregate queries) and re-plans on the
//     measured distribution.
//  3. transfer — the committed operator runs, delegating to the same
//     phase-split primitives the fixed algorithms use, seeded with every
//     statistic already measured so nothing is paid twice.
//  4. re-plan — a committed NLSJ re-evaluates itself once the outer
//     window is on the device: if the inner side's measured quadrant
//     densities reveal that the remaining probes are dearer than
//     downloading the inner windows per quadrant and joining against the
//     held outer objects, it switches mid-join (the downloaded outer
//     objects are reused, never re-paid).
//
// The Result carries an Explain: the scored candidate table, the phase
// log with estimated-vs-metered bytes, and any mid-join switches.
type Auto struct {
	// Planner configures the decision margins; the zero value uses the
	// defaults of package plan.
	Planner plan.Planner
}

// Name implements Algorithm.
func (Auto) Name() string { return "auto" }

// Run implements Algorithm.
func (al Auto) Run(ctx context.Context, env *Env, spec Spec) (*Result, error) {
	x, err := newExec(ctx, env, spec, "auto")
	if err != nil {
		return nil, err
	}
	defer x.close()
	x.explain = &Explain{Algorithm: "auto"}
	a := &autoState{exec: x, pl: al.Planner}

	nr, ns, err := x.countBoth(x.window)
	if err != nil {
		return nil, err
	}
	if nr.n == 0 || ns.n == 0 {
		x.dec.pruned.Add(1)
		x.explain.Chosen = "none (empty window)"
		return x.finish(), nil
	}

	obs := a.observations(nr, ns)
	d := a.pl.Choose(obs)
	a.recordPlan("plan/initial", d)

	if !a.pl.CommitsWithoutStats(d) {
		// The winner is not clear enough to skip statistics: buy one round
		// of quadrant counts and re-plan on the measured distribution.
		qr, qs, err := x.quadrantCountsBoth(x.window, nr, ns)
		if err != nil {
			return nil, err
		}
		obs.QuadR, obs.QuadS = quadInts(qr), quadInts(qs)
		a.qr, a.qs, a.hasQuads = qr, qs, true
		d = a.pl.Choose(obs)
		a.recordPlan("plan/refined", d)
	}

	x.explain.Chosen = d.Chosen.Op.String()
	if err := a.execute(d, obs, nr, ns); err != nil {
		return nil, err
	}
	return x.finish(), nil
}

// autoState is the per-run state of the adaptive algorithm: the shared
// engine, the planner, and the quadrant statistics once measured.
type autoState struct {
	*exec
	pl     plan.Planner
	qr, qs [4]cnt
	// hasQuads marks qr/qs as measured (the refine step ran).
	hasQuads bool
}

// observations assembles the planner's input from everything the run has
// measured or can read for free.
func (a *autoState) observations(nr, ns cnt) plan.Observations {
	st := a.modelStats(a.window, nr, ns)
	return plan.Observations{
		Window:      a.window,
		NR:          nr.n,
		NS:          ns.n,
		Eps:         a.spec.Eps,
		Iceberg:     a.spec.Kind == IcebergSemi,
		CountProbeR: st.CountProbeR,
		AvgAreaR:    st.AvgAreaR,
		AvgAreaS:    st.AvgAreaS,
		TreeHeightR: a.env.infoR.TreeHeight,
		TreeHeightS: a.env.infoS.TreeHeight,
		WholeSpace:  a.env.Window.Contains(a.env.infoR.Bounds.Union(a.env.infoS.Bounds)),
		Buffer:      a.env.Device.BufferObjects,
		Bucket:      a.env.Model.Bucket,
		LinkR:       linkObs(a.env.R),
		LinkS:       linkObs(a.env.S),
		SkewR:       shardSkew(a.ctx, a.env.R),
		SkewS:       shardSkew(a.ctx, a.env.S),
	}
}

// linkObs reads one endpoint's live link observation: the link
// configuration when the endpoint reports one, plus its tariff and
// retry/query counters for the effective-price computation.
func linkObs(p Probe) plan.LinkObs {
	lo := plan.LinkObs{
		Price:   p.PricePerByte(),
		Retries: p.Retries(),
		Queries: int64(p.Usage().Queries),
	}
	if l, ok := p.(interface{ Link() netsim.LinkConfig }); ok {
		lo.Config = l.Link()
	}
	return lo
}

// shardSkew reads the peak-to-mean per-shard density ratio of a sharded
// endpoint from its (already fetched) INFO metadata: the densest shard's
// count ÷ bounds area against the fleet's total count ÷ total area; 1
// for bare remotes and evenly spread relations. Shards are balanced by
// count, so it is the bounds that carry the signal — a clustered
// relation packs some shards into small dense cells and leaves others
// stretched over sparse space. Empty and zero-area shards have no
// density and are left out, and the ratio is capped at the shard count,
// what n equal tiles could report of data piled into one of them. A free
// density prior: no query is issued for it.
func shardSkew(ctx context.Context, p Probe) float64 {
	si, ok := p.(interface {
		ShardInfos(context.Context) ([]wire.Info, error)
	})
	if !ok {
		return 1
	}
	infos, err := si.ShardInfos(ctx)
	if err != nil || len(infos) < 2 {
		return 1
	}
	var total int64
	var area, peak float64
	for _, info := range infos {
		a := info.Bounds.Area()
		if info.Count == 0 || a <= 0 {
			continue
		}
		total += info.Count
		area += a
		peak = max(peak, float64(info.Count)/a)
	}
	if total == 0 {
		return 1
	}
	return min(peak*area/float64(total), float64(len(infos)))
}

// recordPlan stores a decision in the explain report and emits the plan
// phase event.
func (a *autoState) recordPlan(name string, d plan.Decision) {
	reports := make([]CandidateReport, len(d.Candidates))
	for i, c := range d.Candidates {
		reports[i] = CandidateReport{
			Op: c.Op.String(), Cost: c.Cost, Bytes: c.Bytes,
			Queries: c.Queries, Feasible: c.Feasible, Note: c.Note,
		}
	}
	a.explainMu.Lock()
	a.explain.Candidates = reports
	a.explainMu.Unlock()
	a.emit(PhasePlan, name, a.window, 0, 0, d.Chosen.Bytes,
		fmt.Sprintf("chose %s (est cost %.0f)", d.Chosen.Op, d.Chosen.Cost))
}

// execute runs the committed operator, delegating to the fixed
// algorithms' phase-split bodies seeded with the measured statistics.
func (a *autoState) execute(d plan.Decision, obs plan.Observations, nr, ns cnt) error {
	switch d.Chosen.Op {
	case plan.OpHBSJ:
		return a.doHBSJ(a.window, nr, ns, 0)
	case plan.OpNLSJR:
		return a.runNLSJ(sideR, nr, ns, d, obs)
	case plan.OpNLSJS:
		return a.runNLSJ(sideS, nr, ns, d, obs)
	case plan.OpSemiJoin:
		return semiJoinRun(a.exec)
	case plan.OpGrid:
		return a.runGrid(nr, ns)
	case plan.OpPartition:
		return a.runPartition(nr, ns)
	default:
		return fmt.Errorf("core: auto cannot execute operator %v", d.Chosen.Op)
	}
}

// quadInts strips the exactness annotations for the planner.
func quadInts(q [4]cnt) *[4]int {
	var out [4]int
	for i, c := range q {
		out[i] = c.n
	}
	return &out
}

// runGrid executes the one-level measured-quadrant plan: every quadrant
// both sides left non-empty is processed with its cheapest physical
// operator (splitting further inside doHBSJ when the buffer requires
// it). The quadrant counts were measured by the refine step — OpGrid is
// only ever chosen from a refined plan — so no aggregate query is
// re-paid here.
func (a *autoState) runGrid(nr, ns cnt) error {
	quads := a.window.Quadrants()
	// Measured level-one densities, assumed self-similar inside each
	// quadrant: a clustered side keeps clustering at finer scales, so an
	// NLSJ probe into it returns proportionally fatter replies than the
	// uniform Eq. 4/5 estimate claims. The denominator is the window
	// total, matching the planner's convention (eps-expanded quadrant
	// counts overlap, so their sum would understate the skew).
	dR := measuredDensity(a.qr, nr.n)
	dS := measuredDensity(a.qs, ns.n)
	return a.fanoutSiblings(4, func(i int) error {
		cr, cs := a.qr[i], a.qs[i]
		if (cr.exact && cr.n == 0) || (cs.exact && cs.n == 0) {
			a.dec.pruned.Add(1)
			return nil
		}
		if cr.n == 0 || cs.n == 0 {
			// Derived estimate says empty: confirm before pruning.
			var err error
			if cr, cs, err = a.ensureExactBoth(quads[i], cr, cs); err != nil {
				return err
			}
			if cr.n == 0 || cs.n == 0 {
				a.dec.pruned.Add(1)
				return nil
			}
		}
		// Like SrJoin's leaf dispatch, C1 is estimated without the memory
		// constraint: doHBSJ splits recursively (with pruning) when the
		// quadrant does not fit, which is almost always cheaper than an
		// NLSJ with a large outer window.
		model := a.env.Model
		model.Buffer = 0
		st := a.modelStats(quads[i], cr, cs)
		c1 := model.C1(st)
		st2 := st
		st2.DensityFactor = dS // C2 probes into S
		c2 := model.C2(st2)
		st3 := st
		st3.DensityFactor = dR // C3 probes into R
		c3 := model.C3(st3)
		switch {
		case c1 <= c2 && c1 <= c3:
			return a.doHBSJ(quads[i], cr, cs, 1)
		case c2 <= c3:
			return a.doNLSJ(quads[i], sideR, cr, cs)
		default:
			return a.doNLSJ(quads[i], sideS, cr, cs)
		}
	})
}

// measuredDensity is the peak-to-mean ratio of measured quadrant counts
// against the window total n (≥ 1); 1 when nothing was counted.
func measuredDensity(q [4]cnt, n int) float64 {
	peak := 0
	for _, c := range q {
		if c.n > peak {
			peak = c.n
		}
	}
	if n == 0 || peak == 0 {
		return 1
	}
	d := float64(peak) * 4 / float64(n)
	if d < 1 {
		d = 1
	}
	return d
}

// runPartition delegates to the similarity-driven adaptive recursion
// (SrJoin, Fig. 5), seeded with the quadrant counts the refine step
// already measured so the root observation round is not re-paid: when
// the planner picks OpPartition after refining, Auto's wire bill is
// exactly SrJoin's.
func (a *autoState) runPartition(nr, ns cnt) error {
	sr := &srState{exec: a.exec, rho: 0.30}
	if a.hasQuads {
		return sr.joinWithQuads(a.window, nr, ns, a.qr, a.qs, 0)
	}
	return sr.join(a.window, nr, ns, 0)
}

// runNLSJ executes a committed nested-loop plan with a density
// checkpoint between its two phases: after the outer window is
// downloaded (a sunk, reusable observation) and before any probe is
// sent, the planner may buy the inner side's quadrant counts and compare
// the remaining probe bill against switching to per-quadrant inner
// downloads joined on the device against the held outer objects.
func (a *autoState) runNLSJ(outer side, nr, ns cnt, d plan.Decision, obs plan.Observations) error {
	w := a.window
	outerObjs, done, err := a.nlsjOuterPhase(w, outer, nr, ns)
	if done || err != nil {
		return err
	}

	inner := sideS
	innerCnt := ns
	if outer == sideS {
		inner = sideR
		innerCnt = nr
	}
	if a.shouldCheckpoint(outer, outerObjs, innerCnt, d.Params, obs) {
		iq, err := a.quadrantCounts(inner, w, innerCnt)
		if err != nil {
			a.release()
			return err
		}
		a.emit(PhaseObserve, "observe/nlsj-checkpoint", w, nr.n, ns.n,
			4*a.bytesModel().Taq(), "inner quadrant densities")
		probeRem, gridRem := a.pl.NLSJRemainder(d.Params, obs, outer == sideR,
			a.outerByQuad(w, outerObjs), quadCounts(iq))
		if gridRem*a.pl.ReplanFactor() < probeRem {
			a.explainMu.Lock()
			a.explain.Replans++
			a.explain.Chosen = "grid-from-outer"
			a.explainMu.Unlock()
			a.emit(PhaseReplan, "replan/nlsj-to-grid", w, nr.n, ns.n, gridRem,
				fmt.Sprintf("probe remainder est %.0f > grid remainder est %.0f×%.2f; switching",
					probeRem, gridRem, a.pl.ReplanFactor()))
			// The NLSJ's transfer slot ends here: each grid leaf takes its
			// own, and counts the held outer objects it joins against
			// inside its own buffer-full (fetchJoin's CanHold).
			a.release()
			quads := w.Quadrants()
			err := a.fanoutSiblings(4, func(i int) error {
				return a.fetchJoin(quads[i], outer, outerObjs, iq[i], 1)
			})
			bufpool.Objects.Put(outerObjs)
			return err
		}
		a.emit(PhasePlan, "plan/nlsj-keep", w, nr.n, ns.n, probeRem,
			fmt.Sprintf("probe remainder est %.0f <= grid remainder est %.0f×%.2f; keeping NLSJ",
				probeRem, gridRem, a.pl.ReplanFactor()))
	}
	defer a.release()
	return a.nlsjProbePhase(w, outer, outerObjs)
}

// shouldCheckpoint decides whether measuring the inner side's quadrant
// densities can pay for itself: never for iceberg count-probes (each
// probe's reply is a fixed eight bytes — density cannot change the
// bill), and otherwise only when the estimated remaining probe traffic
// exceeds a multiple of the checkpoint's own aggregate-query cost, the
// Eq. (10) principle applied mid-join.
func (a *autoState) shouldCheckpoint(outer side, outerObjs []geom.Object, innerCnt cnt, prm costmodel.Params, obs plan.Observations) bool {
	if a.spec.Kind == IcebergSemi && outer == sideR && a.icebergCountable() {
		return false
	}
	if len(outerObjs) < 8 {
		return false
	}
	st := costmodel.Stats{
		W: a.window, Eps: a.spec.Eps,
		AvgAreaR: obs.AvgAreaR, AvgAreaS: obs.AvgAreaS,
	}
	outerAvg, innerAvg := obs.AvgAreaR, obs.AvgAreaS
	if outer == sideS {
		outerAvg, innerAvg = obs.AvgAreaS, obs.AvgAreaR
	}
	per := st.PerProbeMatches(innerCnt.n, outerAvg, innerAvg)
	remaining := float64(len(outerObjs)) *
		(prm.QueryBytes() + prm.TB(int(math.Ceil(per*float64(prm.BObj)))))
	checkpoint := 4 * prm.Taq()
	return remaining > 3*checkpoint
}

// outerByQuad assigns each held outer object to the quadrant of w
// nearest its center — a free, local statistic estimating where the
// remaining probes would land.
func (a *autoState) outerByQuad(w geom.Rect, objs []geom.Object) [4]int {
	quads := w.Quadrants()
	var out [4]int
	for _, o := range objs {
		c := o.Center()
		best, bestDist := 0, math.Inf(1)
		for i, q := range quads {
			if q.ContainsPoint(c) {
				best = i
				break
			}
			if d := q.DistToPoint(c); d < bestDist {
				best, bestDist = i, d
			}
		}
		out[best]++
	}
	return out
}

func quadCounts(q [4]cnt) [4]int {
	var out [4]int
	for i, c := range q {
		out[i] = c.n
	}
	return out
}

// fetchJoin is the grid-from-outer executor for one window: download the
// inner side's window and join it on the device against the held outer
// objects that can still form a pair there (the same server-side filter
// a fresh download of the outer window would apply — so the pair set is
// exactly what the abandoned probes would have produced). When the inner
// window does not fit next to the relevant outer objects, the window is
// split recursively with inner-side COUNT pruning; quadrants no held
// outer object can touch are pruned locally, for free.
func (a *autoState) fetchJoin(w geom.Rect, outer side, outerObjs []geom.Object, innerCnt cnt, depth int) error {
	inner := sideS
	if outer == sideS {
		inner = sideR
	}
	fw := a.fetchWindow(outer, w)
	rel := outerObjs[:0:0]
	for _, o := range outerObjs {
		if o.MBR.Intersects(fw) {
			rel = append(rel, o)
		}
	}
	if len(rel) == 0 {
		a.dec.pruned.Add(1)
		return nil
	}
	var err error
	if innerCnt, err = a.ensureExact(inner, w, innerCnt); err != nil {
		return err
	}
	if innerCnt.n == 0 {
		a.dec.pruned.Add(1)
		return nil
	}
	if a.env.Device.CanHold(len(rel)+innerCnt.n) || !a.splittable(w, depth) {
		a.dec.hbsj.Add(1)
		if err := a.acquire(); err != nil {
			return err
		}
		defer a.release()
		innerObjs, err := a.remote(inner).Window(a.ctx, a.fetchWindow(inner, w))
		if err != nil {
			return err
		}
		if a.observing() {
			p := a.bytesModel()
			a.emit(PhaseTransfer, "transfer/grid-inner", w, len(rel), innerCnt.n,
				p.QueryBytes()+p.TB(innerCnt.n*p.BObj), "inner window joined against held outer objects")
		}
		if outer == sideR {
			a.joinLocal(w, rel, innerObjs)
		} else {
			a.joinLocal(w, innerObjs, rel)
		}
		bufpool.Objects.Put(innerObjs)
		return nil
	}
	a.dec.repart.Add(1)
	iq, err := a.quadrantCounts(inner, w, innerCnt)
	if err != nil {
		return err
	}
	quads := w.Quadrants()
	return a.fanoutSiblings(4, func(i int) error {
		return a.fetchJoin(quads[i], outer, outerObjs, iq[i], depth+1)
	})
}
