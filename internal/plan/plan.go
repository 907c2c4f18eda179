// Package plan is the online cost-based planner: it scores every
// candidate physical operator for a join window with the §3.1 cost model
// (internal/costmodel), hydrated from *live* observations instead of
// static defaults — the configuration of each metered link (the
// endpoint's Link), retry rates folded into effective
// per-byte tariffs, per-shard skew from INFO, and measured quadrant
// counts sharpening the uniformity assumption of Eq. (3).
//
// The planner is deliberately decoupled from the execution engine
// (internal/core imports this package, never the reverse): it consumes a
// plain Observations value and returns a scored Decision. The engine's
// Auto algorithm turns observation phases into Observations, commits the
// cheapest candidate, and calls back between phases (NLSJRemainder) to
// decide mid-join re-plans.
package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/rtree"
	"repro/internal/wire"
)

// Op identifies one candidate physical operator.
type Op int

// Candidate operators.
const (
	// OpHBSJ downloads both windows and joins on the device (Eq. 2).
	OpHBSJ Op = iota
	// OpNLSJR is the nested-loop join with R as the outer relation (Eq. 4/6).
	OpNLSJR
	// OpNLSJS is the nested-loop join with S as the outer relation.
	OpNLSJS
	// OpGrid splits the window into its quadrants once and applies the
	// best physical operator per surviving quadrant (COUNT pruning).
	OpGrid
	// OpPartition is adaptive recursive partitioning driven by density
	// bitmaps (SrJoin's strategy, §4.2), seeded with the measured
	// quadrants.
	OpPartition
	// OpSemiJoin is the cooperative index-publishing semi-join (§5.3).
	OpSemiJoin
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpHBSJ:
		return "hbsj"
	case OpNLSJR:
		return "nlsj-outer-R"
	case OpNLSJS:
		return "nlsj-outer-S"
	case OpGrid:
		return "grid"
	case OpPartition:
		return "partition"
	case OpSemiJoin:
		return "semijoin"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// LinkObs is the live state of one metered link, assembled from the
// endpoint's link configuration and its meter.
type LinkObs struct {
	// Config is the link's current physical parameters (MTU, BH) — fed to
	// Eq. (1) instead of a static default.
	Config netsim.LinkConfig
	// Price is the advertised per-byte tariff.
	Price float64
	// Queries and Retries are the endpoint's cumulative query and
	// re-issued-attempt counters; their ratio inflates the effective
	// tariff (a retried request pays for its failed attempts too).
	Queries, Retries int64
}

// effectivePrice is the per-useful-byte tariff after folding in the
// link's measured retry rate: re-issued attempts are metered, so a link
// retrying r% of its queries costs (1+r) per byte that helps the join.
func (l LinkObs) effectivePrice() float64 {
	price := l.Price
	if price <= 0 {
		price = 1
	}
	if l.Queries > 0 && l.Retries > 0 {
		rate := float64(l.Retries) / float64(l.Queries)
		if rate > 3 {
			rate = 3 // clamp: a pathological link should not zero out a candidate
		}
		price *= 1 + rate
	}
	return price
}

// Observations is everything the planner knows about a join when a plan
// (or re-plan) is requested. Zero-valued optional fields mean "not
// measured".
type Observations struct {
	// Window is the effective query window.
	Window geom.Rect
	// NR and NS are the window's measured cardinalities.
	NR, NS int
	// Eps is the distance threshold (0 for intersection).
	Eps float64
	// Iceberg marks iceberg semantics (no semi-join candidate).
	Iceberg bool
	// CountProbeR marks iceberg runs whose R-outer probes are aggregate
	// counts (Eq. 7 replies instead of object streams).
	CountProbeR bool
	// AvgAreaR and AvgAreaS are mean object-MBR areas (0 for points).
	AvgAreaR, AvgAreaS float64
	// TreeHeightR and TreeHeightS are the advertised R-tree heights (0 =
	// index not published; disables the semi-join candidate).
	TreeHeightR, TreeHeightS int32
	// WholeSpace reports that the window covers both datasets (required
	// by the semi-join candidate).
	WholeSpace bool
	// Buffer is the device capacity in objects.
	Buffer int
	// Bucket enables the bucket-submission NLSJ variants (Eq. 6).
	Bucket bool
	// LinkR and LinkS are the live link observations.
	LinkR, LinkS LinkObs
	// QuadR and QuadS are measured quadrant counts; nil when the observe
	// phase has not (yet) paid for them.
	QuadR, QuadS *[4]int
	// SkewR and SkewS are peak-to-mean per-shard density ratios from the
	// routers' INFO metadata (1 = evenly spread or unsharded). A free
	// density prior: it costs no queries, the INFO round trips already
	// happened.
	SkewR, SkewS float64
}

// quadOf returns the side's quadrant counts, estimating a uniform split
// when they were not measured.
func quadOf(q *[4]int, n int) [4]int {
	if q != nil {
		return *q
	}
	s := n / 4
	return [4]int{s, s, s, n - 3*s}
}

// densityFactor is the measured peak-to-mean density ratio of one side:
// from quadrant counts when available, else the per-shard skew prior.
func densityFactor(q *[4]int, n int, skew float64) float64 {
	if q != nil && n > 0 {
		maxq := 0
		for _, v := range q {
			if v > maxq {
				maxq = v
			}
		}
		f := float64(maxq) * 4 / float64(n)
		if f < 1 {
			f = 1
		}
		return f
	}
	if skew > 1 {
		return skew
	}
	return 1
}

// Candidate is one scored operator.
type Candidate struct {
	Op Op
	// Cost is the decision score: effective-tariff-priced wire bytes.
	Cost float64
	// Bytes is the unpriced wire-byte estimate (Eq. 1 totals).
	Bytes float64
	// Queries is the estimated uplink request count; it breaks cost ties.
	Queries float64
	// Feasible reports whether the operator can run at all here.
	Feasible bool
	// Note explains the estimate (assumptions, density factor applied).
	Note string
}

// Decision is the outcome of one Choose call.
type Decision struct {
	// Chosen is the committed candidate (cheapest feasible).
	Chosen Candidate
	// Candidates is the full scored table, cheapest feasible first.
	Candidates []Candidate
	// Params is the hydrated cost model the scores were computed with.
	Params costmodel.Params
	// DensityR and DensityS are the density factors applied per side.
	DensityR, DensityS float64
}

// Planner scores candidates by the paper's objective, transferred bytes
// priced by tariff. The zero value is ready to use.
type Planner struct {
	// CommitMargin is the factor by which the cheapest candidate must
	// undercut the best partition-family alternative for the engine to
	// commit without paying for quadrant statistics first. 0 means 1.5.
	CommitMargin float64
}

// replanMargin is the factor by which a mid-join alternative must
// undercut the committed plan's remaining cost before the engine
// switches operators.
const replanMargin = 1.3

func (p Planner) commitMargin() float64 {
	if p.CommitMargin <= 0 {
		return 1.5
	}
	return p.CommitMargin
}

// ReplanFactor returns the re-plan margin.
func (p Planner) ReplanFactor() float64 { return replanMargin }

// Hydrate assembles the cost-model parameters from live observations:
// the measured link configuration, wire-derived record sizes, and
// retry-rate-inflated effective tariffs.
func (p Planner) Hydrate(obs Observations) costmodel.Params {
	link := obs.LinkR.Config
	if link.MTU <= link.HeaderBytes || link.HeaderBytes <= 0 {
		link = obs.LinkS.Config
	}
	if link.MTU <= link.HeaderBytes || link.HeaderBytes <= 0 {
		link = netsim.DefaultLink()
	}
	return costmodel.Params{
		Link:   link,
		BQ:     costmodel.BQWire,
		BA:     costmodel.BAWire,
		BObj:   costmodel.BObjWire,
		PriceR: obs.LinkR.effectivePrice(),
		PriceS: obs.LinkS.effectivePrice(),
		Buffer: obs.Buffer,
		Bucket: obs.Bucket,
	}
}

// baseStats builds the model statistics for the whole window.
func baseStats(obs Observations) costmodel.Stats {
	return costmodel.Stats{
		W:           obs.Window,
		NR:          obs.NR,
		NS:          obs.NS,
		Eps:         obs.Eps,
		AvgAreaR:    obs.AvgAreaR,
		AvgAreaS:    obs.AvgAreaS,
		CountProbeR: obs.CountProbeR,
	}
}

// Choose scores every applicable candidate under the hydrated model and
// returns the cheapest feasible one. With measured quadrant counts the
// partition-family candidates (OpGrid, OpPartition) are scored from the
// real distribution; without them they fall back to the uniformity
// assumption, exactly like MobiJoin's Eq. (8).
func (p Planner) Choose(obs Observations) Decision {
	prm := p.Hydrate(obs)
	unit := prm
	unit.PriceR, unit.PriceS = 1, 1

	dR := densityFactor(obs.QuadR, obs.NR, obs.SkewR)
	dS := densityFactor(obs.QuadS, obs.NS, obs.SkewS)

	base := baseStats(obs)
	// NLSJ inner-side densities: a probe's reply grows with the *inner*
	// dataset's clustering, so C2 (inner S) takes dS and C3 takes dR.
	stC2 := base
	stC2.DensityFactor = dS
	stC3 := base
	stC3.DensityFactor = dR

	var cands []Candidate
	add := func(op Op, cost, bytes, queries float64, note string) {
		cands = append(cands, Candidate{
			Op: op, Cost: cost, Bytes: bytes, Queries: queries,
			Feasible: !math.IsInf(cost, 1), Note: note,
		})
	}

	add(OpHBSJ, prm.C1(base), unit.C1(base), 2, "download both, join on device")
	add(OpNLSJR, prm.C2(stC2), unit.C2(stC2), nlsjQueries(obs, obs.NR),
		fmt.Sprintf("outer R, inner density ×%.1f", dS))
	add(OpNLSJS, prm.C3(stC3), unit.C3(stC3), nlsjQueries(obs, obs.NS),
		fmt.Sprintf("outer S, inner density ×%.1f", dR))

	qr, qs := quadOf(obs.QuadR, obs.NR), quadOf(obs.QuadS, obs.NS)
	measured := obs.QuadR != nil && obs.QuadS != nil
	gridNote, partNote := "uniform split assumed", "uniform split assumed"
	if measured {
		gridNote, partNote = "measured quadrants", "measured quadrants"
	}
	gamma := colocation(qr, qs, obs.NR, obs.NS, measured)
	gc, gb, gq := gridEstimate(prm, unit, obs, qr, qs, measured)
	add(OpGrid, gc, gb, gq, gridNote)
	pc, pb, pq := partitionEstimate(prm, unit, obs, qr, qs, measured, dR, dS, gamma)
	if measured {
		partNote = fmt.Sprintf("measured quadrants, colocation %.2f", gamma)
	}
	add(OpPartition, pc, pb, pq, partNote)

	if obs.TreeHeightR > 0 && obs.TreeHeightS > 0 && obs.WholeSpace && !obs.Iceberg {
		sc, sb := semiJoinEstimate(prm, unit, obs)
		add(OpSemiJoin, sc, sb, 3, "index-publishing relay")
	}

	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Feasible != cands[j].Feasible {
			return cands[i].Feasible
		}
		if cands[i].Cost != cands[j].Cost {
			return cands[i].Cost < cands[j].Cost
		}
		// Equal estimated cost: fewer round trips wins — on a half-duplex
		// link every query is dead air the estimate does not price.
		return cands[i].Queries < cands[j].Queries
	})
	return Decision{
		Chosen:     cands[0],
		Candidates: cands,
		Params:     prm,
		DensityR:   dR,
		DensityS:   dS,
	}
}

// CommitsWithoutStats reports whether the decision's winner undercuts
// every partition-family alternative by the commit margin: when it does,
// measuring quadrant statistics cannot plausibly change the choice and
// the engine commits immediately (Eq. 10's principle — statistics must
// cost less than they can save).
func (p Planner) CommitsWithoutStats(d Decision) bool {
	if d.Chosen.Op == OpGrid || d.Chosen.Op == OpPartition {
		return false
	}
	margin := p.commitMargin()
	for _, c := range d.Candidates {
		if !c.Feasible || (c.Op != OpGrid && c.Op != OpPartition) {
			continue
		}
		if d.Chosen.Cost*margin > c.Cost {
			return false
		}
	}
	return true
}

// nlsjQueries estimates the uplink requests of an NLSJ with the given
// outer cardinality: the outer window query plus one probe per outer
// object, or per bucket of Buffer objects under bucket submission.
func nlsjQueries(obs Observations, outer int) float64 {
	if obs.Bucket && obs.Buffer > 0 {
		return 1 + math.Ceil(float64(outer)/float64(obs.Buffer))
	}
	return 1 + float64(outer)
}

// subStats builds per-quadrant statistics assuming uniformity inside the
// quadrant (the measured counts already capture the coarse skew).
func subStats(obs Observations, w geom.Rect, nr, ns int) costmodel.Stats {
	return costmodel.Stats{
		W: w, NR: nr, NS: ns, Eps: obs.Eps,
		AvgAreaR: obs.AvgAreaR, AvgAreaS: obs.AvgAreaS,
		CountProbeR: obs.CountProbeR,
	}
}

// bestPhysical returns the cheapest operator cost for a leaf window,
// splitting recursively (with the aggregate-query overhead of the split)
// when HBSJ does not fit and NLSJ is dearer than partitioning deeper.
func bestPhysical(prm costmodel.Params, obs Observations, st costmodel.Stats, depth int) float64 {
	c1 := prm.C1(st)
	c2 := prm.C2(st)
	c3 := prm.C3(st)
	best := math.Min(c1, math.Min(c2, c3))
	if depth <= 0 || st.NR+st.NS == 0 {
		return best
	}
	// One more split: eight aggregate queries, four uniform subwindows.
	sub := subStats(obs, st.W.Quadrant(0), st.NR/4, st.NS/4)
	split := 8*prm.Taq()*avg(prm) + 4*bestPhysical(prm, obs, sub, depth-1)
	return math.Min(best, split)
}

func avg(prm costmodel.Params) float64 { return (prm.PriceR + prm.PriceS) / 2 }

// gridEstimate scores OpGrid: one level of quadrant pruning, then the
// best physical operator per surviving quadrant. With measured quadrant
// counts the aggregate queries are already paid for (sunk by the observe
// phase); under the uniform assumption they are charged.
func gridEstimate(prm, unit costmodel.Params, obs Observations, qr, qs [4]int, measured bool) (cost, bytes, queries float64) {
	quads := obs.Window.Quadrants()
	if !measured {
		agg := 8 * prm.Taq() * avg(prm)
		cost += agg
		bytes += 8 * unit.Taq()
		queries += 8
	}
	for i, q := range quads {
		if qr[i] == 0 || qs[i] == 0 {
			continue
		}
		st := subStats(obs, q, qr[i], qs[i])
		cost += bestPhysical(prm, obs, st, 3)
		bytes += bestPhysical(unit, obs, st, 3)
		queries += 2 + float64(min(qr[i], qs[i]))/4
	}
	return cost, bytes, queries
}

// colocation measures how much the two sides' mass coincides across the
// measured quadrants: 4·Σ qr[i]·qs[i] / (NR·NS). Uniform or independent
// distributions score ≈1, perfectly co-located clusters approach 4, and
// clusters sitting in different quadrants fall below 1 — the regime where
// recursive partitioning prunes almost everything, because one side's
// dense cells are the other side's empty ones.
func colocation(qr, qs [4]int, nr, ns int, measured bool) float64 {
	if !measured || nr == 0 || ns == 0 {
		return 1
	}
	var dot float64
	for i := range qr {
		dot += float64(qr[i]) * float64(qs[i])
	}
	return 4 * dot / (float64(nr) * float64(ns))
}

// skewSplit distributes n over four children under density factor d
// (peak-to-mean): the densest child takes d·n/4 and the rest share the
// remainder — the self-similarity assumption that clustered data stays
// clustered at finer scales.
func skewSplit(n int, d float64) [4]int {
	peak := int(math.Round(d * float64(n) / 4))
	if peak > n {
		peak = n
	}
	rest := n - peak
	return [4]int{peak, rest / 3, rest / 3, rest - 2*(rest/3)}
}

// recPartition estimates adaptive recursive partitioning of one window:
// each level either applies the cheapest physical operator or pays eight
// aggregate queries and recurses into children whose counts repeat the
// measured per-side density factors. The measured colocation decides
// whether the dense children of the two sides land in the same cell
// (co-located clusters: little pruning) or in different cells
// (independent clusters: the dense-R child meets a thin S slice and the
// recursion prunes hard — the effect that makes SrJoin win on skewed
// workloads).
func recPartition(prm costmodel.Params, obs Observations, st costmodel.Stats, dR, dS, gamma float64, depth int) float64 {
	best := math.Min(prm.C1(st), math.Min(prm.C2(st), prm.C3(st)))
	if depth <= 0 || st.NR == 0 || st.NS == 0 {
		return best
	}
	split := 8 * prm.Taq() * avg(prm)
	nrs := skewSplit(st.NR, dR)
	nss := skewSplit(st.NS, dS)
	if gamma < 1 {
		nss[0], nss[1] = nss[1], nss[0] // dense S lands where R thins out
	}
	for j := range nrs {
		if nrs[j] == 0 || nss[j] == 0 {
			continue // pruned for free by the aggregate counts
		}
		split += recPartition(prm, obs, subStats(obs, st.W.Quadrant(j), nrs[j], nss[j]), dR, dS, gamma, depth-1)
		if split >= best {
			break // the split alternative already lost
		}
	}
	return math.Min(best, split)
}

// partitionEstimate scores OpPartition: similarity-driven adaptive
// recursion (SrJoin, Fig. 5) over the measured level-one quadrants, with
// deeper levels extrapolated by recPartition's self-similar skew model.
func partitionEstimate(prm, unit costmodel.Params, obs Observations, qr, qs [4]int, measured bool, dR, dS, gamma float64) (cost, bytes, queries float64) {
	if !measured {
		cost += 8 * prm.Taq() * avg(prm)
		bytes += 8 * unit.Taq()
		queries += 8
	}
	quads := obs.Window.Quadrants()
	for i, q := range quads {
		if qr[i] == 0 || qs[i] == 0 {
			continue
		}
		st := subStats(obs, q, qr[i], qs[i])
		cost += recPartition(prm, obs, st, dR, dS, gamma, 5)
		bytes += recPartition(unit, obs, st, dR, dS, gamma, 5)
		queries += 4
	}
	return cost, bytes, queries
}

// semiJoinEstimate scores OpSemiJoin: relay one R-tree level of the
// larger (source) dataset to the smaller (target), relay the matched
// target objects back, download the pairs. Conservatively assumes every
// target object matches some source MBR.
func semiJoinEstimate(prm, unit costmodel.Params, obs Observations) (cost, bytes float64) {
	srcN, tgtN := obs.NS, obs.NR
	priceSrc, priceTgt := prm.PriceS, prm.PriceR
	if obs.NR > obs.NS {
		srcN, tgtN = obs.NR, obs.NS
		priceSrc, priceTgt = prm.PriceR, prm.PriceS
	}
	mbrs := (srcN + rtree.MaxEntries - 1) / rtree.MaxEntries
	st := baseStats(obs)
	expPairs := st.PerProbeMatches(tgtN, obs.AvgAreaR, obs.AvgAreaS) * float64(srcN)
	if lim := float64(srcN) * float64(tgtN); expPairs > lim {
		expPairs = lim
	}
	est := func(p costmodel.Params, pSrc, pTgt float64) float64 {
		return pSrc*(p.QueryBytes()+p.TB(mbrs*wire.RectSize)) + // level download
			pTgt*(p.TB(mbrs*wire.RectSize)+p.TB(tgtN*p.BObj)) + // MBR match relay
			pSrc*(p.TB(tgtN*p.BObj)+p.TB(int(expPairs)*wire.PairSize)) // upload join
	}
	return est(prm, priceSrc, priceTgt), est(unit, 1, 1)
}

// NLSJRemainder is the mid-join checkpoint of a committed NLSJ: with the
// outer window already downloaded (sunk) and the inner side's quadrant
// counts just measured, it estimates the bytes still to pay on each of
// two futures — finishing the probe phase versus switching to
// per-quadrant inner-window downloads joined against the outer objects
// already on the device. outerByQuad counts the outer objects whose
// probe region touches each quadrant (computed locally, no traffic);
// innerQuad are the measured inner counts. outerR reports whether the
// outer side is R.
func (p Planner) NLSJRemainder(prm costmodel.Params, obs Observations, outerR bool, outerByQuad, innerQuad [4]int) (probeCost, gridCost float64) {
	priceInner := prm.PriceS
	outerAvg, innerAvg := obs.AvgAreaR, obs.AvgAreaS
	if !outerR {
		priceInner = prm.PriceR
		outerAvg, innerAvg = obs.AvgAreaS, obs.AvgAreaR
	}
	quads := obs.Window.Quadrants()
	for i, q := range quads {
		inner, outer := innerQuad[i], outerByQuad[i]
		if outer == 0 {
			continue // no probes land here; the grid future prunes it free
		}
		st := costmodel.Stats{
			W: q, Eps: obs.Eps,
			AvgAreaR: obs.AvgAreaR, AvgAreaS: obs.AvgAreaS,
			CountProbeR: obs.CountProbeR,
		}
		per := st.PerProbeMatches(inner, outerAvg, innerAvg)
		reply := prm.TB(int(math.Ceil(per * float64(prm.BObj))))
		if obs.CountProbeR && outerR {
			reply = prm.TB(prm.BA)
		}
		probeCost += priceInner * float64(outer) * (prm.QueryBytes() + reply)
		if inner == 0 {
			continue // grid future downloads nothing here either
		}
		fetch := priceInner * (prm.QueryBytes() + prm.TB(inner*prm.BObj))
		if obs.Buffer > 0 && inner > obs.Buffer {
			// The quadrant would need further splitting before it fits
			// next to the outer objects: charge one level of counts.
			fetch += 4 * prm.Taq() * priceInner
		}
		gridCost += fetch
	}
	return probeCost, gridCost
}
