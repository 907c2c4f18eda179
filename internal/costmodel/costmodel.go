// Package costmodel implements the transfer-cost model of §3.1 of the
// paper: equations (1)-(8) estimating the bytes (and monetary cost) of
// executing each candidate physical operator on a window, given only the
// object counts |Rw| and |Sw| obtained from COUNT queries.
//
// The model is used by the join algorithms to *decide*; the bytes the
// experiments *report* are metered on the transport (package netsim) and
// are independent of these estimates.
package costmodel

import (
	"math"

	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Params bundles the constants of the model.
type Params struct {
	// Link provides MTU and BH for Eq. (1).
	Link netsim.LinkConfig
	// BQ is the size of a query frame in bytes.
	BQ int
	// BA is the size of an aggregate answer in bytes.
	BA int
	// BObj is the size of one object record in bytes.
	BObj int
	// PriceR and PriceS are the per-byte tariffs bR and bS.
	PriceR, PriceS float64
	// Buffer is the device's object capacity; HBSJ is infeasible (cost
	// +Inf) when |Rw|+|Sw| exceeds it.
	Buffer int
	// Bucket selects the bucket-query variants (Eq. 6) for NLSJ costs.
	Bucket bool
}

// The record sizes of §3.1, derived from the wire format in exactly one
// place so a protocol change cannot desynchronize the model from the
// bytes the meter will actually charge. The compile-time pins below fail
// the build when the wire layout shifts: that is deliberate — re-derive
// the golden byte tables and update the pins in the same change, never
// let the model drift silently.
const (
	// BQWire is the size of a window/count query frame: one type byte
	// plus an encoded rectangle.
	BQWire = 1 + wire.RectSize
	// BAWire is the size of an aggregate answer record.
	BAWire = wire.CountSize
	// BObjWire is the size of one object record (the paper's BObj = 20).
	BObjWire = wire.ObjectSize
)

// Compile-time guards: each pair underflows (negative untyped constant
// converted to uint) unless the wire constant still has the pinned
// value the cost model and golden tables were calibrated against.
const (
	_ uint = BQWire - 17
	_ uint = 17 - BQWire
	_ uint = BAWire - 8
	_ uint = 8 - BAWire
	_ uint = BObjWire - 20
	_ uint = 20 - BObjWire
)

// Default returns the parameters used throughout the experiments: WiFi
// link, 20-byte objects, equal unit tariffs, and an 800-object buffer.
func Default() Params {
	return Params{
		Link:   netsim.DefaultLink(),
		BQ:     BQWire,
		BA:     BAWire,
		BObj:   BObjWire,
		PriceR: 1,
		PriceS: 1,
		Buffer: 800,
	}
}

// TB is Eq. (1): the wire bytes for a payload of b bytes.
func (p Params) TB(b int) float64 { return float64(p.Link.TB(b)) }

// BH returns the per-packet header size.
func (p Params) BH() int { return p.Link.HeaderBytes }

// QueryBytes is the uplink cost of posting one query: BH + BQ (§3.1).
func (p Params) QueryBytes() float64 { return float64(p.BH() + p.BQ) }

// Taq is Eq. (7): the bytes of sending one aggregate query and receiving
// its one-record answer.
func (p Params) Taq() float64 {
	return float64(p.BH()+p.BQ) + float64(p.BH()+p.BA)
}

// Stats carries the per-window statistics the model consumes.
type Stats struct {
	// W is the window under consideration.
	W geom.Rect
	// NR and NS are |Rw| and |Sw|.
	NR, NS int
	// Eps is the distance-join threshold; 0 for intersection joins.
	Eps float64
	// AvgAreaR and AvgAreaS are mean object-MBR areas (0 for points),
	// used to widen the per-probe selectivity for polygon data.
	AvgAreaR, AvgAreaS float64
	// CountProbeR marks iceberg semi-joins whose R-outer NLSJ probes are
	// aggregate RANGE-COUNT queries: each probe's reply is one BA-byte
	// count instead of the matching objects, which changes C2 radically.
	CountProbeR bool
	// DensityFactor inflates the expected per-probe result beyond the
	// uniformity assumption of Eq. (3): the online planner sets it to the
	// measured peak-to-mean density ratio (from quadrant counts or
	// per-shard INFO skew) so NLSJ estimates stop under-pricing probes
	// that land in clusters. 0 (or 1) keeps the paper's uniform estimate.
	DensityFactor float64
}

// probeArea estimates the area of one NLSJ probe's qualifying region
// around an outer object: π ε² for point data (as in Eq. 3), widened by
// the average inner-object extent for rectangle data (Minkowski sum).
func (st Stats) probeArea(outerAvgArea, innerAvgArea float64) float64 {
	side := 0.0
	if outerAvgArea > 0 {
		side += math.Sqrt(outerAvgArea)
	}
	if innerAvgArea > 0 {
		side += math.Sqrt(innerAvgArea)
	}
	if st.Eps > 0 {
		a := math.Pi * st.Eps * st.Eps
		if side > 0 {
			// Expanded-rectangle probe: (side+2ε)² approximates the
			// Minkowski region of a square of the average side.
			return (side + 2*st.Eps) * (side + 2*st.Eps)
		}
		return a
	}
	return side * side
}

// expectedProbeResult estimates the number of inner objects matched by
// one outer probe, assuming uniformity inside w (as Eq. 3 does).
func (st Stats) expectedProbeResult(inner int, outerAvgArea, innerAvgArea float64) float64 {
	area := st.W.Area()
	if area <= 0 {
		if inner > 0 {
			return float64(inner)
		}
		return 0
	}
	exp := st.probeArea(outerAvgArea, innerAvgArea) / area * float64(inner)
	if st.DensityFactor > 1 {
		exp *= st.DensityFactor
	}
	if exp > float64(inner) {
		exp = float64(inner)
	}
	return exp
}

// PerProbeMatches is the exported form of expectedProbeResult for the
// online planner (package plan): the expected number of inner objects
// matched by one outer probe, under uniformity inside st.W scaled by
// st.DensityFactor.
func (st Stats) PerProbeMatches(inner int, outerAvgArea, innerAvgArea float64) float64 {
	return st.expectedProbeResult(inner, outerAvgArea, innerAvgArea)
}

// Infeasible is the cost of operators that cannot run (e.g. HBSJ without
// memory).
var Infeasible = math.Inf(1)

// C1 is Eq. (2): download both windows and join on the device (HBSJ).
// Returns +Inf when the buffer cannot hold |Rw|+|Sw| objects.
func (p Params) C1(st Stats) float64 {
	if p.Buffer > 0 && st.NR+st.NS > p.Buffer {
		return Infeasible
	}
	q := (p.PriceR + p.PriceS) * p.QueryBytes()
	return q +
		p.PriceR*p.TB(st.NR*p.BObj) +
		p.PriceS*p.TB(st.NS*p.BObj)
}

// C2 estimates NLSJ with R as the outer relation: download Rw, probe S
// with one ε-range query per object (Eq. 4), or with bucket submission
// (Eq. 6) when p.Bucket is set. For iceberg count probes
// (Stats.CountProbeR) each probe's reply is one aggregate answer.
func (p Params) C2(st Stats) float64 {
	return p.nlsj(st, st.NR, st.NS, p.PriceR, p.PriceS, st.AvgAreaR, st.AvgAreaS, st.CountProbeR)
}

// C3 estimates NLSJ with S as the outer relation (the symmetric case of
// Eq. 4/6).
func (p Params) C3(st Stats) float64 {
	return p.nlsj(st, st.NS, st.NR, p.PriceS, p.PriceR, st.AvgAreaS, st.AvgAreaR, false)
}

// nlsj computes the NLSJ cost with `outer` objects downloaded from the
// outer site (tariff priceOuter) and probes answered by the inner site
// (tariff priceInner).
func (p Params) nlsj(st Stats, outer, inner int, priceOuter, priceInner, outerAvg, innerAvg float64, countProbe bool) float64 {
	perProbe := st.expectedProbeResult(inner, outerAvg, innerAvg)
	probeReply := int(math.Ceil(perProbe * float64(p.BObj)))
	if countProbe {
		probeReply = p.BA
	}
	if !p.Bucket {
		// Eq. (4): initial window query + outer download, then one
		// ε-range query and its result per outer object (Eq. 3).
		tdq := p.QueryBytes() + p.TB(probeReply)
		return priceOuter*p.QueryBytes() +
			priceOuter*p.TB(outer*p.BObj) +
			priceInner*float64(outer)*tdq
	}
	// Eq. (6): the outer objects are downloaded from the outer site and
	// uploaded to the inner site as one bucket; results return in one
	// stream with a per-probe record (Eq. 5).
	tdq := p.TB((probeReply + p.BObj) * outer)
	return (priceOuter+priceInner)*p.QueryBytes() +
		(priceOuter+priceInner)*p.TB(outer*p.BObj) +
		priceInner*tdq
}

// C4Uniform is MobiJoin's estimate of Eq. (8): the cost of repartitioning
// w into a k×k grid (2k² aggregate queries) and then processing every
// subwindow, *assuming the data are uniform inside w*. Under that
// assumption each subwindow holds NR/k² and NS/k² objects; the recursion
// bottoms out when a subwindow's best non-partitioning operator is
// cheaper than partitioning further, exactly as the paper describes the
// heuristic (§3.2). This deliberately reproduces MobiJoin's blind spot:
// it never anticipates pruning, nor skew inside w.
func (p Params) C4Uniform(st Stats, k int) float64 {
	if k < 2 {
		k = 2
	}
	agg := 2 * float64(k*k) * p.Taq() * avgPrice(p)
	sub := Stats{
		W:        st.W.Quadrant(0), // representative cell of the k×k grid
		NR:       st.NR / (k * k),
		NS:       st.NS / (k * k),
		Eps:      st.Eps,
		AvgAreaR: st.AvgAreaR,
		AvgAreaS: st.AvgAreaS,
	}
	if k != 2 {
		// Generalize the representative cell to a k×k grid cell.
		cells := st.W.Grid(k)
		sub.W = cells[0]
	}
	if sub.NR == 0 || sub.NS == 0 {
		// Uniform split with empty cells: only the aggregate queries.
		return agg
	}
	best := math.Min(p.C1(sub), math.Min(p.C2(sub), p.C3(sub)))
	deeper := p.C4Uniform(sub, k)
	if deeper < best {
		best = deeper
	}
	return agg + float64(k*k)*best
}

func avgPrice(p Params) float64 { return (p.PriceR + p.PriceS) / 2 }
