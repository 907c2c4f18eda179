package netsim

import (
	"math"
	"sync/atomic"
	"time"
)

// LinkStats is a lock-free observer of one metered link's live transport
// behaviour: an exponentially weighted moving average of measured
// round-trip times plus a sample counter. Each Meter owns one, fed by
// its Metered connections: next to the *bytes* the Meter accounts
// exactly, it keeps the *timing* signal the online planner consumes
// (package plan): measured RTT distinguishes a LAN-fast link from a
// high-latency cellular one even when both charge identical Eq. (1)
// byte totals.
//
// All state is a pair of atomics updated by compare-and-swap, so any
// number of concurrent round trips can observe without contention and
// readers never block a writer. The EWMA is deliberately coarse (α =
// 1/8, the TCP SRTT constant): the planner needs "sub-millisecond vs
// hundreds of milliseconds", not a percentile-exact distribution — the
// replica layer's LatencyTracker keeps serving that need for hedging.
type LinkStats struct {
	// ewmaNanos holds the current SRTT estimate as float64 bits; zero
	// means "no sample yet".
	ewmaNanos atomic.Uint64
	samples   atomic.Int64
}

// ewmaAlpha is the smoothing factor of the SRTT estimate (TCP's 1/8).
const ewmaAlpha = 0.125

// ObserveRTT folds one measured round-trip duration into the EWMA.
func (s *LinkStats) ObserveRTT(d time.Duration) {
	if d < 0 {
		return
	}
	v := float64(d.Nanoseconds())
	for {
		old := s.ewmaNanos.Load()
		var next float64
		if old == 0 {
			next = v
		} else {
			cur := math.Float64frombits(old)
			next = cur + ewmaAlpha*(v-cur)
		}
		if s.ewmaNanos.CompareAndSwap(old, math.Float64bits(next)) {
			s.samples.Add(1)
			return
		}
	}
}

// RTT returns the current smoothed round-trip estimate (0 before the
// first sample).
func (s *LinkStats) RTT() time.Duration {
	bits := s.ewmaNanos.Load()
	if bits == 0 {
		return 0
	}
	return time.Duration(math.Float64frombits(bits))
}

// Samples returns how many round trips have been observed.
func (s *LinkStats) Samples() int64 { return s.samples.Load() }

// LinkStats returns the link's live observation: the parameters the
// meter charges against plus the RTT EWMA its Metered connections feed.
func (m *Meter) LinkStats() LinkSnapshot {
	return LinkSnapshot{Config: m.link, RTT: m.rtt.RTT(), Samples: m.rtt.Samples()}
}

// LinkSnapshot is one endpoint's live link observation, as consumed by
// the online planner: the physical link parameters the Meter charges
// against (Eq. 1), the measured RTT EWMA, and the sample count that
// qualifies it. Endpoints aggregating several links (shard routers,
// replica sets) report a sample-weighted merge.
type LinkSnapshot struct {
	// Config is the link's Eq. (1) parameters (MTU, header bytes, and
	// the simulated base RTT, when any).
	Config LinkConfig
	// RTT is the measured round-trip EWMA (0 = never measured).
	RTT time.Duration
	// Samples counts the round trips behind RTT.
	Samples int64
}

// Merge folds another snapshot into s, weighting the RTT estimates by
// their sample counts and keeping s's link config (aggregates are
// assumed homogeneous; the first link's parameters stand for the set).
func (s LinkSnapshot) Merge(o LinkSnapshot) LinkSnapshot {
	if s.Config == (LinkConfig{}) {
		s.Config = o.Config
	}
	total := s.Samples + o.Samples
	if total > 0 {
		s.RTT = time.Duration(
			(float64(s.RTT)*float64(s.Samples) + float64(o.RTT)*float64(o.Samples)) / float64(total))
	}
	s.Samples = total
	return s
}
