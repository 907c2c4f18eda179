package netsim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// ErrKilled reports a request against an endpoint a chaos schedule has
// taken down. Like the injected faults of fault.go it is a transient
// transport error — retry, failover, and breaker layers treat it as such
// — and unlike ErrClosed it never means "we hung up ourselves".
var ErrKilled = errors.New("netsim: endpoint killed (chaos)")

// Switch modes.
const (
	switchAlive int32 = iota
	switchDead
	switchHung
)

// Switch gates a transport for chaos drills: a scenario schedule can
// kill the endpoint (every round trip fails instantly with ErrKilled),
// hang it (round trips block until revival or their context expires —
// the nastier failure mode, which only deadline budgets bound), sever
// the next n responses in flight, and revive it. The zero-cost alive
// path is a single atomic load, so a Switch can wrap production-shaped
// fleets without distorting latency.
//
// A Switch composes with Faulty (probabilistic faults) and sits below
// the Metered wrapper, so requests that die at a killed endpoint were
// still charged like real transmissions — exactly what a device probing
// a dead server pays.
type Switch struct {
	rt     RoundTripper
	mode   atomic.Int32
	severs atomic.Int32 // responses still to sever (one-shot each)

	mu   sync.Mutex
	wake chan struct{} // closed on revive; waited on by hung round trips
}

// NewSwitch wraps rt alive.
func NewSwitch(rt RoundTripper) *Switch {
	return &Switch{rt: rt, wake: make(chan struct{})}
}

// Kill makes every subsequent round trip fail instantly with ErrKilled.
func (s *Switch) Kill() { s.set(switchDead) }

// Hang makes every subsequent round trip block until Revive or its
// context gives up — a wedged server, the failure mode flat timeouts
// stack badly against.
func (s *Switch) Hang() { s.set(switchHung) }

// Revive restores normal service and wakes every hung round trip.
func (s *Switch) Revive() {
	s.mu.Lock()
	if s.mode.Swap(switchAlive) == switchHung {
		close(s.wake)
		s.wake = make(chan struct{})
	}
	s.mu.Unlock()
}

// Sever arranges for the next n round trips to lose their response after
// the server has served it (ErrInjectedSever — the paid-for-but-lost
// reply of fault.go), modeling a connection cut mid-flight.
func (s *Switch) Sever(n int) { s.severs.Add(int32(n)) }

func (s *Switch) set(mode int32) {
	s.mu.Lock()
	if s.mode.Swap(mode) == switchHung && mode != switchHung {
		close(s.wake)
		s.wake = make(chan struct{})
	}
	s.mu.Unlock()
}

// RoundTrip implements RoundTripper.
func (s *Switch) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	for {
		switch s.mode.Load() {
		case switchDead:
			return nil, ErrKilled
		case switchHung:
			s.mu.Lock()
			wake := s.wake
			// Re-check under mu: Revive may have swapped the channel
			// between the mode load and here.
			if s.mode.Load() != switchHung {
				s.mu.Unlock()
				continue
			}
			s.mu.Unlock()
			select {
			case <-wake:
				continue // revived (or re-moded): re-evaluate
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if n := s.severs.Load(); n > 0 && s.severs.CompareAndSwap(n, n-1) {
			resp, err := s.rt.RoundTrip(ctx, req)
			if err != nil {
				return nil, err
			}
			if !bufpool.SameBacking(req, resp) {
				bufpool.Put(resp)
			}
			return nil, ErrInjectedSever
		}
		return s.rt.RoundTrip(ctx, req)
	}
}

// Close implements RoundTripper, waking any hung round trips first so
// they fail with their context rather than blocking shutdown.
func (s *Switch) Close() error {
	s.Revive()
	return s.rt.Close()
}
