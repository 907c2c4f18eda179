// Package netsim models the metered wireless link between the mobile
// device and the dataset servers.
//
// The paper's cost metric is the number of transferred bytes including
// TCP/IP packetization overhead (Eq. 1):
//
//	TB(B) = B + BH * ceil(B / (MTU - BH))
//
// where BH is the per-packet header size (40 bytes for TCP/IP) and MTU the
// maximum transmission unit of the physical layer (1500 for Ethernet/WiFi,
// 576 for dial-up). Every frame that crosses a transport in this package
// is charged according to this formula through a Meter; experiment results
// report metered totals, never estimates.
//
// Two transports implement the same RoundTripper interface: an
// in-process transport, which runs the handler (the dataset server) on
// the caller's goroutine, and a TCP transport over real sockets (package
// net). Algorithms are transport-agnostic.
//
// Both transports and the Meter are safe for concurrent use, so a device
// may keep several requests in flight at once — to both servers, or even
// several to the same server. Byte accounting is per frame and therefore
// independent of how requests interleave: a concurrent execution meters
// exactly the same totals as a sequential one issuing the same requests.
package netsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
)

// LinkConfig describes the physical link parameters of Eq. (1).
type LinkConfig struct {
	// MTU is the maximum transmission unit in bytes.
	MTU int
	// HeaderBytes is the per-packet TCP/IP header overhead (BH).
	HeaderBytes int
	// RTT, when positive, simulates the link's round-trip latency: every
	// round trip over a Metered connection blocks for this duration.
	// Latency is wall-clock only — it never affects byte accounting — and
	// exists so that pipelined executions can demonstrate their overlap
	// (several in-flight requests pay their RTTs concurrently).
	RTT time.Duration
}

// DefaultLink returns the paper's WiFi/Ethernet link: MTU 1500, BH 40.
func DefaultLink() LinkConfig { return LinkConfig{MTU: 1500, HeaderBytes: 40} }

// DialupLink returns the paper's dial-up alternative: MTU 576, BH 40.
func DialupLink() LinkConfig { return LinkConfig{MTU: 576, HeaderBytes: 40} }

// Validate reports whether the configuration is usable.
func (lc LinkConfig) Validate() error {
	if lc.HeaderBytes < 0 {
		return fmt.Errorf("netsim: negative header size %d", lc.HeaderBytes)
	}
	if lc.MTU <= lc.HeaderBytes {
		return fmt.Errorf("netsim: MTU %d must exceed header size %d", lc.MTU, lc.HeaderBytes)
	}
	if lc.RTT < 0 {
		return fmt.Errorf("netsim: negative RTT %v", lc.RTT)
	}
	return nil
}

// Packets returns the number of network packets needed to carry a payload
// of b bytes. A zero-byte payload still occupies one packet (the request
// must be delivered), matching the BH+BQ query-cost term of §3.1.
func (lc LinkConfig) Packets(b int) int {
	if b <= 0 {
		return 1
	}
	perPacket := lc.MTU - lc.HeaderBytes
	return (b + perPacket - 1) / perPacket
}

// TB returns the total transferred bytes for a payload of b bytes,
// including per-packet header overhead — Eq. (1) of the paper.
func (lc LinkConfig) TB(b int) int {
	return b + lc.HeaderBytes*lc.Packets(b)
}

// Direction distinguishes uplink (device → server) from downlink
// (server → device) traffic in the accounting breakdown.
type Direction int

// Directions of transfer relative to the mobile device.
const (
	Up   Direction = iota // device → server (queries, uploads)
	Down                  // server → device (results)
)

// Usage is an immutable snapshot of the traffic that crossed one metered
// link, with the breakdown the experiments report.
type Usage struct {
	// Messages is the number of frames transferred.
	Messages int
	// PayloadBytes is the sum of frame sizes before packetization.
	PayloadBytes int
	// WireBytes is the metered total after Eq. (1): payload + headers.
	WireBytes int
	// Packets is the number of network packets used.
	Packets int
	// UpWireBytes and DownWireBytes split WireBytes by direction.
	UpWireBytes   int
	DownWireBytes int
	// Queries counts uplink frames (each uplink frame is one query).
	Queries int
	// HedgedMessages and HedgedWireBytes sub-account the frames charged
	// on speculative hedge attempts (round trips issued under a
	// WithHedged context by a replica set racing a straggling primary).
	// They are included in Messages/WireBytes — a hedge costs real bytes
	// per Eq. (1) like any transfer — so primary traffic is always
	// WireBytes − HedgedWireBytes, keeping the bill decomposable into
	// "what an unhedged run would have paid" plus "what the tail
	// insurance cost".
	HedgedMessages  int
	HedgedWireBytes int
	// BreakerOpens and BreakerSkips surface the endpoint's circuit-
	// breaker activity (internal/health) in the same additive snapshot
	// the experiments already report: how often a replica link was
	// declared dead, and how many attempts were routed around it while
	// open — each skip a probe (and its Eq. 1 bytes) saved versus
	// reactive failover. The Meter never writes them; replica sets and
	// routers fold their breakers' counters in when exporting Usage, so
	// unarmed stacks report zero and stay bit-identical to the goldens.
	BreakerOpens int
	BreakerSkips int
}

// Add returns the element-wise sum of two usage snapshots.
func (u Usage) Add(v Usage) Usage {
	return Usage{
		Messages:        u.Messages + v.Messages,
		PayloadBytes:    u.PayloadBytes + v.PayloadBytes,
		WireBytes:       u.WireBytes + v.WireBytes,
		Packets:         u.Packets + v.Packets,
		UpWireBytes:     u.UpWireBytes + v.UpWireBytes,
		DownWireBytes:   u.DownWireBytes + v.DownWireBytes,
		Queries:         u.Queries + v.Queries,
		HedgedMessages:  u.HedgedMessages + v.HedgedMessages,
		HedgedWireBytes: u.HedgedWireBytes + v.HedgedWireBytes,
		BreakerOpens:    u.BreakerOpens + v.BreakerOpens,
		BreakerSkips:    u.BreakerSkips + v.BreakerSkips,
	}
}

// tally is one column set of a link's bill: the Meter's link totals and
// each tenant's slice of them are the same type, charged by add and read
// by usage, so the tenant columns sum to the totals by construction. All
// counters are lock-free atomics.
type tally struct {
	messages, payloadBytes, wireBytes, packets atomic.Int64
	upWireBytes, downWireBytes, queries        atomic.Int64
	hedgedMessages, hedgedWireBytes            atomic.Int64
}

// add books msgs frames (or a tenant's share of one) in direction dir;
// hedged also tags them in the hedged column.
func (t *tally) add(msgs, payload, wire, pkts int, dir Direction, hedged bool) {
	t.messages.Add(int64(msgs))
	t.payloadBytes.Add(int64(payload))
	t.wireBytes.Add(int64(wire))
	t.packets.Add(int64(pkts))
	if dir == Up {
		t.upWireBytes.Add(int64(wire))
		t.queries.Add(int64(msgs))
	} else {
		t.downWireBytes.Add(int64(wire))
	}
	if hedged {
		t.hedgedMessages.Add(int64(msgs))
		t.hedgedWireBytes.Add(int64(wire))
	}
}

func (t *tally) usage() Usage {
	return Usage{
		Messages:        int(t.messages.Load()),
		PayloadBytes:    int(t.payloadBytes.Load()),
		WireBytes:       int(t.wireBytes.Load()),
		Packets:         int(t.packets.Load()),
		UpWireBytes:     int(t.upWireBytes.Load()),
		DownWireBytes:   int(t.downWireBytes.Load()),
		Queries:         int(t.queries.Load()),
		HedgedMessages:  int(t.hedgedMessages.Load()),
		HedgedWireBytes: int(t.hedgedWireBytes.Load()),
	}
}

// Meter accumulates the byte accounting of one device↔server link. All
// counters are lock-free atomics, so any number of in-flight requests can
// charge concurrently without contending; a Usage snapshot taken while
// requests are in flight may mix charges from different frames, but
// snapshots taken at quiescent points (as the executor does, before and
// after a run) are exact. In tenant mode it also owns the per-tenant
// columns and the fleet ledger they feed.
type Meter struct {
	link LinkConfig
	// price is the tariff (bR or bS) applied to WireBytes when computing
	// monetary cost. The experiments use equal prices.
	price float64

	total tally

	// Tenant attribution (see tenant.go). tenantMode gates the whole
	// feature: off, charging never touches the map and the hot path is
	// exactly the single-tenant one.
	tenantMode atomic.Bool
	tenants    sync.Map // TenantID -> *tally
	ledger     *Ledger
}

// NewMeter returns a Meter for the given link and per-byte price. An
// invalid link configuration is a configuration-boundary error, reported
// to the caller rather than crashing the process.
func NewMeter(link LinkConfig, pricePerByte float64) (*Meter, error) {
	if err := link.Validate(); err != nil {
		return nil, err
	}
	return &Meter{link: link, price: pricePerByte}, nil
}

// PricePerByte returns the meter's per-byte tariff.
func (m *Meter) PricePerByte() float64 { return m.price }

// Link returns the link configuration the meter charges against.
func (m *Meter) Link() LinkConfig { return m.link }

// Charge records the transfer of one frame of the given payload size in
// the given direction, for ctx as a Metered round trip would (hedged and
// tenant columns), and returns the wire bytes charged.
func (m *Meter) Charge(ctx context.Context, payload int, dir Direction) int {
	return m.charge(ctx, payload, dir, IsHedged(ctx), m.tenantMode.Load())
}

// charge books one frame: the link totals, the hedged column when hedged,
// and in tenant mode the tenant columns ctx names (and their ledger).
func (m *Meter) charge(ctx context.Context, payload int, dir Direction, hedged, tenanted bool) int {
	wire, pkts := m.link.TB(payload), m.link.Packets(payload)
	m.total.add(1, payload, wire, pkts, dir, hedged)
	if tenanted {
		m.attribute(ctx, payload, wire, pkts, dir, hedged)
	}
	return wire
}

// Usage returns a snapshot of the accumulated accounting.
func (m *Meter) Usage() Usage { return m.total.usage() }

// RoundTripper is the client's view of a server connection: send one
// request frame, receive one response frame. Implementations must be safe
// for concurrent round trips from multiple goroutines; the concurrent
// executor keeps several requests in flight per server. (The sequential
// executor, Parallelism ≤ 1, is one thread with one probe group at a time
// per server, as a single-threaded PDA is: a group's requests go out in
// order, a chunk at a time (see Pipeline), and its replies are awaited in
// the same order.)
//
// RoundTrip must honor ctx: when the context is canceled or its deadline
// passes mid-flight, the call returns promptly with the context's error
// instead of blocking on a hung or slow peer. A round trip abandoned this
// way may leave the underlying connection in an unusable state; transports
// discard such connections rather than reuse them.
type RoundTripper interface {
	RoundTrip(ctx context.Context, req []byte) (resp []byte, err error)
	Close() error
}

// Pipeliner is the optional capability of a RoundTripper whose peer
// answers a connection strictly in order: a chunk of independent
// requests is written before any reply is awaited, and resps[i] receives
// request i's reply. The frames are the ones RoundTrip would carry; only
// the waiting is shared. On failure the first answered replies stand
// (the caller owns them) and every request from reqs[answered] on must
// be assumed sent. Like RoundTrip, Pipeline honors ctx and discards a
// connection it abandons. Chunks are cut with PipelineChunk.
type Pipeliner interface {
	Pipeline(ctx context.Context, reqs, resps [][]byte) (answered int, err error)
}

// Sender is the optional capability of a RoundTripper that splits a
// round trip: Send puts req on the wire and returns at once, and Recv
// collects the reply under Send's context. A send never blocks on the
// peer: a frame that cannot leave at once (no idle connection) is not
// sent, Send returns nil, and the caller makes the whole round trip when
// it receives.
type Sender interface {
	Send(ctx context.Context, req []byte) Receiver
}

// Receiver is a request a Sender put on the wire; Recv is called once.
type Receiver interface{ Recv() ([]byte, error) }

// Pipeline sends one chunk over rt: a Pipeliner writes it back to back;
// any other transport — Faulty, Switch, the channel transport, a
// decorator hiding the capability — gets one round trip after another,
// stopping at the first failure. So faults are drawn per frame, in frame
// order, and the first cuts the chunk: a severed TCP connection's shape.
func Pipeline(ctx context.Context, rt RoundTripper, reqs, resps [][]byte) (answered int, err error) {
	if p, ok := rt.(Pipeliner); ok {
		return p.Pipeline(ctx, reqs, resps)
	}
	for i, req := range reqs {
		if resps[i], err = rt.RoundTrip(ctx, req); err != nil {
			return i, err
		}
	}
	return len(reqs), nil
}

// sleepCtx blocks for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hedgedKey marks a context as belonging to a speculative hedge attempt.
type hedgedKey struct{}

// WithHedged returns a context under which every metered frame is
// sub-accounted in the link's hedged column. Replica sets wrap the
// context of a secondary (hedge) attempt with it, so all traffic the
// attempt causes — including retries — is visible as tail-insurance
// spend in the Usage breakdown.
func WithHedged(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgedKey{}, true)
}

// IsHedged reports whether ctx marks a hedge attempt.
func IsHedged(ctx context.Context) bool {
	v, _ := ctx.Value(hedgedKey{}).(bool)
	return v
}

// Metered wraps a RoundTripper, charging every request and response to a
// Meter. It is the only path by which algorithm traffic reaches a server,
// so no transfer escapes accounting. Metered is safe for concurrent use
// when the wrapped transport is.
type Metered struct {
	rt RoundTripper
	m  *Meter
}

// NewMetered wraps rt so that all traffic is charged to meter.
func NewMetered(rt RoundTripper, meter *Meter) *Metered {
	return &Metered{rt: rt, m: meter}
}

// RoundTrip implements RoundTripper: a Send and its Recv. Every attempt
// that reaches this wrapper charges its request frame, so a re-issued
// query is accounted like any other uplink frame (Eq. 1); responses are
// charged only when they actually arrive.
func (c *Metered) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	f := c.Send(ctx, req)
	return f.Recv()
}

// Send charges the request Up, stamps its reply due one RTT from now and
// hands it to the transport when that is a Sender. It never waits.
func (c *Metered) Send(ctx context.Context, req []byte) Flight {
	f := Flight{c: c, ctx: ctx, req: req, hedged: IsHedged(ctx), tenanted: c.m.tenantMode.Load()}
	c.m.charge(ctx, len(req), Up, f.hedged, f.tenanted)
	if rtt := c.m.link.RTT; rtt > 0 {
		f.due = time.Now().Add(rtt)
	}
	if s, ok := c.rt.(Sender); ok {
		f.sent = s.Send(ctx, req)
	}
	return f
}

// Flight is a request sent over a Metered link. Its latency runs from the
// send, so flights sent back to back pay their RTTs at once.
type Flight struct {
	c                *Metered
	ctx              context.Context
	req              []byte
	due              time.Time // zero without latency
	sent             Receiver  // nil: Recv makes the whole round trip
	hedged, tenanted bool
}

// Context returns the context the flight was sent under.
func (f *Flight) Context() context.Context { return f.ctx }

// Request returns the request frame the flight carries.
func (f *Flight) Request() []byte { return f.req }

// Recv waits out the rest of the RTT, collects the reply (or makes the
// round trip) and charges it Down. Abandoned by the send's context, it
// leaks neither reply nor goroutine.
func (f *Flight) Recv() ([]byte, error) {
	var err error
	if !f.due.IsZero() {
		err = sleepCtx(f.ctx, time.Until(f.due))
	}
	var resp []byte
	switch {
	case f.sent != nil:
		var rerr error // returned at once under a context that ended
		resp, rerr = f.sent.Recv()
		switch {
		case err == nil:
			err = rerr
		case rerr == nil && !bufpool.SameBacking(f.req, resp):
			bufpool.Put(resp)
		}
	case err == nil:
		resp, err = f.c.rt.RoundTrip(f.ctx, f.req)
	}
	if err != nil {
		return nil, err
	}
	f.c.m.charge(f.ctx, len(resp), Down, f.hedged, f.tenanted)
	return resp, nil
}

// Pipeline implements Pipeliner: every request of the chunk and every
// reply that arrives is charged exactly as RoundTrip charges it — the
// bill does not know the frames shared a flight — while the link's
// latency is paid once for the chunk.
func (c *Metered) Pipeline(ctx context.Context, reqs, resps [][]byte) (int, error) {
	hedged := IsHedged(ctx)
	tenanted := c.m.tenantMode.Load()
	for _, req := range reqs {
		c.m.charge(ctx, len(req), Up, hedged, tenanted)
	}
	if rtt := c.m.link.RTT; rtt > 0 {
		if err := sleepCtx(ctx, rtt); err != nil {
			return 0, err
		}
	}
	answered, err := Pipeline(ctx, c.rt, reqs, resps)
	for _, resp := range resps[:answered] {
		c.m.charge(ctx, len(resp), Down, hedged, tenanted)
	}
	return answered, err
}

// Close implements RoundTripper.
func (c *Metered) Close() error { return c.rt.Close() }
