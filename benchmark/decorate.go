package main

import (
	"context"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// The three decorators. Each forwards to the wrapped value and records
// one span around the call; none changes a byte on the wire.

type parentKey struct{}

// parentOf returns the span id a decorator further up stored in ctx.
func parentOf(ctx context.Context) int32 {
	id, _ := ctx.Value(parentKey{}).(int32)
	return id
}

// tracedProbe decorates the root core.Probe of one relation. The
// embedded Probe forwards the methods that need no span (Name, Usage,
// PricePerByte, Retries, Flush, Close).
type tracedProbe struct {
	core.Probe
	tr *tracer
}

// call records a probe span around f and hands f a context naming it.
func (p *tracedProbe) call(ctx context.Context, f func(ctx context.Context)) {
	id, start := p.tr.begin(), p.tr.now()
	f(context.WithValue(ctx, parentKey{}, id))
	p.tr.end(layerProbe, id, 0, start, p.tr.now())
}

func (p *tracedProbe) Info(ctx context.Context) (v wire.Info, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.Info(ctx) })
	return
}

func (p *tracedProbe) Count(ctx context.Context, w geom.Rect) (v int, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.Count(ctx, w) })
	return
}

func (p *tracedProbe) Window(ctx context.Context, w geom.Rect) (v []geom.Object, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.Window(ctx, w) })
	return
}

func (p *tracedProbe) AvgArea(ctx context.Context, w geom.Rect) (v float64, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.AvgArea(ctx, w) })
	return
}

func (p *tracedProbe) Range(ctx context.Context, pt geom.Point, eps float64) (v []geom.Object, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.Range(ctx, pt, eps) })
	return
}

func (p *tracedProbe) RangeCount(ctx context.Context, pt geom.Point, eps float64) (v int, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.RangeCount(ctx, pt, eps) })
	return
}

func (p *tracedProbe) BucketRange(ctx context.Context, pts []geom.Point, eps float64) (v [][]geom.Object, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.BucketRange(ctx, pts, eps) })
	return
}

func (p *tracedProbe) BucketRangeCount(ctx context.Context, pts []geom.Point, eps float64) (v []int64, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.BucketRangeCount(ctx, pts, eps) })
	return
}

func (p *tracedProbe) LevelMBRs(ctx context.Context, level int) (v []geom.Rect, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.LevelMBRs(ctx, level) })
	return
}

func (p *tracedProbe) MBRMatch(ctx context.Context, rects []geom.Rect, eps float64) (v []geom.Object, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.MBRMatch(ctx, rects, eps) })
	return
}

func (p *tracedProbe) UploadJoin(ctx context.Context, objs []geom.Object, eps float64) (v []geom.Pair, err error) {
	p.call(ctx, func(ctx context.Context) { v, err = p.Probe.UploadJoin(ctx, objs, eps) })
	return
}

// GoBatch is asynchronous: the probes are in flight until their Calls
// complete, and a Call cannot be observed from outside. So the caller
// gets detached calls, and one goroutine waits for the real ones, ends
// the span — one per submitted probe, all over the same interval — and
// only then completes the detached calls in order.
func (p *tracedProbe) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	start := p.tr.now()
	inner := p.Probe.GoBatch(ctx, reqs)
	outer := make([]*client.Call, len(inner))
	for i := range outer {
		outer[i] = client.NewDetachedCall(p.Name())
	}
	go func() {
		frames := make([][]byte, len(inner))
		errs := make([]error, len(inner))
		for i, c := range inner {
			frames[i], errs[i] = c.Frame()
		}
		end := p.tr.now()
		for range inner {
			p.tr.end(layerProbe, p.tr.begin(), 0, start, end)
		}
		for i, c := range outer {
			c.CompleteFrame(frames[i], errs[i])
		}
	}()
	return outer
}

// tracedRT decorates one transport. netsim.Metered sits above this seam
// and sleeps the link's RTT immediately before calling down, so the span
// is opened that much earlier: the sleep is the link's, not the client's.
type tracedRT struct {
	netsim.RoundTripper
	tr   *tracer
	link string
	rtt  time.Duration
}

func (t *tracedRT) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	id, start := t.tr.begin(), t.tr.now()-int64(t.rtt)
	resp, err := t.RoundTripper.RoundTrip(ctx, req)
	t.tr.end(layerRT, id, parentOf(ctx), start, t.tr.now())
	if err == nil && t.tr.recording() {
		t.tr.record(t.link, req, resp)
	}
	return resp, err
}

// tracedHandler decorates one dataset server.
type tracedHandler struct {
	h  netsim.AppendHandler
	tr *tracer
}

func (h *tracedHandler) Handle(req []byte) []byte { return h.HandleAppend(req, nil) }

func (h *tracedHandler) HandleAppend(req, dst []byte) []byte {
	id, start := h.tr.begin(), h.tr.now()
	dst = h.h.HandleAppend(req, dst)
	h.tr.end(layerHandler, id, 0, start, h.tr.now())
	return dst
}
