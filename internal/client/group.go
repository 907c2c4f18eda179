package client

import (
	"context"
	"errors"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/netsim"
)

// group is one GoBatch submission on a remote that does not batch: n
// independent requests bound for one link. It runs once, on the stack of
// the first goroutine that waits for any of its calls, and every request
// stays what a typed call would have sent — its own bare frame, metered
// on its own, in submission order. What a group shares is the waiting: a
// chunk of requests (netsim.PipelineChunk) crosses the link as one
// netsim.Metered.Pipeline, charged up front and paying the link's RTT
// once, whether the transport writes it back to back or not — so n probes
// cost about n/depth waits instead of n. A group under a retry policy
// that times each request (PerTryTimeout, Budget) is Do per request. A
// lone request is a lone, not a group.
type group struct {
	r      *Remote
	calls  []Call   // each under the group's context
	frames [][]byte // request and reply frames of a pipelined run, len(calls) each
	once   sync.Once
}

// inlineGroup is a group with everything its submission and its run
// need in one allocation: C, P and F are arrays of Call, *Call and
// []byte, of one length and of twice it. A group of up to a pipelined
// chunk's depth takes the smaller of two that fits — a quadrant group
// the four, an NLSJ probe group the chunk. The returned calls slice is
// carved from it too, and is the caller's: the run never reads it, so
// layers above may overwrite its elements.
type inlineGroup[C, P, F any] struct {
	group
	calls  C
	ptrs   P
	frames F
}

// group returns the calls of reqs submitted as one group on r, in request
// order. The frames move into the calls; reqs itself is not kept.
func (r *Remote) group(ctx context.Context, reqs [][]byte) []*Call {
	var g *group
	var calls []*Call
	switch n := len(reqs); {
	case n == 1:
		l := &lone{r: r}
		l.call = Call{name: r.name, ctx: ctx, req: reqs[0], work: l}
		l.ptr[0] = &l.call
		return l.ptr[:]
	case n <= 4:
		s := new(inlineGroup[[4]Call, [4]*Call, [8][]byte])
		g, calls, s.group.calls, s.group.frames = &s.group, s.ptrs[:n], s.calls[:n], s.frames[:2*n]
	case n <= netsim.PipelineDepth:
		s := new(inlineGroup[[netsim.PipelineDepth]Call, [netsim.PipelineDepth]*Call, [2 * netsim.PipelineDepth][]byte])
		g, calls, s.group.calls, s.group.frames = &s.group, s.ptrs[:n], s.calls[:n], s.frames[:2*n]
	default:
		g, calls = new(group), make([]*Call, n)
		g.calls = make([]Call, n)
	}
	g.r = r
	for i, req := range reqs {
		c := &g.calls[i]
		c.name, c.ctx, c.req, c.work = r.name, ctx, req, g
		calls[i] = c
	}
	return calls
}

// run answers every call of the group, leaving each call's reply frame
// or error in the call itself.
func (g *group) run() {
	r, n, ctx := g.r, len(g.calls), g.calls[0].ctx
	if r.timed() {
		for i := range g.calls {
			c := &g.calls[i]
			c.resp, c.err = r.Do(ctx, c.req)
			c.req = nil
		}
		return
	}
	if g.frames == nil {
		g.frames = make([][]byte, 2*n)
	}
	reqs, resps := g.frames[:n], g.frames[n:]
	for i := range g.calls {
		reqs[i], g.calls[i].req = g.calls[i].req, nil
	}
	for lo := 0; lo < n; {
		hi := lo + netsim.PipelineChunk(reqs[lo:])
		r.pipeline(ctx, g.calls[lo:hi], reqs[lo:hi], resps[lo:hi])
		lo = hi
	}
}

// Send is Call.Send: a group crosses whole, when waited for.
func (g *group) Send() {}

// lone is a lone request (each sub-request of a router's scatter is one)
// as a lazy call on itself, in one allocation: Send puts it on the wire
// ahead of its waiter, unless its policy is timed, and Eval receives it.
// Its one call has one owner, so neither races with the other.
type lone struct {
	r    *Remote
	f    netsim.Flight
	call Call
	ptr  [1]*Call // the returned calls slice
}

func (l *lone) Send() {
	if c := &l.call; c.req != nil && !l.r.timed() {
		l.f, c.err = l.r.send(c.ctx, c.req)
		c.req = nil
	}
}

func (l *lone) Eval() ([]byte, error) {
	l.Send()
	c := &l.call
	switch {
	case c.req != nil: // a timed policy's: Do sends it
		req := c.req
		c.req = nil
		return l.r.Do(c.ctx, req)
	case c.err != nil: // the quota gate refused it
		return nil, c.err
	}
	return l.r.recv(&l.f)
}

// pipeline sends one chunk as one pipelined attempt, guarding what Do
// guards: the quota gate closes before any frame of the chunk is
// charged, each request frame is recycled exactly once (or left to the
// collector under netsim.ErrFrameRetained), and a MsgError reply fails
// its own call alone (Call.frame converts it). A request the attempt left
// unanswered goes on through Do's attempt loop, having spent one attempt
// if its frame is the one that failed and none if it sat behind it: the
// chunk stopped there, so it never met the fault. A MaxAttempts that
// outlasts a transport's longest run of faults lands it as it lands Do.
func (r *Remote) pipeline(ctx context.Context, calls []Call, reqs, resps [][]byte) {
	if err := r.admit(ctx); err != nil {
		for i := range calls {
			bufpool.Put(reqs[i])
			calls[i].err = err
		}
		return
	}
	answered, err := r.conn.Pipeline(ctx, reqs, resps)
	for i, resp := range resps[:answered] {
		if !bufpool.SameBacking(reqs[i], resp) {
			bufpool.Put(reqs[i])
		}
		calls[i].resp = resp
	}
	if err == nil {
		return
	}
	retained := errors.Is(err, netsim.ErrFrameRetained)
	for i := answered; i < len(calls); i++ {
		spent := 1
		if i > answered && r.retry.MaxAttempts > 1 {
			spent = 0
		}
		calls[i].resp, calls[i].err = r.attempts(ctx, reqs[i], spent, err, retained)
	}
}
