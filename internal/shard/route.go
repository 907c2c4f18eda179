package shard

import (
	"context"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// This file is how a frame crosses the router: the routing table (one
// row per request message), the prologue that resolves a request into a
// plan, the one executor that sends a plan — GoBatch, through the shard
// endpoints' own GoBatch, of which Do is the one-request case — and the
// fold every plan finishes in. Typed and batched probes run the same
// rows and the same sends, so they cannot drift: they prune on the same
// decoded (float32) coordinates, send bit-identical sub-frames and
// merge the same replies with the same function. Adding a wire message
// means adding one row.

// sub is one sub-request of a plan, bound for shards[shard]. frame holds
// the pooled request frame until it is submitted (ownership passes to
// the shard endpoint), then the reply frame it drew, or err its failure.
// call is the sub-call the request was submitted as. A sub-request
// partial mode routed around is never sent and answers with neither
// reply nor error.
type sub struct {
	shard int
	frame []byte
	call  *client.Call
	err   error
}

// plan is one request resolved against the table: the sub-requests to
// send, in ascending shard order, and the fold of their replies.
// replies[k] answers subs[k]; nil marks a sub-query partial mode absorbed
// as a gap, which contributes nothing. merge appends the one reply frame
// to dst and does not retain the replies.
type plan struct {
	subs  []sub
	merge func(dst []byte, replies [][]byte) ([]byte, error)
}

// planner is a table row: it decodes req (without consuming it) and
// plans the scatter over the shards described by infos. Shards that
// cannot contribute — empty, out of reach of every probe, INFO-dead
// (zero Info) — get no sub-request: pruning is exact and free, no bytes
// cross their links.
type planner func(req []byte, infos []wire.Info) (plan, error)

// routes is the routing table, indexed by request message type.
//
//   - WINDOW / RANGE / MBR-MATCH go to the shards within reach and answer
//     one object list: the shards' records appended in plan (shard)
//     order under one header (concat). Assign places each object on
//     exactly one shard, so no deduplication is needed.
//   - COUNT / RANGE-COUNT go to the shards within reach and sum; the
//     per-shard counts are disjoint, so the sum is the unsharded answer.
//   - AVG-AREA sends each overlapping shard a companion COUNT and weights
//     the per-shard means by it.
//   - Bucket queries ship to each shard only the probes within reach of
//     its bounds and reassemble the groups in probe order: a probe's
//     objects are its groups' records in shard order under one summed
//     group header, its counts summed.
//   - MBR-LEVEL asks every non-empty shard, clamping the level to the
//     shard's published height, and concatenates in shard order.
//   - UPLOAD-JOIN uploads to each shard only the objects within ε of its
//     bounds and concatenates the disjoint pair lists in shard order.
//   - INFO sends nothing: it folds the cached per-shard metadata.
//
// No list row decodes a record: a routed list is the bytes its shards
// sent, reordered by nothing. Every fold is associative and NewTree
// groups consecutive leaves, so an aggregation tree merging level by
// level reaches the flat router's answer bit for bit.
var routes = [...]planner{
	wire.MsgWindow:           rectRoute(wire.MsgWindow, concat(wire.MsgObjects)),
	wire.MsgCount:            rectRoute(wire.MsgCount, sumCountReplies),
	wire.MsgAvgArea:          routeAvgArea,
	wire.MsgRange:            pointRoute(wire.MsgRange, concat(wire.MsgObjects)),
	wire.MsgRangeCount:       pointRoute(wire.MsgRangeCount, sumCountReplies),
	wire.MsgBucketRange:      bucketRoute(wire.MsgBucketRange, wire.AppendBucketRange, mergeBucketObjects),
	wire.MsgBucketRangeCount: bucketRoute(wire.MsgBucketRangeCount, wire.AppendBucketRangeCount, mergeBucketCounts),
	wire.MsgInfo:             routeInfo,
	wire.MsgMBRLevel:         routeMBRLevel,
	wire.MsgMBRMatch:         routeMBRMatch,
	wire.MsgUploadJoin:       routeUploadJoin,
}

// --- rows -------------------------------------------------------------------

// clone returns a pooled private copy of a request frame: one original
// may fan out to several shards, and each send consumes its frame.
func clone(req []byte) []byte {
	return append(bufpool.GetCap(len(req)), req...)
}

// fanOut plans the same-frame scatter: a private copy of req for every
// non-empty shard whose advertised bounds are within reach.
func fanOut(req []byte, infos []wire.Info, reach func(bounds geom.Rect) bool) []sub {
	var subs []sub
	for i, info := range infos {
		if info.Count > 0 && reach(info.Bounds) {
			subs = append(subs, sub{shard: i, frame: clone(req)})
		}
	}
	return subs
}

func rectRoute(t wire.MsgType, merge func([]byte, [][]byte) ([]byte, error)) planner {
	return func(req []byte, infos []wire.Info) (plan, error) {
		w, err := wire.DecodeWindowLike(req, t)
		if err != nil {
			return plan{}, err
		}
		return plan{fanOut(req, infos, w.Intersects), merge}, nil
	}
}

func pointRoute(t wire.MsgType, merge func([]byte, [][]byte) ([]byte, error)) planner {
	return func(req []byte, infos []wire.Info) (plan, error) {
		p, eps, err := wire.DecodeRangeLike(req, t)
		if err != nil {
			return plan{}, err
		}
		reach := func(bounds geom.Rect) bool { return bounds.WithinDistOfPoint(p, eps) }
		return plan{fanOut(req, infos, reach), merge}, nil
	}
}

// routeAvgArea plans two sub-requests per overlapping shard, COUNT then
// AVG-AREA: the count is the weight of the shard's mean — the only
// merged statistic that needs a companion query.
func routeAvgArea(req []byte, infos []wire.Info) (plan, error) {
	w, err := wire.DecodeWindowLike(req, wire.MsgAvgArea)
	if err != nil {
		return plan{}, err
	}
	var subs []sub
	for i, info := range infos {
		if info.Count > 0 && info.Bounds.Intersects(w) {
			subs = append(subs,
				sub{shard: i, frame: wire.AppendCount(bufpool.Get(), w)}, sub{shard: i, frame: clone(req)})
		}
	}
	return plan{subs, func(dst []byte, replies [][]byte) ([]byte, error) {
		var total int64
		weighted := 0.0
		for k := 0; k+1 < len(replies); k += 2 {
			if replies[k] == nil || replies[k+1] == nil {
				continue
			}
			n, err := wire.DecodeCountReply(replies[k])
			if err != nil {
				return dst, err
			}
			a, err := wire.DecodeFloatReply(replies[k+1])
			if err != nil {
				return dst, err
			}
			total += n
			weighted += float64(n) * a
		}
		if total == 0 {
			return wire.AppendFloatReply(dst, 0), nil
		}
		return wire.AppendFloatReply(dst, weighted/float64(total)), nil
	}}, nil
}

// partition plans a subset scatter: every non-empty shard receives,
// encoded by enc, the items within reach of its advertised bounds (and
// no sub-request when none is). idx[k] lists the positions in items of
// the ones subs[k] carries, for merges that answer item by item.
func partition[T any](infos []wire.Info, items []T,
	reach func(item T, bounds geom.Rect) bool,
	enc func(dst []byte, part []T) []byte) (subs []sub, idx [][]int) {
	var part []T
	for i, info := range infos {
		if info.Count == 0 {
			continue
		}
		var hit []int
		part = part[:0]
		for k, item := range items {
			if reach(item, info.Bounds) {
				hit = append(hit, k)
				part = append(part, item)
			}
		}
		if len(hit) > 0 {
			subs = append(subs, sub{shard: i, frame: enc(bufpool.Get(), part)})
			idx = append(idx, hit)
		}
	}
	return subs, idx
}

// bucketRoute plans a bucket scatter: each shard receives, re-encoded by
// appendReq, the probes within eps of its bounds, and the merge puts
// every answer back at its probe's position.
func bucketRoute(t wire.MsgType,
	appendReq func(dst []byte, pts []geom.Point, eps float64) []byte,
	merge func(dst []byte, replies [][]byte, idx [][]int, n int) ([]byte, error)) planner {
	return func(req []byte, infos []wire.Info) (plan, error) {
		pts, eps, err := wire.DecodeBucketRangeLike(req, t)
		if err != nil {
			return plan{}, err
		}
		subs, idx := partition(infos, pts,
			func(p geom.Point, bounds geom.Rect) bool { return bounds.WithinDistOfPoint(p, eps) },
			func(dst []byte, part []geom.Point) []byte { return appendReq(dst, part, eps) })
		return plan{subs, func(dst []byte, replies [][]byte) ([]byte, error) {
			return merge(dst, replies, idx, len(pts))
		}}, nil
	}
}

// mergeBucketObjects answers every probe with the groups the shards
// returned for it, their records appended in shard order under one
// summed group header. A shard's reply holds its probes' groups in
// probe order (partition), so one walker per reply reads it once.
func mergeBucketObjects(dst []byte, replies [][]byte, idx [][]int, n int) ([]byte, error) {
	type walk struct {
		groups wire.ObjectGroups
		probes []int // the probes of the groups not yet read
	}
	var stack [16]walk
	walks := stack[:0]
	for k, f := range replies {
		if f == nil {
			continue
		}
		g, err := wire.BucketGroups(f)
		if err != nil {
			return dst, err
		}
		if g.Len() != len(idx[k]) {
			return dst, fmt.Errorf("bucket reply carries %d groups, want %d", g.Len(), len(idx[k]))
		}
		walks = append(walks, walk{g, idx[k]})
	}
	dst = wire.AppendBucketObjectsHeader(dst, n)
	for i := range n {
		m := 0
		for _, w := range walks {
			if len(w.probes) > 0 && w.probes[0] == i {
				m += w.groups.Peek()
			}
		}
		dst = wire.AppendBucketGroupHeader(dst, m)
		for k := range walks {
			if w := &walks[k]; len(w.probes) > 0 && w.probes[0] == i {
				dst = append(dst, w.groups.Next()...)
				w.probes = w.probes[1:]
			}
		}
	}
	return dst, nil
}

func mergeBucketCounts(dst []byte, replies [][]byte, idx [][]int, n int) ([]byte, error) {
	out := make([]int64, n)
	var ns []int64
	for k, f := range replies {
		if f == nil {
			continue
		}
		var err error
		if ns, err = wire.DecodeCountsReplyAppend(f, ns[:0]); err != nil {
			return dst, err
		}
		if len(ns) != len(idx[k]) {
			return dst, fmt.Errorf("bucket reply carries %d counts, want %d", len(ns), len(idx[k]))
		}
		for j, c := range ns {
			out[idx[k][j]] += c
		}
	}
	return wire.AppendCountsReply(dst, out), nil
}

// routeInfo answers from the routing metadata itself. INFO-dead shards
// hold the zero Info (count 0), so the fold covers exactly the shards
// that answered.
func routeInfo(_ []byte, infos []wire.Info) (plan, error) {
	return plan{nil, func(dst []byte, _ [][]byte) ([]byte, error) {
		return wire.AppendInfoReply(dst, mergeInfos(infos)), nil
	}}, nil
}

// routeMBRLevel clamps the level per shard to its published height, so
// the "second-to-last level" derived from the merged (minimum) height is
// valid everywhere.
func routeMBRLevel(req []byte, infos []wire.Info) (plan, error) {
	level, err := wire.DecodeMBRLevel(req)
	if err != nil {
		return plan{}, err
	}
	var subs []sub
	for i, info := range infos {
		if info.Count == 0 {
			continue
		}
		lvl := level
		if h := int(info.TreeHeight); h > 0 && lvl >= h {
			lvl = h - 1
		}
		subs = append(subs, sub{shard: i, frame: wire.AppendMBRLevel(bufpool.Get(), lvl)})
	}
	return plan{subs, concat(wire.MsgRects)}, nil
}

func routeMBRMatch(req []byte, infos []wire.Info) (plan, error) {
	rects, eps, err := wire.DecodeMBRMatch(req)
	if err != nil {
		return plan{}, err
	}
	subs, _ := partition(infos, rects,
		func(rect, bounds geom.Rect) bool { return rect.WithinDist(bounds, eps) },
		func(dst []byte, part []geom.Rect) []byte { return wire.AppendMBRMatch(dst, part, eps) })
	return plan{subs, concat(wire.MsgObjects)}, nil
}

func routeUploadJoin(req []byte, infos []wire.Info) (plan, error) {
	objs, eps, err := wire.DecodeUploadJoin(req)
	if err != nil {
		return plan{}, err
	}
	subs, _ := partition(infos, objs,
		func(o geom.Object, bounds geom.Rect) bool { return o.MBR.WithinDist(bounds, eps) },
		func(dst []byte, part []geom.Object) []byte { return wire.AppendUploadJoin(dst, part, eps) })
	return plan{subs, concat(wire.MsgPairs)}, nil
}

func sumCountReplies(dst []byte, replies [][]byte) ([]byte, error) {
	var sum int64
	for _, f := range replies {
		if f == nil {
			continue
		}
		n, err := wire.DecodeCountReply(f)
		if err != nil {
			return dst, err
		}
		sum += n
	}
	return wire.AppendCountReply(dst, sum), nil
}

// concat is the merge of every row that answers a list of type t: the
// shards' records appended in plan order under one header.
func concat(t wire.MsgType) func(dst []byte, replies [][]byte) ([]byte, error) {
	return func(dst []byte, replies [][]byte) ([]byte, error) {
		return wire.AppendList(dst, t, replies)
	}
}

// --- prologue ---------------------------------------------------------------

// plan resolves one request frame into its scatter plan, consuming req.
//
// A solo router keeps its pass-through promise under partial mode too:
// the one sub-request is req verbatim and the reply crosses unchanged —
// for a list, the one-shard case of concatenation. Only when the lone
// shard is absorbed as a gap does the row speak — split over no shards,
// merged from no replies, it yields the request's empty answer.
func (r *Router) plan(ctx context.Context, req []byte) (plan, error) {
	t := wire.Type(req)
	if int(t) >= len(routes) || routes[t] == nil {
		bufpool.Put(req)
		return plan{}, fmt.Errorf("shard: %s: cannot route %v", r.name, t)
	}
	if r.solo() {
		none, err := routes[t](req, nil)
		if err != nil {
			bufpool.Put(req)
			return plan{}, fmt.Errorf("%s: %w", r.name, err)
		}
		return plan{[]sub{{frame: req}}, func(dst []byte, replies [][]byte) ([]byte, error) {
			if replies[0] == nil {
				return none.merge(dst, nil)
			}
			return append(dst, replies[0]...), nil
		}}, nil
	}
	infos, err := r.routingInfos(ctx)
	if err != nil {
		bufpool.Put(req)
		return plan{}, err
	}
	pl, err := routes[t](req, infos)
	bufpool.Put(req)
	if err != nil {
		return plan{}, fmt.Errorf("%s: %w", r.name, err)
	}
	return pl, nil
}

// admit is the first half of partial mode, applied to every sub-request
// by both executors: a shard whose every replica is open-circuit is
// routed around before any frame is spent on it — gap recorded, probe
// saved. Without a collector every shard is admitted.
func (r *Router) admit(rep *health.Report, i int) bool {
	if rep == nil {
		return true
	}
	if h, ok := r.shards[i].(healthChecked); ok && !h.Healthy() {
		h.RoutedAround()
		r.gap(rep, i, errAllOpen)
		return false
	}
	return true
}

// absorb is the second half: a sub-query failure while the caller's
// context is still alive records shard i's gap instead of failing the
// request; the merge proceeds without its contribution. Without a
// collector the error is returned unchanged — the fail-fast path.
func (r *Router) absorb(ctx context.Context, rep *health.Report, i int, err error) error {
	if rep == nil || ctx.Err() != nil {
		return err
	}
	r.gap(rep, i, err)
	return nil
}

// finish folds a plan's gathered replies into the reply frame and
// recycles them. Every merged reply passes here, so this is where an
// interior node charges it to its uplink.
func (r *Router) finish(pl plan, replies [][]byte) ([]byte, error) {
	out, err := pl.merge(bufpool.Get(), replies)
	release(replies)
	if err != nil {
		bufpool.Put(out)
		return nil, fmt.Errorf("shard: %s: %w", r.name, err)
	}
	r.charge(out, netsim.Down)
	return out, nil
}

func release(frames [][]byte) {
	for _, f := range frames {
		if f != nil {
			bufpool.Put(f)
		}
	}
}

// --- executors --------------------------------------------------------------

// Do answers one request frame with one reply frame (client.Doer): the
// one-request case of GoBatch, gathered on the caller's stack. Do
// returns once every sub-request has answered; outside partial mode the
// first failure in shard order is the error. A solo router is a pure
// pass-through — the frame goes to the one shard untouched, so a
// 1-sharded relation is bit-identical on the wire to the unsharded
// protocol (the golden tests pin this).
func (r *Router) Do(ctx context.Context, req []byte) ([]byte, error) {
	r.charge(req, netsim.Up)
	rep := health.ReportFrom(ctx)
	if r.solo() && rep == nil {
		return r.shards[0].Do(ctx, req)
	}
	pl, err := r.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	r.submit(ctx, rep, []plan{pl}, nil)
	return r.gather(ctx, rep, pl)
}

// submit hands the sub-requests of plans that partial mode admits to
// their shards' GoBatch — one submission per shard, in request order,
// then plan order (AVG-AREA's COUNT before its mean) — recording each
// sub-call in its sub, and recycles the rest. buf is scratch for a
// submission's frames; the calls of the last one are returned for reuse.
func (r *Router) submit(ctx context.Context, rep *health.Report, plans []plan, buf [][]byte) []*client.Call {
	var calls []*client.Call
	var at [16]int // per plan, the first sub-request not yet handed on
	next := at[:]
	if len(plans) > len(at) {
		next = make([]int, len(plans))
	}
	for i, shard := range r.shards {
		buf = buf[:0]
		for q, pl := range plans {
			for k := next[q]; k < len(pl.subs) && pl.subs[k].shard == i; k++ {
				if s := &pl.subs[k]; r.admit(rep, i) {
					buf = append(buf, s.frame)
				} else {
					bufpool.Put(s.frame)
					s.frame = nil
				}
			}
		}
		if len(buf) > 0 {
			calls = shard.GoBatch(ctx, buf)
		}
		k := 0
		for q, pl := range plans {
			for ; next[q] < len(pl.subs) && pl.subs[next[q]].shard == i; next[q]++ {
				if s := &pl.subs[next[q]]; s.frame != nil {
					s.call, s.frame, k = calls[k], nil, k+1
				}
			}
		}
	}
	return calls
}

// GoBatch submits the plans of pre-encoded request frames of any
// routable type (consuming reqs, slice and frames) and returns one Call
// per request, yielding its merged reply; a request no shard can serve
// is answered locally, costing zero bytes. Under partial mode a failed
// sub-call becomes its shard's gap.
func (r *Router) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	for _, req := range reqs {
		r.charge(req, netsim.Up)
	}
	rep := health.ReportFrom(ctx)
	if r.solo() && rep == nil {
		return r.shards[0].GoBatch(ctx, reqs)
	}
	if len(reqs) == 1 {
		// A lone request (most COUNTs of a parallel run) is submitted
		// through reqs itself, and a child's result carries this
		// router's call back. It is not started: its caller waits for it
		// next, or — a parent router — starts it along with its siblings.
		pl, err := r.plan(ctx, reqs[0])
		if err != nil {
			return []*client.Call{failed(r.name, err)}
		}
		calls := r.submit(ctx, rep, []plan{pl}, reqs)
		return append(calls[:0], r.answer(ctx, rep, pl))
	}
	calls := make([]*client.Call, len(reqs))
	plans := make([]plan, len(reqs))
	for q, req := range reqs {
		var err error
		if plans[q], err = r.plan(ctx, req); err != nil {
			calls[q] = failed(r.name, err)
		}
	}
	r.submit(ctx, rep, plans, nil)
	for q, pl := range plans {
		if calls[q] == nil {
			if calls[q] = r.answer(ctx, rep, pl); len(pl.subs) > 1 {
				calls[q].Start()
			}
		}
	}
	return calls
}

// failed returns the call of a request that could not be planned.
func failed(name string, err error) *client.Call {
	return client.NewLazyCall(name, func() ([]byte, error) { return nil, err })
}

// answer returns the call that yields one submitted plan's merged reply,
// gathered on the stack of whoever waits for it, so a probe that routes
// to one child crosses this router without a goroutine. GoBatch starts
// the call of a plan with several sub-requests among several requests
// at once, so its round trips overlap whatever else the caller
// submitted rather than beginning when the caller gets round to it.
func (r *Router) answer(ctx context.Context, rep *health.Report, pl plan) *client.Call {
	return client.NewLazyCall(r.name, func() ([]byte, error) { return r.gather(ctx, rep, pl) })
}

// gather waits on one request's sub-calls and folds their replies into
// the merged reply frame.
func (r *Router) gather(ctx context.Context, rep *health.Report, pl plan) ([]byte, error) {
	wait(pl.subs)
	return r.fold(ctx, rep, pl)
}

// wait lands every submitted sub-call's reply or error in its sub.
// Waiting is what sends a queued probe, so the first sub-call of every
// shard's run after the first is started before any is awaited; the
// rest of a run crosses its shard's link behind it, in plan order.
// Every sub-call is drained even after a failure so its pooled reply
// frame is recycled.
func wait(subs []sub) {
	for k, s := range subs {
		if k > 0 && s.call != nil && s.shard != subs[k-1].shard {
			s.call.Start()
		}
	}
	for k := range subs {
		if s := &subs[k]; s.call != nil {
			s.frame, s.err = s.call.Frame()
			s.call = nil
		}
	}
}

// fold finishes a plan whose sub-requests have all answered: a failure
// is absorbed as its shard's gap under partial mode, otherwise the first
// one in shard order fails the request. Every reply is recycled, merged
// by finish or released.
func (r *Router) fold(ctx context.Context, rep *health.Report, pl plan) ([]byte, error) {
	replies := make([][]byte, len(pl.subs))
	var first error
	for k, s := range pl.subs {
		if s.err != nil {
			if err := r.absorb(ctx, rep, s.shard, s.err); err != nil && first == nil {
				first = err
			}
			continue
		}
		replies[k] = s.frame
	}
	if first != nil {
		release(replies)
		return nil, first
	}
	return r.finish(pl, replies)
}
