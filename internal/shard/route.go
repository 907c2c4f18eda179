package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/wire"
)

// This file is how a frame crosses the router: the routing table (one
// row per request message), the prologue that resolves a request into a
// plan, and the two executors of a plan — Do (synchronous scatter) and
// GoBatch (through the shard endpoints' batchers). Both executors run
// the same rows, so the typed and the batched path cannot drift: they
// prune on the same decoded (float32) coordinates, send bit-identical
// sub-frames and merge with the same function. Adding a wire message
// means adding one row.

// sub is one sub-request of a plan: a pooled frame (ownership passes to
// the shard endpoint it is sent to) bound for shards[shard]. GoBatch
// records the sub-call the frame was submitted as; a nil call there
// marks a sub-request partial mode routed around.
type sub struct {
	shard int
	frame []byte
	call  *client.Call
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
//   - WINDOW / RANGE / MBR-MATCH go to the shards within reach and merge
//     into one ID-ordered object list (MergeObjects). Assign places each
//     object on exactly one shard, so no deduplication is needed.
//   - COUNT / RANGE-COUNT go to the shards within reach and sum; the
//     per-shard counts are disjoint, so the sum is the unsharded answer.
//   - AVG-AREA sends each overlapping shard a companion COUNT and weights
//     the per-shard means by it.
//   - Bucket queries ship to each shard only the probes within reach of
//     its bounds and reassemble the groups in probe order (objects
//     ID-ordered, counts summed).
//   - MBR-LEVEL asks every non-empty shard, clamping the level to the
//     shard's published height, and concatenates in shard order.
//   - UPLOAD-JOIN uploads to each shard only the objects within ε of its
//     bounds; the disjoint pair lists merge in (RID, SID) order.
//   - INFO sends nothing: it folds the cached per-shard metadata.
//
// Every fold is associative, so an aggregation tree merging level by
// level reaches the flat router's answer bit for bit.
var routes = [...]planner{
	wire.MsgWindow:           rectRoute(wire.MsgWindow, mergeObjectReplies),
	wire.MsgCount:            rectRoute(wire.MsgCount, sumCountReplies),
	wire.MsgAvgArea:          routeAvgArea,
	wire.MsgRange:            pointRoute(wire.MsgRange, mergeObjectReplies),
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

func mergeBucketObjects(dst []byte, replies [][]byte, idx [][]int, n int) ([]byte, error) {
	out := make([][]geom.Object, n)
	for k, f := range replies {
		if f == nil {
			continue
		}
		groups, err := wire.DecodeBucketObjects(f)
		if err != nil {
			return dst, err
		}
		if len(groups) != len(idx[k]) {
			return dst, fmt.Errorf("bucket reply carries %d groups, want %d", len(groups), len(idx[k]))
		}
		for j, g := range groups {
			out[idx[k][j]] = append(out[idx[k][j]], g...)
		}
	}
	for _, g := range out {
		sortObjects(g)
	}
	return wire.AppendBucketObjects(dst, out), nil
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
	return plan{subs, func(dst []byte, replies [][]byte) ([]byte, error) {
		var all []geom.Rect
		for _, f := range replies {
			if f == nil {
				continue
			}
			var err error
			if all, err = wire.DecodeRectsAppend(f, all); err != nil {
				return dst, err
			}
		}
		return wire.AppendRects(dst, all), nil
	}}, nil
}

func routeMBRMatch(req []byte, infos []wire.Info) (plan, error) {
	rects, eps, err := wire.DecodeMBRMatch(req)
	if err != nil {
		return plan{}, err
	}
	subs, _ := partition(infos, rects,
		func(rect, bounds geom.Rect) bool { return rect.WithinDist(bounds, eps) },
		func(dst []byte, part []geom.Rect) []byte { return wire.AppendMBRMatch(dst, part, eps) })
	return plan{subs, mergeObjectReplies}, nil
}

func routeUploadJoin(req []byte, infos []wire.Info) (plan, error) {
	objs, eps, err := wire.DecodeUploadJoin(req)
	if err != nil {
		return plan{}, err
	}
	subs, _ := partition(infos, objs,
		func(o geom.Object, bounds geom.Rect) bool { return o.MBR.WithinDist(bounds, eps) },
		func(dst []byte, part []geom.Object) []byte { return wire.AppendUploadJoin(dst, part, eps) })
	return plan{subs, func(dst []byte, replies [][]byte) ([]byte, error) {
		var all []geom.Pair
		for _, f := range replies {
			if f == nil {
				continue
			}
			var err error
			if all, err = wire.DecodePairsAppend(f, all); err != nil {
				return dst, err
			}
		}
		sortPairs(all)
		return wire.AppendPairs(dst, all), nil
	}}, nil
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

// objectScratch is the pooled state of one object merge. The decoded
// objects are dead once the merged frame is encoded, so they live in
// reusable slices instead of fresh ones per reply per tree level.
type objectScratch struct {
	in, out []geom.Object
	parts   [][]geom.Object
}

var objectPool = sync.Pool{New: func() any { return new(objectScratch) }}

func mergeObjectReplies(dst []byte, replies [][]byte) ([]byte, error) {
	sc := objectPool.Get().(*objectScratch)
	defer objectPool.Put(sc)
	sc.in, sc.parts = sc.in[:0], sc.parts[:0]
	for _, f := range replies {
		if f == nil {
			continue
		}
		at := len(sc.in)
		var err error
		if sc.in, err = wire.DecodeObjectsAppend(f, sc.in); err != nil {
			return dst, err
		}
		// A part keeps pointing at valid objects even if a later decode
		// regrows sc.in: its elements were written before the move.
		sc.parts = append(sc.parts, sc.in[at:])
	}
	if len(sc.parts) == 1 {
		// One contributing shard: its reply only needs the ID sort.
		sortObjects(sc.parts[0])
		return wire.AppendObjects(dst, sc.parts[0]), nil
	}
	sc.out = MergeObjects(sc.out[:0], sc.parts)
	return wire.AppendObjects(dst, sc.out), nil
}

// --- prologue ---------------------------------------------------------------

// plan resolves one request frame into its scatter plan, consuming req.
//
// A solo router keeps its pass-through promise under partial mode too:
// the one sub-request is req verbatim and the reply crosses unchanged.
// Only when the lone shard is absorbed as a gap does the row speak — split
// over no shards, merged from no replies, it yields the request's empty
// answer.
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
// recycles them.
func (r *Router) finish(pl plan, replies [][]byte) ([]byte, error) {
	out, err := pl.merge(bufpool.Get(), replies)
	release(replies)
	if err != nil {
		bufpool.Put(out)
		return nil, fmt.Errorf("shard: %s: %w", r.name, err)
	}
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

// Do answers one request frame with one reply frame (client.Doer): plan,
// scatter the sub-requests concurrently (bounded by WithParallelism),
// merge. Outside partial mode the first failure cancels the sibling
// sub-queries and surfaces as the root-cause error, and a solo router is
// a pure pass-through — the frame goes to the one shard untouched, so a
// 1-sharded relation is bit-identical on the wire to the unsharded
// protocol (the golden tests pin this).
func (r *Router) Do(ctx context.Context, req []byte) ([]byte, error) {
	rep := health.ReportFrom(ctx)
	if r.solo() && rep == nil {
		return r.shards[0].Do(ctx, req)
	}
	pl, err := r.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	replies := make([][]byte, len(pl.subs))
	err = r.scatter(ctx, len(pl.subs), func(ctx context.Context, k int) error {
		s := &pl.subs[k]
		frame := s.frame
		s.frame = nil
		if !r.admit(rep, s.shard) {
			bufpool.Put(frame)
			return nil
		}
		resp, err := r.shards[s.shard].Do(ctx, frame)
		if err != nil {
			return r.absorb(ctx, rep, s.shard, err)
		}
		replies[k] = resp
		return nil
	})
	if err != nil {
		// A cancelled scatter never reached some sub-requests.
		for _, s := range pl.subs {
			if s.frame != nil {
				bufpool.Put(s.frame)
			}
		}
		release(replies)
		return nil, err
	}
	return r.finish(pl, replies)
}

// GoBatch accepts pre-encoded request frames of any routable type
// (consuming reqs, slice and frames) and runs each one's plan through
// the shard endpoints' own batchers — one GoBatch per shard link,
// preserving request order, so sub-requests bound for the same link
// coalesce into MsgBatch envelopes there exactly as a direct client's
// would. Each returned Call yields the merged reply frame; a request no
// shard can contribute to is answered locally, costing zero bytes.
// Partial mode applies per sub-request as in Do: a failed sub-call
// becomes its shard's gap and the lower-bound answer assembles from the
// shards that replied.
func (r *Router) GoBatch(ctx context.Context, reqs [][]byte) []*client.Call {
	rep := health.ReportFrom(ctx)
	if r.solo() && rep == nil {
		return r.shards[0].GoBatch(ctx, reqs)
	}
	if len(reqs) == 1 {
		// A lone request (most COUNTs of a parallel run) has nothing to
		// group by link: each sub-request is submitted through reqs itself
		// and a child's one-element result carries this router's call back.
		pl, err := r.plan(ctx, reqs[0])
		if err != nil {
			return []*client.Call{failed(r.name, err)}
		}
		var calls []*client.Call
		for k := range pl.subs {
			if s := &pl.subs[k]; r.admit(rep, s.shard) {
				reqs[0] = s.frame
				calls = r.shards[s.shard].GoBatch(ctx, reqs)
				s.call = calls[0]
			} else {
				bufpool.Put(s.frame)
			}
		}
		return append(calls[:0], r.answer(ctx, rep, pl))
	}
	type ref struct{ q, k int } // sub-request k of request q
	calls := make([]*client.Call, len(reqs))
	plans := make([]plan, len(reqs))
	frames := make([][][]byte, len(r.shards))
	refs := make([][]ref, len(r.shards))
	for q, req := range reqs {
		pl, err := r.plan(ctx, req)
		if err != nil {
			calls[q] = failed(r.name, err)
			continue
		}
		for k, s := range pl.subs {
			if !r.admit(rep, s.shard) {
				bufpool.Put(s.frame)
				continue
			}
			frames[s.shard] = append(frames[s.shard], s.frame)
			refs[s.shard] = append(refs[s.shard], ref{q, k})
		}
		plans[q] = pl
	}
	for i, fs := range frames {
		if len(fs) == 0 {
			continue
		}
		for j, c := range r.shards[i].GoBatch(ctx, fs) {
			plans[refs[i][j].q].subs[refs[i][j].k].call = c
		}
	}
	for q, pl := range plans {
		if calls[q] == nil {
			calls[q] = r.answer(ctx, rep, pl)
		}
	}
	return calls
}

// failed returns the call of a request that could not be planned.
func failed(name string, err error) *client.Call {
	return client.NewLazyCall(name, func() ([]byte, error) { return nil, err })
}

// answer returns the call that yields one submitted plan's merged reply:
// gathered on the stack of whoever waits for it, so a probe that routes
// to one child crosses this router without a goroutine. A plan with
// several sub-requests is started at once instead: its round trips
// overlap each other and whatever else the caller submitted, rather than
// beginning when the caller gets round to this call.
func (r *Router) answer(ctx context.Context, rep *health.Report, pl plan) *client.Call {
	c := client.NewLazyCall(r.name, func() ([]byte, error) { return r.gather(ctx, rep, pl) })
	if len(pl.subs) > 1 {
		c.Start()
	}
	return c
}

// gather waits on one request's sub-calls and folds their replies into
// the merged reply frame. Waiting is what sends a queued probe, so every
// sub-call after the first is started before any is awaited. Every
// sub-call is drained even after a failure so its pooled reply frame is
// recycled.
func (r *Router) gather(ctx context.Context, rep *health.Report, pl plan) ([]byte, error) {
	for k, s := range pl.subs {
		if k > 0 && s.call != nil {
			s.call.Start()
		}
	}
	replies := make([][]byte, len(pl.subs))
	var first error
	for k, s := range pl.subs {
		if s.call == nil {
			continue // routed around
		}
		resp, err := s.call.Frame()
		if err != nil {
			if err = r.absorb(ctx, rep, s.shard, err); err != nil && first == nil {
				first = err
			}
			continue
		}
		replies[k] = resp
	}
	if first != nil {
		release(replies)
		return nil, first
	}
	return r.finish(pl, replies)
}
