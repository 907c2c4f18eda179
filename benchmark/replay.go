package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/memjoin"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Replays: the layers below the handler seam (wire, rtree) and beside
// the blocking path (memjoin, merge, breaker, planner) have no seam to
// decorate, so they are timed by calling their public functions directly
// — on the frames one traced join actually exchanged, or on the
// workload's relations.

const replayRounds = 5

// timeRounds runs f replayRounds times and returns the median duration
// of a round and the mean number of heap allocations per round.
func timeRounds(f func()) (time.Duration, float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	ds := make([]float64, replayRounds)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&ms)
	return time.Duration(median(ds)), float64(ms.Mallocs-mallocs) / replayRounds
}

// codec is the reusable state of recode, as a serving loop would hold it.
type codec struct {
	pts    []geom.Point
	objs   []geom.Object
	counts []int64
	subs   [][]byte
	arena  []byte
}

// recode decodes one frame and encodes it again onto dst: one pass
// through both halves of the codec for that message type.
func (c *codec) recode(frame, dst []byte) ([]byte, error) {
	switch t := wire.Type(frame); t {
	case wire.MsgWindow, wire.MsgCount, wire.MsgAvgArea:
		w, err := wire.DecodeWindowLike(frame, t)
		switch t {
		case wire.MsgWindow:
			return wire.AppendWindow(dst, w), err
		case wire.MsgCount:
			return wire.AppendCount(dst, w), err
		}
		return wire.AppendAvgArea(dst, w), err
	case wire.MsgRange, wire.MsgRangeCount:
		p, eps, err := wire.DecodeRangeLike(frame, t)
		if t == wire.MsgRange {
			return wire.AppendRange(dst, p, eps), err
		}
		return wire.AppendRangeCount(dst, p, eps), err
	case wire.MsgBucketRange, wire.MsgBucketRangeCount:
		var eps float64
		var err error
		c.pts, eps, err = wire.DecodeBucketRangeLikeAppend(frame, t, c.pts[:0])
		if t == wire.MsgBucketRange {
			return wire.AppendBucketRange(dst, c.pts, eps), err
		}
		return wire.AppendBucketRangeCount(dst, c.pts, eps), err
	case wire.MsgInfo:
		return wire.AppendInfo(dst), nil
	case wire.MsgObjects:
		var err error
		c.objs, err = wire.DecodeObjectsAppend(frame, c.objs[:0])
		return wire.AppendObjects(dst, c.objs), err
	case wire.MsgCountReply:
		n, err := wire.DecodeCountReply(frame)
		return wire.AppendCountReply(dst, n), err
	case wire.MsgCountsReply:
		var err error
		c.counts, err = wire.DecodeCountsReplyAppend(frame, c.counts[:0])
		return wire.AppendCountsReply(dst, c.counts), err
	case wire.MsgFloatReply:
		f, err := wire.DecodeFloatReply(frame)
		return wire.AppendFloatReply(dst, f), err
	case wire.MsgInfoReply:
		info, err := wire.DecodeInfoReply(frame)
		return wire.AppendInfoReply(dst, info), err
	case wire.MsgBucketObjects:
		groups, err := wire.DecodeBucketObjects(frame)
		return wire.AppendBucketObjects(dst, groups), err
	case wire.MsgBatch, wire.MsgBatchReply:
		subs, err := wire.DecodeBatchAppend(frame, t, nil)
		if err != nil {
			return dst, err
		}
		// Sub-frames are recoded into one arena, then enveloped.
		c.arena, c.subs = c.arena[:0], c.subs[:0]
		offs := make([]int, 0, len(subs)+1)
		for _, sub := range subs {
			offs = append(offs, len(c.arena))
			if c.arena, err = c.recode(sub, c.arena); err != nil {
				return dst, err
			}
		}
		offs = append(offs, len(c.arena))
		for i := range subs {
			c.subs = append(c.subs, c.arena[offs[i]:offs[i+1]])
		}
		if t == wire.MsgBatch {
			return wire.AppendBatch(dst, c.subs), nil
		}
		return wire.AppendBatchReply(dst, c.subs), nil
	default:
		return dst, fmt.Errorf("replay: no codec pass for %v", t)
	}
}

// replayWire passes every recorded frame, requests and replies, through
// the codec on pooled buffers.
func replayWire(frames []frame, m map[string]float64) error {
	if len(frames) == 0 {
		return nil
	}
	var c codec
	var payload int
	for _, f := range frames {
		for _, fr := range [][]byte{f.req, f.resp} {
			payload += len(fr)
			// Once, unmeasured: the pass must reproduce the frame.
			out, err := c.recode(fr, nil)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, fr) {
				return fmt.Errorf("replay: %v frame of %d bytes re-encodes to a different frame", wire.Type(fr), len(fr))
			}
		}
	}
	d, allocs := timeRounds(func() {
		for _, f := range frames {
			buf, _ := c.recode(f.req, bufpool.Get())
			bufpool.Put(buf)
			buf, _ = c.recode(f.resp, bufpool.Get())
			bufpool.Put(buf)
		}
	})
	n := float64(2 * len(frames))
	m["wire.codec_ms_per_join"] = d.Seconds() * 1e3
	m["wire.ns_per_frame"] = float64(d) / n
	m["wire.allocs_per_frame"] = allocs / n
	m["wire.payload_bytes_per_join"] = float64(payload)
	return nil
}

// requests returns the recorded request frames with envelopes opened:
// what the servers' handlers saw, one entry per query, keyed by server.
func requests(frames []frame) (links []string, reqs [][]byte) {
	for _, f := range frames {
		subs := [][]byte{f.req}
		if wire.Type(f.req) == wire.MsgBatch {
			subs, _ = wire.DecodeBatch(f.req, wire.MsgBatch)
		}
		for _, sub := range subs {
			links, reqs = append(links, f.link), append(reqs, sub)
		}
	}
	return links, reqs
}

// replayTrees runs one join's queries straight on the servers' R-trees.
func replayTrees(frames []frame, servers map[string]*server.Server, m map[string]float64) {
	links, reqs := requests(frames)
	type query struct {
		tree *rtree.Tree
		t    wire.MsgType
		w    geom.Rect
		p    geom.Point
		eps  float64
	}
	var qs []query
	for i, req := range reqs {
		srv := servers[links[i]]
		if srv == nil {
			continue
		}
		q := query{tree: srv.Tree(), t: wire.Type(req)}
		switch q.t {
		case wire.MsgCount, wire.MsgWindow:
			q.w, _ = wire.DecodeWindowLike(req, q.t)
		case wire.MsgRange, wire.MsgRangeCount:
			q.p, q.eps, _ = wire.DecodeRangeLike(req, q.t)
		default:
			continue // INFO and the like never reach the tree's search
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return
	}
	var objs []geom.Object
	d, _ := timeRounds(func() {
		for _, q := range qs {
			switch q.t {
			case wire.MsgCount:
				sink += q.tree.Count(q.w)
			case wire.MsgWindow:
				objs = q.tree.Search(q.w, objs[:0])
			case wire.MsgRangeCount:
				sink += q.tree.CountDist(q.p, q.eps)
			case wire.MsgRange:
				objs = q.tree.SearchDist(q.p, q.eps, objs[:0])
			}
		}
	})
	m["rtree.busy_ms_per_join"] = d.Seconds() * 1e3
	m["rtree.ns_per_query"] = float64(d) / float64(len(qs))
}

// sink keeps results the replays compute alive.
var sink int

// replayServers answers one join's recorded frames on stand-in servers.
// It is how a sharded fleet's server time is measured: ServeLocal builds
// its servers itself, so there is no handler to decorate, only
// transports.
func replayServers(frames []frame, servers map[string]*server.Server, m map[string]float64) {
	var n int
	d, _ := timeRounds(func() {
		n = 0
		for _, f := range frames {
			if srv := servers[f.link]; srv != nil {
				bufpool.Put(srv.HandleAppend(f.req, bufpool.Get()))
				n++
			}
		}
	})
	if n == 0 {
		return
	}
	m["server.busy_ms_per_join"] = d.Seconds() * 1e3
	m["server.requests_per_join"] = float64(n)
	m["server.ns_per_request"] = float64(d) / float64(n)
}

// shardServers rebuilds the servers ServeLocal boots for one relation,
// under the names its replica transports carry.
func shardServers(name string, objs []geom.Object, sc scenario, into map[string]*server.Server) {
	parts := shard.Assign(objs, sc.Shards)
	for i, part := range parts {
		srv := server.New(name, part)
		for j := 1; j <= sc.Replicas; j++ {
			into[fmt.Sprintf("%s%d/%d-r%d", name, i+1, len(parts), j)] = srv
		}
	}
}

// replayRelations times the pieces that depend only on the relations.
func replayRelations(sc scenario, r, s []geom.Object, m map[string]float64) {
	var pairs []geom.Pair
	d, allocs := timeRounds(func() {
		pairs = memjoin.GridJoin(r, s, memjoin.WithinDist(joinSpec.Eps), memjoin.Options{}, pairs[:0])
	})
	m["memjoin.gridjoin_ms"] = d.Seconds() * 1e3
	m["memjoin.allocs_per_call"] = allocs

	d, _ = timeRounds(func() { sink += rtree.Bulk(r).Len() })
	m["rtree.bulk_load_ms"] = d.Seconds() * 1e3

	if sc.Shards > 1 {
		parts := shard.Assign(r, sc.Shards) // each part is in ID order, as shard replies are
		var dst []geom.Object
		d, _ = timeRounds(func() { dst = shard.MergeObjects(dst[:0], parts) })
		m["shard.merge_objects_ns"] = float64(d)
	}
	if sc.Breakers {
		const n = 100000
		b := health.NewBreaker("bench", health.Config{})
		d, _ = timeRounds(func() {
			for i := 0; i < n; i++ {
				if b.Allow() {
					b.ReportSuccess(time.Microsecond)
				}
			}
		})
		m["health.allow_ns"] = float64(d) / n
	}
	if sc.Name == "device-probe" {
		// No workload runs the auto planner, so it is on no blocking
		// path; this is the baseline for a later one that does.
		const n = 1000
		obs := observations(sc, r, s)
		d, _ = timeRounds(func() {
			for i := 0; i < n; i++ {
				sink += len(plan.Planner{}.Choose(obs).Candidates)
			}
		})
		m["plan.choose_us"] = d.Seconds() * 1e6 / n
	}
}

// observations is what the planner would know about the whole-space join
// after its observe phase: cardinalities, quadrant counts, default links.
func observations(sc scenario, r, s []geom.Object) plan.Observations {
	w := dataset.World // the relations are anchored at its corners
	quads := func(objs []geom.Object) *[4]int {
		var q [4]int
		for i, qr := range w.Quadrants() {
			for _, o := range objs {
				if qr.ContainsPoint(o.Center()) {
					q[i]++
				}
			}
		}
		return &q
	}
	link := plan.LinkObs{Config: netsim.DefaultLink(), Price: 1}
	return plan.Observations{
		Window: w, NR: len(r), NS: len(s), Eps: joinSpec.Eps, WholeSpace: true,
		Buffer: sc.Buffer, LinkR: link, LinkS: link, QuadR: quads(r), QuadS: quads(s), SkewR: 1, SkewS: 1,
	}
}
