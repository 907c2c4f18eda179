package core

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/geom"
	"repro/internal/memjoin"
	"repro/internal/wire"
)

// doHBSJ executes the hash-based spatial join on partition w: download
// both windows and join on the device. When the buffer cannot hold both,
// the window is split into quadrants recursively with COUNT pruning at
// each level, exactly as §3/§4.2 describe ("HBSJ is recursively executed
// and pruning can also be applied at each recursion level").
//
// Under a parallel environment the R-side and S-side requests of each
// step (re-counts, quadrant counts, window downloads) overlap, and the
// four quadrants of a split are processed by the worker pool — so while
// one quadrant's objects are being joined on the device, a sibling's
// download is in flight.
func (x *exec) doHBSJ(w geom.Rect, nr, ns cnt, depth int) error {
	if nr.exact && ns.exact && (nr.n == 0 || ns.n == 0) {
		x.dec.pruned.Add(1)
		return nil
	}
	var err error
	if nr, ns, err = x.ensureExactBoth(w, nr, ns); err != nil {
		return err
	}
	if nr.n == 0 || ns.n == 0 {
		x.dec.pruned.Add(1)
		return nil
	}
	if !x.env.Device.CanHold(nr.n + ns.n) {
		if !x.splittable(w, depth) {
			// The window is denser than the buffer and cannot be split
			// usefully: stream the join as NLSJ probes instead (always
			// feasible — outer objects are probed one bucket at a time).
			outer := sideS
			if nr.n < ns.n {
				outer = sideR
			}
			return x.doNLSJ(w, outer, nr, ns)
		}
		x.dec.repart.Add(1)
		x.emit(PhaseReplan, "replan/hbsj-split", w, nr.n, ns.n, 0, "buffer exceeded, splitting")
		qr, qs, err := x.quadrantCountsBoth(w, nr, ns)
		if err != nil {
			return err
		}
		quads := w.Quadrants()
		return x.fanoutSiblings(4, func(i int) error {
			return x.doHBSJ(quads[i], qr[i], qs[i], depth+1)
		})
	}

	x.dec.hbsj.Add(1)
	if x.observing() {
		x.emit(PhaseTransfer, "transfer/hbsj", w, nr.n, ns.n, x.bytesModel().C1(x.modelStats(w, nr, ns)), "")
	}
	return x.downloadJoin(w)
}

// downloadJoin is the HBSJ leaf: download both sides' windows of w,
// overlapped, and join them on the device. The partition holds a transfer
// slot from before the first download until the join has consumed the
// objects, and then hands both windows back to the free list.
func (x *exec) downloadJoin(w geom.Rect) error {
	if err := x.acquire(); err != nil {
		return err
	}
	defer x.release()
	var robjs, sobjs []geom.Object
	err := x.both(
		func() error {
			var err error
			robjs, err = x.env.R.Window(x.ctx, x.fetchWindow(sideR, w))
			return err
		},
		func() error {
			var err error
			sobjs, err = x.env.S.Window(x.ctx, x.fetchWindow(sideS, w))
			return err
		},
	)
	if err != nil {
		return err
	}
	x.joinLocal(w, robjs, sobjs)
	bufpool.Objects.Put(robjs)
	bufpool.Objects.Put(sobjs)
	return nil
}

// joinLocal joins the objects fetched for partition w on the device and
// records the pairs whose reference points w owns among the cells tiling
// the run's window (geom.Rect.Owned): each pair in the window is reported
// by exactly one cell, and a pair outside it by none. A counting run
// counts them (memjoin.GridCount); a listing one lists them, and
// addPairs copies out of the pooled pair buffer, so it goes back to the
// free list at once. A race-enabled counting run does both.
func (x *exec) joinLocal(w geom.Rect, robjs, sobjs []geom.Object) {
	opt := memjoin.Options{Window: w.Owned(x.window)}
	var pairs []geom.Pair
	if x.listing {
		pairs = memjoin.GridJoin(robjs, sobjs, x.pred, opt, bufpool.Pairs.Get())
	}
	n := len(pairs)
	if x.counting {
		n = memjoin.GridCount(robjs, sobjs, x.pred, opt)
	}
	x.addPairs(n, pairs, robjs)
	bufpool.Pairs.Put(pairs)
}

// doNLSJ executes the nested-loop spatial join on partition w with the
// given outer side: an outer phase that downloads the outer window,
// then a probe phase querying the inner server once per outer object
// (or in buckets, Eq. 6, when the model is configured for bucket
// submission). The two phases are separate methods so the online
// planner can insert a density checkpoint between them — the downloaded
// outer objects are a resumable observation, reused whichever operator
// finishes the window. Under a parallel environment the per-object
// probes are spread over the worker pool in chunks; each probe is an
// independent request, so the probe set — and the metered bytes — do
// not depend on scheduling.
//
// For iceberg semi-joins with outer R over a whole-space window, probes
// are aggregate RANGE-COUNT queries: only the per-object match count is
// transferred, never the matching objects.
func (x *exec) doNLSJ(w geom.Rect, outer side, nr, ns cnt) error {
	outerObjs, done, err := x.nlsjOuterPhase(w, outer, nr, ns)
	if done || err != nil {
		return err
	}
	defer x.release()
	return x.nlsjProbePhase(w, outer, outerObjs)
}

// nlsjOuterPhase is NLSJ's first phase: confirm the counts, prune empty
// windows, and download the outer relation's window. done reports that
// the window needs no probe phase (pruned or empty download). Unless done,
// it returns holding the transfer slot it took before the download: the
// caller releases it after its last use of the outer objects. The probe
// phase's chunks run under that slot and take none of their own.
func (x *exec) nlsjOuterPhase(w geom.Rect, outer side, nr, ns cnt) (outerObjs []geom.Object, done bool, err error) {
	if nr, ns, err = x.ensureExactBoth(w, nr, ns); err != nil {
		return nil, true, err
	}
	if nr.n == 0 || ns.n == 0 {
		x.dec.pruned.Add(1)
		return nil, true, nil
	}
	x.dec.nlsj.Add(1)

	if err = x.acquire(); err != nil {
		return nil, true, err
	}
	outerObjs, err = x.remote(outer).Window(x.ctx, x.fetchWindow(outer, w))
	if err != nil {
		x.release()
		return nil, true, err
	}
	if x.observing() {
		p := x.bytesModel()
		x.emit(PhaseTransfer, "transfer/nlsj-outer", w, nr.n, ns.n,
			p.QueryBytes()+p.TB(len(outerObjs)*p.BObj), "outer window downloaded")
	}
	if len(outerObjs) == 0 {
		x.release()
		return nil, true, nil
	}
	return outerObjs, false, nil
}

// nlsjProbePhase is NLSJ's second phase: probe the inner server with the
// outer objects downloaded by nlsjOuterPhase. It consumes the outer
// window: once every probe has been collected, the window goes back to
// the free list.
func (x *exec) nlsjProbePhase(w geom.Rect, outer side, outerObjs []geom.Object) error {
	defer bufpool.Objects.Put(outerObjs)
	inner := sideS
	if outer == sideS {
		inner = sideR
	}
	if x.spec.Kind == IcebergSemi && outer == sideR && x.icebergCountable() {
		return x.icebergCountProbes(outerObjs)
	}

	if x.env.Model.Bucket {
		err := x.bucketProbes(w, outer, inner, outerObjs)
		if err != errNonPointBucket {
			return err
		}
		// Bucket probing requires point outers; fall back to per-object
		// probing otherwise.
	}
	return x.singleProbes(w, outer, inner, outerObjs)
}

// singleProbes sends one query per outer object, as one probe group: an
// ε-RANGE query for point outers, a WINDOW query over the ε-expanded MBR
// otherwise (the paper's "simulate ε-RANGE by a WINDOW query", §3).
func (x *exec) singleProbes(w geom.Rect, outer, inner side, outerObjs []geom.Object) error {
	eps := x.spec.Eps
	return probeGroup(x, x.remote(inner), len(outerObjs),
		func(i int) []byte {
			if o := outerObjs[i]; x.ranged(o) {
				return wire.AppendRange(bufpool.Get(), o.Center(), eps)
			}
			return wire.AppendWindow(bufpool.Get(), x.probeWindow(outerObjs[i]))
		},
		(*client.Call).Objects,
		func(i int, matches []geom.Object) {
			x.collectProbe(w, outer, outerObjs[i], matches)
			bufpool.Objects.Put(matches)
		})
}

// ranged reports whether outer object o is probed by an ε-RANGE query.
func (x *exec) ranged(o geom.Object) bool { return o.IsPoint() && x.spec.Eps > 0 }

// probeWindow is the WINDOW query standing in for o's ε-RANGE.
func (x *exec) probeWindow(o geom.Object) geom.Rect {
	if x.spec.Eps > 0 {
		return o.MBR.Expand(x.spec.Eps)
	}
	return o.MBR
}

// errNonPointBucket signals that bucket probing is not applicable.
var errNonPointBucket = fmt.Errorf("core: bucket probes require point outer objects")

// bucketProbes submits outer objects as bucket ε-RANGE queries sized to
// the device buffer. Only point outers are supported (the bucket wire
// format carries probe points). The chunking is fixed by the outer list
// before any request is issued, so concurrent buckets stay byte-identical
// to sequential ones.
func (x *exec) bucketProbes(w geom.Rect, outer, inner side, outerObjs []geom.Object) error {
	for _, o := range outerObjs {
		if !o.IsPoint() || x.spec.Eps <= 0 {
			return errNonPointBucket
		}
	}
	rin := x.remote(inner)
	bucket := x.env.Device.BufferObjects
	if bucket <= 0 || bucket > len(outerObjs) {
		bucket = len(outerObjs)
	}
	nChunks := (len(outerObjs) + bucket - 1) / bucket
	return x.fanout(nChunks, func(ci int) error {
		start := ci * bucket
		end := start + bucket
		if end > len(outerObjs) {
			end = len(outerObjs)
		}
		chunk := outerObjs[start:end]
		pts := make([]geom.Point, len(chunk))
		for i, o := range chunk {
			pts[i] = o.Center()
		}
		groups, err := rin.BucketRange(x.ctx, pts, x.spec.Eps)
		if err != nil {
			return err
		}
		for i, g := range groups {
			x.collectProbe(w, outer, chunk[i], g)
		}
		return nil
	})
}

// collectProbe records the pairs produced by one outer object's probe of
// partition w. Matches are filtered by the predicate (window probes
// over-approximate distance) and by ownership, as in joinLocal: the pair's
// reference point must lie in the part of w it owns.
func (x *exec) collectProbe(w geom.Rect, outer side, o geom.Object, matches []geom.Object) {
	owned := w.Owned(x.window)
	pairs := bufpool.Pairs.Get()
	for _, m := range matches {
		if !x.pred.Match(o.MBR, m.MBR) {
			continue
		}
		var r, s geom.Object
		if outer == sideR {
			r, s = o, m
		} else {
			r, s = m, o
		}
		if !owned.ContainsPoint(geom.RefPointEps(r.MBR, s.MBR, x.spec.Eps)) {
			continue
		}
		pairs = append(pairs, geom.Pair{RID: r.ID, SID: s.ID})
	}
	// The R objects offered to the sink may exceed the ones paired: it
	// only ever looks up ids that occur in pairs.
	if outer == sideR {
		x.addPairs(len(pairs), pairs, []geom.Object{o})
	} else {
		x.addPairs(len(pairs), pairs, matches)
	}
	bufpool.Pairs.Put(pairs)
}

// icebergCountable reports whether aggregate count-probes preserve the
// iceberg semantics: the query window must cover the whole S dataset
// (RANGE-COUNT counts matches anywhere in S) and the R objects must be
// points (RANGE-COUNT probes are points).
func (x *exec) icebergCountable() bool {
	return x.pointData(sideR) && x.window.Contains(x.env.infoS.Bounds)
}

// icebergCountProbes obtains each outer R object's global match count
// with one aggregate query (or one bucket of them), transferring eight
// bytes per probe instead of the matching objects. Each R id is probed at
// most once across the whole execution: ids are claimed in the shared
// ledger (under the sink mutex) before any probe is issued, so concurrent
// partitions sharing an object through overlapping ε/2-expanded fetch
// windows never probe it twice.
func (x *exec) icebergCountProbes(outerObjs []geom.Object) error {
	fresh := outerObjs[:0:0]
	x.mu.Lock()
	for _, o := range outerObjs {
		if !x.probed[o.ID] {
			x.probed[o.ID] = true
			x.robjs[o.ID] = o
			fresh = append(fresh, o)
		}
	}
	x.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	if x.env.Model.Bucket {
		pts := make([]geom.Point, len(fresh))
		for i, o := range fresh {
			pts[i] = o.Center()
		}
		x.dec.agg.Add(int64(len(fresh)))
		ns, err := x.env.S.BucketRangeCount(x.ctx, pts, x.spec.Eps)
		if err != nil {
			return err
		}
		x.mu.Lock()
		for i, n := range ns {
			x.counts[fresh[i].ID] = int(n)
		}
		x.mu.Unlock()
		return nil
	}
	x.dec.agg.Add(int64(len(fresh)))
	return probeGroup(x, x.env.S, len(fresh),
		func(i int) []byte { return wire.AppendRangeCount(bufpool.Get(), fresh[i].Center(), x.spec.Eps) },
		(*client.Call).Count,
		func(i, n int) {
			x.mu.Lock()
			x.counts[fresh[i].ID] = n
			x.mu.Unlock()
		})
}
