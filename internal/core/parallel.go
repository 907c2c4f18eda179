package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"repro/internal/geom"
)

// This file is the concurrent execution engine shared by all algorithms.
//
// The paper's device is single-threaded, but nothing in the cost model
// requires serial execution: the two servers are independent (a COUNT to R
// never depends on the reply from S), sibling partitions produced by
// recursive splitting are independent subproblems, and the device can join
// one partition's objects while the next partition is still downloading.
// The engine exploits exactly — and only — that independence:
//
//   - both() overlaps one R-side and one S-side operation (dual-radio
//     probing);
//   - fanout() runs independent sibling tasks on a bounded pool of live
//     partitions, which also pipelines naturally: while one sibling's task
//     is joining downloaded objects on the CPU, another's is blocked on
//     its window download;
//   - the result sink and the iceberg probe ledger are mutex-protected,
//     and decision counters are atomics.
//
// Determinism is preserved by construction. The set of requests issued for
// a partition depends only on that partition (never on scheduling), every
// accumulated quantity is an order-independent sum, and every pair is
// reported by the one cell owning its reference point and sorted at
// result assembly — so a parallel run returns the same
// result set and meters the same byte totals as the sequential run. The
// two scheduling-sensitive exceptions are handled explicitly: UpJoin's
// random confirmation windows derive from a per-window hash instead of a
// shared RNG stream (windowRand), and iceberg bucket count-probes — whose
// bucket grouping depends on which partition first claims an object — fall
// back to sequential sibling order (fanoutSiblings).

// gate holds the two bounds of one parallel run (nil: sequential).
//
// live is the pool of live partition subproblems both and fanout spawn
// onto: liveTasks(env)-1 places for extra goroutines (the calling
// goroutine is the implicit last one). A live partition that is not
// downloading waits on COUNT statistics, which occupy no device buffer
// and are bounded in flight by the link's own window of 4 envelopes of
// MaxBatch (package client), not here.
//
// slots are the Parallelism transfer slots: a partition holds one from
// its first object download to its last use of the objects, so at most
// Parallelism buffer-fulls are resident however many partitions are live.
// A holder never waits for a second slot and never needs a pool place to
// make progress, so the engine cannot deadlock.
type gate struct {
	live  chan struct{}
	slots chan struct{}
}

// liveTasks is the pool rule's first half (chunk is the second; the two
// are all of core that reads Env.BatchSize): how many partition
// subproblems of one run may be live at once. It takes Parallelism ×
// BatchSize outstanding probes to fill Parallelism envelopes, so a
// batched run over a latency-bearing link keeps that many live.
// Everywhere else a round trip costs less than a goroutine hand-off and
// a wider pool only adds scheduling work (measured on daemon-tenants):
// the pool is Parallelism.
func liveTasks(env *Env) int {
	if env.BatchSize > 1 && env.Model.Link.RTT > 0 {
		return env.Parallelism * env.BatchSize
	}
	return env.Parallelism
}

// seqGroup bounds how many request frames one unbatched chunk encodes
// ahead of its link.
const seqGroup = 128

// chunk is the pool rule's second half: how many of a group's n probes
// one task submits at once (probeGroup). Batched, a chunk is one
// envelope, BatchSize. Unbatched, the group splits evenly over
// Parallelism tasks — sequentially that is the whole group — and each
// chunk rides a link of its own as far as the link allows: its own
// pooled TCP connection, pipelined, or its own server worker. So a
// group overlaps Parallelism ways whichever way its link frames it.
func chunk(env *Env, n int) int {
	if env.BatchSize > 1 {
		return env.BatchSize
	}
	p := max(env.Parallelism, 1)
	return max(min((n+p-1)/p, seqGroup), 1)
}

// newGate returns the bounds of a run, or nil for sequential execution.
func newGate(parallelism, live int) *gate {
	if parallelism <= 1 {
		return nil
	}
	return &gate{
		live:  make(chan struct{}, live-1),
		slots: make(chan struct{}, parallelism),
	}
}

// acquire takes a transfer slot for a partition about to download
// objects, waiting while Parallelism others hold theirs; it fails only if
// the run is cancelled first. The holder releases the slot after its last
// use of the objects.
func (x *exec) acquire() error {
	if x.par == nil {
		return nil
	}
	select {
	case x.par.slots <- struct{}{}:
		return nil
	case <-x.ctx.Done():
		return x.cause(x.ctx.Err())
	}
}

// release returns the slot taken by acquire.
func (x *exec) release() {
	if x.par != nil {
		<-x.par.slots
	}
}

// both runs two independent operations, overlapping them when the engine
// is parallel and a pool place is free; otherwise f then g sequentially.
// It returns f's error first (matching the sequential call order), then
// g's. The first failure cancels the run context, so the other operation
// is interrupted mid-round-trip instead of running to completion; the
// root-cause error is reported, not the secondary cancellation.
func (x *exec) both(f, g func() error) error {
	if x.par != nil {
		select {
		case x.par.live <- struct{}{}:
			errc := make(chan error, 1)
			go func() {
				defer func() { <-x.par.live }()
				err := f()
				x.fail(err)
				errc <- err
			}()
			gerr := g()
			x.fail(gerr)
			ferr := <-errc
			if ferr != nil {
				return x.cause(ferr)
			}
			return x.cause(gerr)
		default:
			// Pool saturated: run inline rather than oversubscribe.
		}
	}
	if err := f(); err != nil {
		x.fail(err)
		return x.cause(err)
	}
	if err := g(); err != nil {
		x.fail(err)
		return x.cause(err)
	}
	return nil
}

// fanout runs n independent tasks f(0..n-1). Sequentially it stops at the
// first error, exactly like the loops it replaces. In parallel it
// schedules each task on the pool when a place is free (running it inline
// otherwise, so the caller's goroutine always contributes work and the
// engine cannot deadlock however deep the recursion), waits for all
// scheduled tasks, and returns the first error observed. The first error
// — or a cancellation of the parent context — cancels the run context:
// no further tasks start, and tasks already in flight are interrupted at
// their next round trip instead of running to completion, so fanout
// returns promptly and never leaks a worker.
func (x *exec) fanout(n int, f func(i int) error) error {
	if x.par == nil || n < 2 {
		return x.serial(n, f)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	record := func(err error) {
		x.fail(err)
		if err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	for i := 0; i < n; i++ {
		if failed() || x.ctx.Err() != nil {
			break
		}
		i := i
		if i == n-1 {
			record(f(i))
			break
		}
		select {
		case x.par.live <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-x.par.live }()
				record(f(i))
			}()
		default:
			record(f(i))
		}
	}
	wg.Wait()
	if first == nil && x.ctx.Err() != nil {
		return x.cause(x.ctx.Err())
	}
	return x.cause(first)
}

// fanoutSiblings is fanout for sibling partitions. It degrades to
// sequential order for iceberg runs that combine bucket mode with
// count-probes: there, the bucket grouping of aggregate count-probes
// depends on which partition first claims each R object, so concurrent
// siblings would make the wire framing — and hence the metered bytes —
// scheduling-dependent. Iceberg bucket runs that cannot use count-probes
// (windowed, or MBR data) have no shared ledger and fan out normally.
func (x *exec) fanoutSiblings(n int, f func(i int) error) error {
	if x.spec.Kind == IcebergSemi && x.env.Model.Bucket && x.icebergCountable() {
		return x.serial(n, f)
	}
	return x.fanout(n, f)
}

// serial runs f(0..n-1) in order on the caller's goroutine, stopping at
// the first error or cancellation: fanout's sequential form.
func (x *exec) serial(n int, f func(i int) error) error {
	for i := 0; i < n; i++ {
		if x.ctx.Err() != nil {
			return x.cause(x.ctx.Err())
		}
		if err := f(i); err != nil {
			x.fail(err)
			return x.cause(err)
		}
	}
	return nil
}

// countBoth issues the two root COUNT queries of a window in parallel.
func (x *exec) countBoth(w geom.Rect) (nr, ns cnt, err error) {
	err = x.both(
		func() error {
			n, err := x.count(sideR, w)
			nr = exact(n)
			return err
		},
		func() error {
			n, err := x.count(sideS, w)
			ns = exact(n)
			return err
		},
	)
	if err == nil && x.observing() {
		x.emit(PhaseObserve, "observe/count", w, nr.n, ns.n, 2*x.bytesModel().Taq(), "")
	}
	return nr, ns, err
}

// ensureExactBoth re-counts both sides of w where the given counts are
// estimates, overlapping the two independent COUNTs.
func (x *exec) ensureExactBoth(w geom.Rect, nr, ns cnt) (rn, sn cnt, err error) {
	if nr.exact && ns.exact {
		return nr, ns, nil // the common case: nothing to ask, so no pool place or goroutine
	}
	err = x.both(
		func() error {
			var err error
			rn, err = x.ensureExact(sideR, w, nr)
			return err
		},
		func() error {
			var err error
			sn, err = x.ensureExact(sideS, w, ns)
			return err
		},
	)
	return rn, sn, err
}

// quadrantCountsBoth gathers both sides' quadrant counts of w,
// overlapping the R-side and S-side query batches.
func (x *exec) quadrantCountsBoth(w geom.Rect, nr, ns cnt) (qr, qs [4]cnt, err error) {
	err = x.both(
		func() error {
			var err error
			qr, err = x.quadrantCounts(sideR, w, nr)
			return err
		},
		func() error {
			var err error
			qs, err = x.quadrantCounts(sideS, w, ns)
			return err
		},
	)
	if err == nil && x.observing() {
		x.emit(PhaseObserve, "observe/quadrants", w, nr.n, ns.n, 8*x.bytesModel().Taq(), "")
	}
	return qr, qs, err
}

// windowRand returns a deterministic RNG for decisions about dataset d on
// window w, derived from the run seed and the window geometry. Unlike a
// shared sequential RNG stream, the draw for a window does not depend on
// how many windows were visited before it, so randomized decisions (and
// the requests they trigger) are identical under any scheduling.
func windowRand(seed int64, d side, w geom.Rect) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(seed + 1))
	put(uint64(d))
	put(math.Float64bits(w.MinX))
	put(math.Float64bits(w.MinY))
	put(math.Float64bits(w.MaxX))
	put(math.Float64bits(w.MaxY))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
