package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/memjoin"
	"repro/internal/netsim"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// maxDepth bounds the recursive partitioning of all algorithms. At 32
// levels the cells of any realistic window are far below coordinate
// resolution; hitting the bound (e.g. many coincident points exceeding
// the buffer) forces a physical operator instead of further splitting.
const maxDepth = 32

// side identifies a dataset within an execution.
type side int

const (
	sideR side = iota
	sideS
)

// exec carries the per-run state shared by all algorithms: environment,
// spec, predicate, result sink, decision counters, and the bounds of the
// concurrent engine (see parallel.go). The sink and the iceberg
// ledger are guarded by mu; decision counters are atomics.
type exec struct {
	env  *Env
	spec Spec
	pred memjoin.Pred
	dec  decisions
	par  *gate // nil = sequential execution
	// reqs is the sequential engine's submission scratch (see frames).
	reqs [][]byte
	// alg is the running algorithm's name, stamped on phase events.
	alg string
	// r0 and s0 are the meter snapshots taken when the run began (after
	// prepare), so Stats and phase events cover exactly this run.
	r0, s0 netsim.Usage
	// rl0 and sl0 snapshot the per-tree-level usage of each relation at
	// run start (nil for flat/unsharded relations), so Stats.RLevels and
	// SLevels cover exactly this run too.
	rl0, sl0 []netsim.Usage
	// explain, non-nil only for the adaptive algorithm, accumulates the
	// phase-by-phase estimated-vs-metered report attached to the Result.
	// Its phase log is appended from concurrent workers under explainMu.
	explain   *Explain
	explainMu sync.Mutex
	// ctx is the run's context: a cancellable child of the caller's
	// context. The first error anywhere in the run cancels it, so every
	// sibling probe or download in flight is interrupted instead of
	// running to completion against a failed execution.
	ctx       context.Context
	cancelRun context.CancelFunc
	// window is the effective query window of this run: env.Window
	// expanded by ε/2 (the root is a partition cell like any other), so
	// that reference points on the window hull are not lost. Oracle
	// applies the same expansion. Cells apply it through geom.Rect.Owned.
	window geom.Rect
	// rep collects the completeness gaps of a degraded run. Non-nil only
	// under Env.AllowPartial; it rides in ctx (health.WithReport) so the
	// shard routers can record the shards they routed around.
	rep *health.Report

	// failMu guards failErr, the first non-cancellation error of the run
	// (the root cause reported by Run when secondary workers fail with
	// context.Canceled after the run context was torn down).
	failMu  sync.Mutex
	failErr error

	// counting is set for a count-only run (Spec.CountOnly, not iceberg):
	// the device counts its matches. listing is set when the sink keeps
	// the pairs: every other run, and every run of a race-enabled build,
	// which checks the count against the list.
	counting, listing bool

	// sink (all fields below are guarded by mu)
	mu     sync.Mutex
	n      int                    // pairs recorded
	pairs  []geom.Pair            // the pairs themselves, when listing
	robjs  map[uint32]geom.Object // iceberg: R geometry seen (the output is objects)
	counts map[uint32]int         // iceberg: exact global match count per R id
	probed map[uint32]bool        // iceberg: R ids already count-probed
}

func newExec(ctx context.Context, env *Env, spec Spec, alg string) (*exec, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var rep *health.Report
	if env.AllowPartial {
		// Installed before prepare so even the INFO fetch may degrade:
		// every query of the run (prepare included) carries the collector.
		rep = health.NewReport()
		ctx = health.WithReport(ctx, rep)
	}
	if err := env.prepare(ctx); err != nil {
		return nil, err
	}
	counting := spec.CountOnly && spec.Kind != IcebergSemi
	x := &exec{
		env:      env,
		spec:     spec,
		pred:     spec.pred(),
		counting: counting,
		listing:  !counting || testenv.Race,
		par:      newGate(env.Parallelism, liveTasks(env)),
		alg:      alg,
		rep:      rep,
	}
	// Snapshot the meters after prepare: INFO traffic belongs to the
	// environment, not to any one run, exactly as when the algorithms
	// snapshotted around newExec themselves.
	x.r0, x.s0 = env.Usage()
	x.rl0, x.sl0 = levelUsages(env.R), levelUsages(env.S)
	x.ctx, x.cancelRun = context.WithCancel(ctx)
	x.window = env.Window
	if spec.Eps > 0 {
		x.window = env.Window.Expand(spec.Eps / 2)
	}
	if spec.Kind == IcebergSemi {
		x.robjs = make(map[uint32]geom.Object)
		x.counts = make(map[uint32]int)
		x.probed = make(map[uint32]bool)
	}
	return x, nil
}

// close releases the run context. Algorithms defer it so an aborted run
// does not leak its context's resources.
func (x *exec) close() { x.cancelRun() }

// fail records err as the run's root failure — unless it is a secondary
// cancellation triggered by an earlier failure — and cancels the run
// context, interrupting every sibling operation still in flight.
func (x *exec) fail(err error) {
	if err == nil {
		return
	}
	x.failMu.Lock()
	if x.failErr == nil && !errors.Is(err, context.Canceled) {
		x.failErr = err
	}
	x.failMu.Unlock()
	x.cancelRun()
}

// cause maps a phase error to the run's root failure: once fail has
// recorded a real error, sibling workers observe context.Canceled, and
// reporting that instead of the root cause would hide the actual fault.
func (x *exec) cause(err error) error {
	if err == nil {
		return nil
	}
	x.failMu.Lock()
	defer x.failMu.Unlock()
	if x.failErr != nil {
		return x.failErr
	}
	return err
}

// remote returns the probe endpoint for one side.
func (x *exec) remote(d side) Probe {
	if d == sideR {
		return x.env.R
	}
	return x.env.S
}

// pointData reports whether the side's dataset is point-only (from INFO).
func (x *exec) pointData(d side) bool {
	if d == sideR {
		return x.env.infoR.PointData
	}
	return x.env.infoS.PointData
}

// fetchWindow returns the window used to retrieve either side's objects
// for partition w: for distance joins the cell is expanded by ε/2 on
// every side (§3: "the cells are extended by ε/2 at each side before they
// are sent as window queries"), so that any pair whose reference point
// (geom.RefPointEps) lies in w has both objects inside the fetch windows.
func (x *exec) fetchWindow(d side, w geom.Rect) geom.Rect {
	if x.spec.Eps > 0 {
		return w.Expand(x.spec.Eps / 2)
	}
	return w
}

// splittable reports whether partitioning w further can possibly help.
// Below a cell extent of ~2ε the ε-expansion of the R-side fetch windows
// dominates the cell itself, so quadrant counts cannot shrink and no
// pruning is possible; recursing there only burns aggregate queries (and,
// in degenerate cases, never terminates). The depth bound covers ε = 0
// workloads with coincident objects.
func (x *exec) splittable(w geom.Rect, depth int) bool {
	if depth >= maxDepth {
		return false
	}
	if x.spec.Eps > 0 {
		lim := 2 * x.spec.Eps
		if w.Width() <= lim && w.Height() <= lim {
			return false
		}
	}
	return true
}

// count issues one COUNT aggregate query for side d on partition w.
func (x *exec) count(d side, w geom.Rect) (int, error) {
	x.dec.agg.Add(1)
	var n [1]int
	err := x.countRemote(d, []geom.Rect{x.fetchWindow(d, w)}, n[:])
	return n[0], err
}

// countRemote issues a handful of COUNTs — a lone query, a quadrant
// group — one per already-fetch-expanded window, filling ns in window
// order. It is probeGroup without the fan-out — one submission, on the
// caller's goroutine — because a handful is not worth splitting and the
// fan-out's closures would escape.
func (x *exec) countRemote(d side, fws []geom.Rect, ns []int) error {
	reqs := x.frames(len(fws))
	for i, fw := range fws {
		reqs[i] = wire.AppendCount(bufpool.Get(), fw)
	}
	return collect(x, x.remote(d).GoBatch(x.ctx, reqs), (*client.Call).Count, func(i, n int) { ns[i] = n })
}

// frames returns the slice a submission of n request frames is built in.
// GoBatch takes the frames and leaves the slice, so the sequential engine
// — one goroutine, one submission at a time — builds every submission of
// a run in the same one.
func (x *exec) frames(n int) [][]byte {
	if x.par != nil {
		return make([][]byte, n)
	}
	if cap(x.reqs) < n {
		x.reqs = make([][]byte, n)
	}
	return x.reqs[:n]
}

// collect consumes the calls of one submission, handing each decoded
// reply to use, and returns the first error. decode runs for every call
// even after one has failed: each Call must be drained by exactly one
// accessor so its pooled reply frame is recycled. The first error fails
// the run at once: calls not yet sent — each one a layer evaluates
// lazily, per request — then fail on the cancelled run context instead
// of each spending its retries on a run that is lost.
// Work used after the first error is discarded with the failed run.
func collect[T any](x *exec, calls []*client.Call, decode func(*client.Call) (T, error), use func(i int, v T)) error {
	var firstErr error
	for i, c := range calls {
		v, err := decode(c)
		if err == nil {
			use(i, v)
		} else if firstErr == nil {
			firstErr = err
			x.fail(err)
		}
	}
	return firstErr
}

// probeGroup is the one probe-group primitive: n independent probes on
// one remote, probe i yielding a T that use consumes. The group is cut
// into chunks by the pool rule (chunk, parallel.go) before any request is
// issued, so sequential runs send a deterministic frame sequence; the
// chunks fan out on the live-partition pool, each submitted atomically
// (GoBatch) and collected by the task that submitted it. How a chunk
// crosses the link — an envelope, bare frames pipelined, or one round
// trip per probe — is the link's business (client.Remote.GoBatch), and
// every probe is the same query whichever it is. encode builds the i-th
// request frame (into a pooled buffer whose ownership passes to the
// client); decode is the Call accessor for the reply.
func probeGroup[T any](x *exec, rem Probe, n int, encode func(i int) []byte,
	decode func(*client.Call) (T, error), use func(i int, v T)) error {
	size := chunk(x.env, n)
	return x.fanout((n+size-1)/size, func(ci int) error {
		start := ci * size
		reqs := x.frames(min(size, n-start))
		for i := range reqs {
			reqs[i] = encode(start + i)
		}
		return collect(x, rem.GoBatch(x.ctx, reqs), decode, func(i int, v T) { use(start+i, v) })
	})
}

// countAll issues one COUNT per window for side d as one probe group.
// Counts are returned in window order (meaningless on error).
func (x *exec) countAll(d side, ws []geom.Rect) ([]int, error) {
	x.dec.agg.Add(int64(len(ws)))
	ns := make([]int, len(ws))
	err := probeGroup(x, x.remote(d), len(ws),
		func(i int) []byte { return wire.AppendCount(bufpool.Get(), x.fetchWindow(d, ws[i])) },
		(*client.Call).Count,
		func(i, n int) { ns[i] = n })
	return ns, err
}

// cnt is a partition-count annotated with whether it was measured (true)
// or estimated under a uniformity assumption (false).
type cnt struct {
	n     int
	exact bool
}

func exact(n int) cnt  { return cnt{n: n, exact: true} }
func approx(n int) cnt { return cnt{n: n} }

// ensureExact re-counts w when c is an estimate. Physical operators call
// it before acting, implementing UpJoin's "issue additional aggregate
// queries only when accuracy is crucial".
func (x *exec) ensureExact(d side, w geom.Rect, c cnt) (cnt, error) {
	if c.exact {
		return c, nil
	}
	n, err := x.count(d, w)
	if err != nil {
		return c, err
	}
	return exact(n), nil
}

// quadrantCounts returns the exact counts of the four quadrants of w for
// side d. For point datasets it issues three COUNT queries and derives
// the fourth from the parent count (|Dw'4| = |Dw| - Σ|Dw'i|, §4.1); MBR
// datasets replicate across quadrants, so all four are queried.
func (x *exec) quadrantCounts(d side, w geom.Rect, parent cnt) ([4]cnt, error) {
	var out [4]cnt
	q := w.Quadrants()
	// Point datasets derive the fourth count from the parent (§4.1:
	// |Dw'4| = |Dw| − Σ|Dw'i|). With ε = 0 the quadrants partition w
	// exactly and the derived value is exact; with ε > 0 the ε/2-expanded
	// fetch windows overlap, so the derived value is only an estimate and
	// is marked approximate — the physical operators re-count before
	// trusting it (in particular, an approximate zero never prunes).
	derive := x.pointData(d) && parent.exact
	last := 4
	if derive {
		last = 3
	}
	fws, ns := q[:last], make([]int, 4)[:last]
	for i := range fws {
		fws[i] = x.fetchWindow(d, fws[i])
	}
	x.dec.agg.Add(int64(last))
	if err := x.countRemote(d, fws, ns); err != nil {
		return out, err
	}
	sum := 0
	for i, n := range ns {
		out[i] = exact(n)
		sum += n
	}
	if derive {
		n := parent.n - sum
		if n < 0 {
			n = 0
		}
		if x.spec.Eps == 0 {
			out[3] = exact(n)
		} else {
			out[3] = approx(n)
		}
	}
	return out, nil
}

// --- result sink ---------------------------------------------------------

// addPairs records n join pairs, listed in ps when the run lists them
// (a counting run may pass ps nil). robjs are R objects the pairs may
// refer to; their geometry is remembered only by iceberg runs, whose
// output is objects — every other kind reports ids and never reads it.
// Safe for concurrent workers; every pair arrives once (geom.Rect.Owned)
// and result assembly sorts, so insertion order does not matter. The
// list is drawn from the free list, which result hands back.
func (x *exec) addPairs(n int, ps []geom.Pair, robjs []geom.Object) {
	x.mu.Lock()
	x.n += n
	if x.listing {
		if x.pairs == nil && len(ps) > 0 {
			x.pairs = bufpool.Pairs.GetCap(len(ps))
		}
		x.pairs = append(x.pairs, ps...)
	}
	if x.spec.Kind == IcebergSemi {
		for _, o := range robjs {
			x.robjs[o.ID] = o
		}
	}
	x.mu.Unlock()
}

// result assembles the Result, sorting the listed pairs and copying them
// out of the sink, so the sink goes back to the free list; a counting
// run has no list to sort or copy. The pairs are unique as they arrive —
// each is reported by the one partition that owns its reference point —
// which race-enabled builds check, counting runs included, along with
// the count against the list. It must be called only after every worker
// of the run has joined.
func (x *exec) result() *Result {
	pairs := x.pairs // nil in a counting run of a race-free build
	memjoin.SortPairs(pairs)
	if testenv.Race {
		for i := 1; i < len(pairs); i++ {
			if pairs[i] == pairs[i-1] {
				panic(fmt.Sprintf("core: %s reported pair %v twice", x.alg, pairs[i]))
			}
		}
		if x.n != len(pairs) {
			panic(fmt.Sprintf("core: %s counted %d pairs and listed %d", x.alg, x.n, len(pairs)))
		}
	}
	res := &Result{Count: x.n}
	switch {
	case x.spec.Kind == IcebergSemi:
		// Add the pair-derived counts to the probe-derived ones. An R id
		// is counted either via probes (exact global count, recorded
		// once) or via its pairs — never both, enforced by probed[].
		for _, p := range pairs {
			if !x.probed[p.RID] {
				x.counts[p.RID]++
			}
		}
		res.Objects = icebergFilter(x.counts, x.robjs, x.spec.MinMatches)
		res.Count = len(res.Objects)
	case !x.counting && len(pairs) > 0:
		res.Pairs = slices.Clone(pairs) // not zeroed first, unlike make
	}
	bufpool.Pairs.Put(x.pairs)
	x.pairs = nil
	if x.rep != nil {
		gaps := x.rep.Gaps()
		total := probeShards(x.env.R) + probeShards(x.env.S)
		res.Completeness = &health.Completeness{
			ShardsTotal:    total,
			ShardsAnswered: total - len(gaps),
			Gaps:           gaps,
		}
	}
	return res
}

// finish assembles the Result with this run's traffic stats (and, for
// adaptive runs, the explain report). It must be called only after every
// worker of the run has joined.
func (x *exec) finish() *Result {
	res := x.result()
	res.Stats = x.env.statsSince(x.r0, x.s0, &x.dec)
	res.Stats.RLevels = levelWireSince(x.env.R, x.rl0)
	res.Stats.SLevels = levelWireSince(x.env.S, x.sl0)
	res.Explain = x.explain
	return res
}

// probeShards counts the failure domains behind one relation endpoint: a
// router reports its shard count, a bare remote is one domain.
func probeShards(p Probe) int {
	if ns, ok := p.(interface{ NumShards() int }); ok {
		return ns.NumShards()
	}
	return 1
}

// --- cost-model adapters ---------------------------------------------------

// modelStats assembles the Stats consumed by the cost model for window w.
func (x *exec) modelStats(w geom.Rect, nr, ns cnt) costmodel.Stats {
	st := costmodel.Stats{W: w, NR: nr.n, NS: ns.n, Eps: x.spec.Eps}
	if x.spec.Kind == IcebergSemi && x.icebergCountable() {
		st.CountProbeR = true
	}
	if !x.pointData(sideR) || !x.pointData(sideS) {
		// Rough Minkowski widening from the dataset-level average object
		// size; per-window AVG-AREA queries are issued only by algorithms
		// that opt in (kept simple: dataset bounds / cardinality).
		st.AvgAreaR = avgObjArea(x.env.infoR.Bounds, int(x.env.infoR.Count), x.pointData(sideR))
		st.AvgAreaS = avgObjArea(x.env.infoS.Bounds, int(x.env.infoS.Count), x.pointData(sideS))
	}
	return st
}

// avgObjArea is a crude prior for the mean object MBR area: a small
// fraction of the per-object share of the data space. Points have zero.
func avgObjArea(bounds geom.Rect, n int, points bool) float64 {
	if points || n == 0 {
		return 0
	}
	return bounds.Area() / float64(n) * 0.05
}

// costs returns (c1, c2, c3) for window w under the environment's model.
func (x *exec) costs(w geom.Rect, nr, ns cnt) (c1, c2, c3 float64) {
	st := x.modelStats(w, nr, ns)
	p := x.env.Model
	return p.C1(st), p.C2(st), p.C3(st)
}
