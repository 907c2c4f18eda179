package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/geom"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Probe is the query surface of one logical relation: everything the
// algorithms need from a dataset endpoint. The typed calls are
// implemented once — client.Typed, encode → Do → decode over the
// request/reply seam client.Doer — and every layer that embeds it
// satisfies Probe by implementing the seam: *client.Remote (one server,
// one metered link — the paper's setting), *shard.Router (one relation
// partitioned across many servers, scatter–gathered), and the wrappers
// stacked on them. Every algorithm therefore runs unmodified against any
// of them. The semantic contract is the one the
// dataset server implements: COUNT/RANGE-COUNT answer exact
// cardinalities, WINDOW/RANGE return each qualifying object exactly
// once, bucket queries answer probe-by-probe in submission order, and
// Info advertises the relation's true cardinality and bounds. Usage and
// PricePerByte aggregate the endpoint's metered traffic (a router sums
// its shard links).
type Probe interface {
	// Name identifies the endpoint in errors and diagnostics.
	Name() string
	// Info returns the relation's advertised metadata.
	Info(ctx context.Context) (wire.Info, error)
	// Count returns the number of objects intersecting w.
	Count(ctx context.Context, w geom.Rect) (int, error)
	// Window returns all objects intersecting w, in a window the caller
	// owns under bufpool's rule (as Range's, MBRMatch's and a probe
	// call's decoded objects): core hands each back to bufpool.Objects
	// once its objects are dead.
	Window(ctx context.Context, w geom.Rect) ([]geom.Object, error)
	// AvgArea returns the mean MBR area of objects intersecting w.
	AvgArea(ctx context.Context, w geom.Rect) (float64, error)
	// Range returns the objects within distance eps of p.
	Range(ctx context.Context, p geom.Point, eps float64) ([]geom.Object, error)
	// RangeCount returns the number of objects within distance eps of p.
	RangeCount(ctx context.Context, p geom.Point, eps float64) (int, error)
	// BucketRange answers many ε-range probes at once, one result group
	// per probe in probe order.
	BucketRange(ctx context.Context, pts []geom.Point, eps float64) ([][]geom.Object, error)
	// BucketRangeCount is the aggregate variant of BucketRange.
	BucketRangeCount(ctx context.Context, pts []geom.Point, eps float64) ([]int64, error)
	// LevelMBRs returns the MBRs of one R-tree level (SemiJoin only).
	LevelMBRs(ctx context.Context, level int) ([]geom.Rect, error)
	// MBRMatch returns the distinct objects intersecting (within eps of)
	// any of the rects (SemiJoin only).
	MBRMatch(ctx context.Context, rects []geom.Rect, eps float64) ([]geom.Object, error)
	// UploadJoin ships objects to the relation, which joins them against
	// its dataset and returns pairs with the uploaded ID first (SemiJoin
	// only).
	UploadJoin(ctx context.Context, objs []geom.Object, eps float64) ([]geom.Pair, error)
	// GoBatch submits pre-encoded request frames as one group — multiplexed
	// on a batching link, the same bare frames in order elsewhere — and
	// returns one Call future per request; waiting on a Call is what sends
	// it. The frames are consumed; the reqs slice may be overwritten
	// during the call but is not kept, so it is the caller's again on
	// return. See client.Remote.GoBatch.
	GoBatch(ctx context.Context, reqs [][]byte) []*client.Call
	// Usage returns the endpoint's accumulated metered traffic (summed
	// over shard links for a router).
	Usage() netsim.Usage
	// PricePerByte is the per-byte tariff of the endpoint's link(s).
	PricePerByte() float64
	// Retries reports how many re-issued attempts the endpoint has made.
	Retries() int64
	// Close releases the endpoint's transport(s).
	Close() error
}

// Env is the execution environment of one join: the two metered remote
// datasets, the device constraints, the cost-model parameters used for
// decisions, and the query window.
type Env struct {
	// R and S are the two dataset relations, reached over metered links —
	// a single server each (*client.Remote) or a sharded relation behind
	// a scatter–gather router (*shard.Router).
	R, S Probe
	// Device carries the buffer constraint.
	Device client.Device
	// Model parameterizes the cost equations; Model.Buffer should match
	// Device.BufferObjects (NewEnv enforces it).
	Model costmodel.Params
	// Window is the query window. The zero Rect means "whole space": it
	// is replaced by the union of the advertised dataset bounds.
	Window geom.Rect
	// Seed drives the algorithm-internal randomness (UpJoin's random
	// confirmation windows). Fixed per run for reproducibility.
	Seed int64
	// Parallelism switches on the concurrent execution engine and is the
	// number of partitions that may hold downloaded objects at once. 0 or
	// 1 reproduces the paper's single-threaded PDA: one thread, one probe
	// group at a time, submitted whole, its requests on each link in a
	// fixed order — replies awaited together, a chunk at a time. Higher
	// values let independent R-side and S-side
	// requests issue in parallel, sibling partitions run as live
	// subproblems on a bounded pool, an unbatched probe group split into
	// Parallelism chunks submitted by as many tasks, and partition
	// downloads overlap device-side joins — while issuing exactly the same
	// set of requests, so results and (unbatched) metered byte counts are
	// identical to the sequential run. What it bounds is device memory and
	// object transfers: at most Parallelism partitions are between the
	// start of their downloads and their last use of the objects. It does
	// not bound COUNT statistics, which occupy no buffer — in flight those
	// are bounded by the link's window (client.BatchConfig.MaxInflight
	// envelopes of MaxBatch) — nor, by itself, how many partitions are
	// live or how a group is chunked: that is the pool rule, liveTasks and
	// chunk in parallel.go.
	Parallelism int
	// BatchSize, when > 1, multiplexes independent probes of one run into
	// MsgBatch envelopes of up to this many sub-requests per link,
	// amortizing the per-frame packet overhead of Eq. (1) and — on
	// RTT-bearing links — the round trips across the batch. Core reads it
	// in the pool rule alone (parallel.go): every probe group is submitted
	// in chunks of BatchSize, one envelope each, and a latency-bearing
	// link widens the pool to Parallelism × BatchSize live partitions.
	// The envelopes themselves are built by the remotes, which should be
	// constructed with a matching client.WithBatch; without it a chunk
	// travels as individual frames. 0 or 1 keeps every request in its own
	// frame, bit-identical to the pre-batching wire format. Batched runs
	// issue exactly the same query set and return identical results; only
	// the framing (and hence the byte totals) changes. Under sequential
	// execution the framing is deterministic: chunks are cut before any
	// request is issued.
	BatchSize int
	// Trace, when non-nil, receives one line per algorithm decision
	// (window visited, operator chosen, counts). Intended for debugging
	// and for the decision-log ablations; not part of the cost model.
	// Under Parallelism > 1 the callback may fire from several goroutines
	// at once and must be safe for concurrent calls.
	Trace func(format string, args ...any)
	// Observer, when non-nil, receives one PhaseEvent at every phase
	// boundary of a run: observation phases (COUNT statistics), plan
	// decisions, transfers, and re-plans, each carrying the cost model's
	// estimate next to the bytes metered so far. Purely diagnostic — the
	// fixed algorithms issue the same requests with or without it. Under
	// Parallelism > 1 the callback may fire from several goroutines at
	// once and must be safe for concurrent calls.
	Observer func(PhaseEvent)
	// AllowPartial opts a run into degraded partial results: when a
	// shard is unreachable (every replica open-circuit, or its sub-query
	// exhausted its retries), the routers record the gap and the run
	// completes over the shards that answered instead of failing. The
	// Result then carries a Completeness report and its pairs are a
	// lower bound on the true join. Off (the default), any shard failure
	// fails the run — bit-identical behavior to before this knob existed.
	AllowPartial bool

	infoR, infoS wire.Info
	prepared     bool
}

// NewEnv assembles an environment. The window may be the zero Rect to
// join over the entire advertised data space.
func NewEnv(r, s Probe, device client.Device, model costmodel.Params, window geom.Rect) *Env {
	model.Buffer = device.BufferObjects
	return &Env{R: r, S: s, Device: device, Model: model, Window: window}
}

// prepare fetches dataset metadata once per environment (two INFO round
// trips, metered like everything else — and overlapped when the
// environment is parallel) and resolves the query window. When one side's
// INFO fails under a parallel environment, the other side's in-flight
// request is canceled rather than awaited.
func (e *Env) prepare(ctx context.Context) error {
	if e.prepared {
		return nil
	}
	fetchR := func(ctx context.Context) error {
		info, err := e.R.Info(ctx)
		if err != nil {
			return fmt.Errorf("core: info from R: %w", err)
		}
		e.infoR = info
		return nil
	}
	fetchS := func(ctx context.Context) error {
		info, err := e.S.Info(ctx)
		if err != nil {
			return fmt.Errorf("core: info from S: %w", err)
		}
		e.infoS = info
		return nil
	}
	if e.Parallelism > 1 {
		fctx, cancel := context.WithCancel(ctx)
		defer cancel()
		errc := make(chan error, 1)
		go func() { errc <- fetchR(fctx) }()
		errS := fetchS(fctx)
		if errS != nil {
			cancel() // interrupt the R-side INFO instead of waiting it out
		}
		errR := <-errc
		// Prefer a real failure over the secondary cancellation it caused.
		if errR != nil && !errors.Is(errR, context.Canceled) {
			return errR
		}
		if errS != nil {
			return errS
		}
		if errR != nil {
			return errR
		}
	} else {
		if err := fetchR(ctx); err != nil {
			return err
		}
		if err := fetchS(ctx); err != nil {
			return err
		}
	}
	if e.Window == (geom.Rect{}) {
		e.Window = e.infoR.Bounds.Union(e.infoS.Bounds)
	}
	e.prepared = true
	return nil
}

// Prepare eagerly fetches dataset metadata and resolves the query
// window, exactly as the first Run would. A multi-tenant server calls it
// once per tenant environment before admitting concurrent runs: prepare
// mutates the environment (cached INFOs, resolved window), so it must
// not race with itself — Prepare gives the caller a way to sequence that
// first fetch explicitly.
func (e *Env) Prepare(ctx context.Context) error { return e.prepare(ctx) }

// Usage returns the combined traffic snapshot of both links.
func (e *Env) Usage() (r, s netsim.Usage) { return e.R.Usage(), e.S.Usage() }

// levelUsages snapshots the per-tree-level traffic of a relation served
// through a hierarchical aggregation tree (shard.Router.LevelUsages).
// Probes without the seam — bare remotes — yield nil.
func levelUsages(p Probe) []netsim.Usage {
	if lu, ok := p.(interface{ LevelUsages() []netsim.Usage }); ok {
		return lu.LevelUsages()
	}
	return nil
}

// levelWireSince diffs a relation's per-level wire bytes against the
// run-start snapshot. Flat topologies (one level — the root links ARE
// the leaf links) report nil: per-level totals only say something beyond
// Stats' own byte columns when there is more than one level.
func levelWireSince(p Probe, before []netsim.Usage) []int {
	after := levelUsages(p)
	if len(after) <= 1 {
		return nil
	}
	out := make([]int, len(after))
	for i, u := range after {
		out[i] = u.WireBytes
		if i < len(before) {
			out[i] -= before[i].WireBytes
		}
	}
	return out
}

// statsSince builds a Stats from meter snapshots taken before the run.
// It must be called only after every worker goroutine of the run has
// joined, so the meters are quiescent and the snapshots exact.
func (e *Env) statsSince(r0, s0 netsim.Usage, dec *decisions) Stats {
	r1, s1 := e.R.Usage(), e.S.Usage()
	diff := func(a, b netsim.Usage) netsim.Usage {
		return netsim.Usage{
			Messages:        a.Messages - b.Messages,
			PayloadBytes:    a.PayloadBytes - b.PayloadBytes,
			WireBytes:       a.WireBytes - b.WireBytes,
			Packets:         a.Packets - b.Packets,
			UpWireBytes:     a.UpWireBytes - b.UpWireBytes,
			DownWireBytes:   a.DownWireBytes - b.DownWireBytes,
			Queries:         a.Queries - b.Queries,
			HedgedMessages:  a.HedgedMessages - b.HedgedMessages,
			HedgedWireBytes: a.HedgedWireBytes - b.HedgedWireBytes,
			BreakerOpens:    a.BreakerOpens - b.BreakerOpens,
			BreakerSkips:    a.BreakerSkips - b.BreakerSkips,
		}
	}
	ru, su := diff(r1, r0), diff(s1, s0)
	return Stats{
		R: ru, S: su,
		AggQueries:   int(dec.agg.Load()),
		HBSJ:         int(dec.hbsj.Load()),
		NLSJ:         int(dec.nlsj.Load()),
		Repartitions: int(dec.repart.Load()),
		Pruned:       int(dec.pruned.Load()),
		MoneyCost: e.R.PricePerByte()*float64(ru.WireBytes) +
			e.S.PricePerByte()*float64(su.WireBytes),
	}
}

// decisions counts the choices an execution made. The counters are
// atomics so concurrent workers can record decisions without contention;
// each counter is an order-independent sum, so parallel and sequential
// executions of the same plan report identical totals.
type decisions struct {
	agg, hbsj, nlsj, repart, pruned atomic.Int64
}
