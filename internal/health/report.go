package health

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/geom"
)

// This file is the degraded partial-result contract. When a run opts in
// (core.Env.AllowPartial), a Report travels down the context to the
// shard router; instead of failing the whole join when a failure domain
// is unreachable, the router records a Gap per dead shard and answers
// from the live ones. The run's Result then carries a Completeness
// describing exactly what the answer is missing, so COUNT and window
// answers have explicit lower-bound semantics instead of silent holes.

// Gap describes one unreachable failure domain's missing contribution.
type Gap struct {
	// Relation is the logical relation the shard belongs to ("R"/"S").
	Relation string
	// Shard is the unreachable shard endpoint's name (e.g. "S2/2").
	Shard string
	// Bounds is the shard's advertised bounding rectangle, when its INFO
	// was fetched before the shard died; the zero Rect when unknown.
	Bounds geom.Rect
	// Count is the shard's advertised cardinality (0 when unknown): the
	// upper bound on objects the answer may be missing from this shard.
	Count int64
	// Queries counts the sub-queries this gap absorbed during the run.
	Queries int
	// Reason is the first root-cause error observed for this shard.
	Reason string
}

// Completeness reports how much of the fleet contributed to a degraded
// answer. A nil *Completeness (runs without AllowPartial) and an empty
// Gaps list both mean the answer is exact.
type Completeness struct {
	// ShardsTotal is the number of shard endpoints across both relations.
	ShardsTotal int
	// ShardsAnswered is how many of them contributed fully.
	ShardsAnswered int
	// Gaps lists the unreachable failure domains, in first-seen order.
	Gaps []Gap
}

// Complete reports whether the answer is exact (no gaps).
func (c *Completeness) Complete() bool { return c == nil || len(c.Gaps) == 0 }

// String renders the report for logs and the CLI:
//
//	partial: 3/4 shards answered; missing S2/2 (≤2863 objects, 17 queries): netsim: endpoint killed
func (c *Completeness) String() string {
	if c.Complete() {
		return "complete"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "partial: %d/%d shards answered", c.ShardsAnswered, c.ShardsTotal)
	for _, g := range c.Gaps {
		fmt.Fprintf(&b, "; missing %s/%s (≤%d objects, %d queries): %s",
			g.Relation, g.Shard, g.Count, g.Queries, g.Reason)
	}
	return b.String()
}

// Report collects the gaps of one run. It is installed into the run's
// context by the executor and consulted by the shard router; both sides
// may run many goroutines, so Report is safe for concurrent use. Gaps
// deduplicate per shard — a dead shard absorbs many sub-queries but
// yields one Gap whose Queries counter tallies them.
type Report struct {
	mu    sync.Mutex
	gaps  map[string]*Gap
	order []string
}

// NewReport returns an empty collector.
func NewReport() *Report {
	return &Report{gaps: make(map[string]*Gap)}
}

// Record notes that one sub-query against the named shard was absorbed
// as a gap. Bounds and count may be zero when the shard died before its
// INFO was fetched; a later call that knows them fills them in.
func (r *Report) Record(relation, shard string, bounds geom.Rect, count int64, reason string) {
	key := relation + "\x00" + shard
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaps[key]
	if !ok {
		g = &Gap{Relation: relation, Shard: shard}
		r.gaps[key] = g
		r.order = append(r.order, key)
	}
	g.Queries++
	if g.Count == 0 {
		g.Count = count
	}
	if g.Bounds == (geom.Rect{}) {
		g.Bounds = bounds
	}
	if g.Reason == "" {
		g.Reason = reason
	}
}

// Gaps returns the collected gaps in first-seen order.
func (r *Report) Gaps() []Gap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Gap, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, *r.gaps[key])
	}
	return out
}

// reportKey carries the run's Report down the context.
type reportKey struct{}

// WithReport returns a context under which the shard layer records
// unreachable-domain gaps into rep instead of failing the run — the
// degraded partial-result mode. Absent from the context, failures
// propagate exactly as before.
func WithReport(ctx context.Context, rep *Report) context.Context {
	return context.WithValue(ctx, reportKey{}, rep)
}

// ReportFrom returns the run's gap collector, or nil when the run did
// not opt into partial results.
func ReportFrom(ctx context.Context) *Report {
	rep, _ := ctx.Value(reportKey{}).(*Report)
	return rep
}
