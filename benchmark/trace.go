package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing from outside the program: the benchmark decorates the public
// seams of the stack (core.Probe, netsim.RoundTripper,
// netsim.AppendHandler) and records one span per call. A layer's self
// time is the part of its spans that no deeper layer's span covers,
// computed on interval unions so that overlapping spans of a parallel
// run are not counted twice.

// layer names the seam a span was recorded at, outermost first.
type layer uint8

const (
	layerJoin    layer = iota // one Algorithm.Run: self time is core (+ memjoin)
	layerProbe                // one call on the root core.Probe: client, or the shard router
	layerRT                   // one transport round trip: netsim
	layerHandler              // one HandleAppend: server (+ rtree, wire)
	numLayers
)

var layerNames = [numLayers]string{"join", "probe", "roundtrip", "handler"}

// span is one recorded call. Times are nanoseconds since the tracer's
// epoch. Parent is the span that caused this one (0 while unknown: a
// handler has no context to carry it; resolveParents fills those in).
type span struct {
	Layer  layer  `json:"-"`
	Name   string `json:"name"` // the layer's, filled in when spans are written out
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Join   int32  `json:"join"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// frame is one recorded round trip, kept for the codec/index replays.
type frame struct {
	link      string
	req, resp []byte
}

// joinProfile is the per-join digest of a traced join.
type joinProfile struct {
	wall        int64
	self        [numLayers]int64
	count       [numLayers]int
	unaccounted int64
}

// tracer collects the spans of one client's joins. Joins of one tracer
// are sequential; concurrent clients get a tracer each.
type tracer struct {
	epoch time.Time

	nextID atomic.Int32

	mu    sync.Mutex
	join  int32
	spans []span // of the join in progress

	recordJoin int32 // the join whose frames are copied (0 = none)
	frames     []frame

	keepJoins int32 // spans of the first keepJoins joins are retained
	kept      []span
	profiles  []joinProfile
	rtNanos   []int64 // every round-trip span's duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), recordJoin: 3, keepJoins: 2}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin reserves a span id, so a span can hand it to its children before
// it ends.
func (t *tracer) begin() int32 { return t.nextID.Add(1) }

func (t *tracer) end(l layer, id, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: l, ID: id, Parent: parent, Join: t.join, Start: start, End: end})
	t.mu.Unlock()
}

// recording reports whether the join in progress is the one whose frames
// are kept for replay.
func (t *tracer) recording() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.join == t.recordJoin
}

func (t *tracer) record(link string, req, resp []byte) {
	f := frame{link: link, req: slices.Clone(req), resp: slices.Clone(resp)}
	t.mu.Lock()
	t.frames = append(t.frames, f)
	t.mu.Unlock()
}

// startJoin opens the next join and returns its span id and start time.
func (t *tracer) startJoin() (id int32, start int64) {
	t.mu.Lock()
	t.join++
	t.mu.Unlock()
	return t.begin(), t.now()
}

// endJoin closes the join: its spans are digested into a profile and
// dropped (the first few joins' spans are kept for the span file). Every
// span of the join has ended by now — a join returns only after all its
// probes have.
func (t *tracer) endJoin(id int32, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: layerJoin, ID: id, Join: t.join, Start: start, End: end})
	var ivs [numLayers][]interval
	var p joinProfile
	for _, s := range t.spans {
		ivs[s.Layer] = append(ivs[s.Layer], interval{s.Start, s.End})
		p.count[s.Layer]++
		if s.Layer == layerRT {
			t.rtNanos = append(t.rtNanos, s.End-s.Start)
		}
	}
	p.wall = end - start
	p.self, p.unaccounted = selfTimes(ivs)
	t.profiles = append(t.profiles, p)
	if t.join <= t.keepJoins {
		t.kept = append(t.kept, t.spans...)
	}
	t.spans = t.spans[:0]
}

// --- interval arithmetic ---------------------------------------------------

type interval struct{ s, e int64 }

// merged returns the union of ivs as sorted, disjoint intervals.
func merged(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.s, b.s) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.s <= last.e {
			last.e = max(last.e, iv.e)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func total(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.e - iv.s
	}
	return n
}

// overlap returns the length of a ∩ b; both must be merged.
func overlap(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		if lo, hi := max(a[i].s, b[j].s), min(a[i].e, b[j].e); hi > lo {
			n += hi - lo
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return n
}

// selfTimes returns, per layer, the time its spans cover that no deeper
// layer's span covers. Counted this way every instant of the join belongs
// to exactly one layer — the deepest one active — so the self times add up
// to the join's wall time even when spans of a parallel run overlap.
//
// That sum is only a decomposition of the blocking path if spans nest in
// time: a round trip inside a probe, a handler call inside a round trip.
// unaccounted is by how much they do not: time a layer's spans spent
// outside every span of the layer above, which is charged to that layer
// although nothing above was waiting on it.
func selfTimes(ivs [numLayers][]interval) (self [numLayers]int64, unaccounted int64) {
	var m [numLayers][]interval
	for l := range m {
		m[l] = merged(ivs[l])
	}
	var deeper []interval // union of all layers below the current one
	for l := int(numLayers) - 1; l >= 0; l-- {
		self[l] = total(m[l]) - overlap(m[l], deeper)
		deeper = merged(append(deeper, m[l]...))
		if l > 0 {
			unaccounted += total(m[l]) - overlap(m[l], m[l-1])
		}
	}
	return self, unaccounted
}

// resolveParents gives every span that could not carry its cause a
// parent: the latest-starting span of the next layer up, in the same
// join, that contains it — or the join span when none does (a batched
// round trip serves several probes and lies inside none of them alone).
func resolveParents(spans []span) {
	type key struct {
		join int32
		l    layer
	}
	by := make(map[key][]span)
	for _, s := range spans {
		by[key{s.Join, s.Layer}] = append(by[key{s.Join, s.Layer}], s)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Layer == layerJoin {
			continue
		}
		if js := by[key{s.Join, layerJoin}]; len(js) > 0 {
			s.Parent = js[0].ID
		}
		var best int64 = -1
		for _, up := range by[key{s.Join, s.Layer - 1}] {
			if up.Start <= s.Start && s.End <= up.End && up.Start > best {
				best, s.Parent = up.Start, up.ID
			}
		}
	}
}
