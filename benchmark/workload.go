package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/memjoin"
)

// scenario is one workload: a single parameterised description of the
// assembly under test, swept as a table (the SNIPPETS.md snippet-1
// pattern). Every knob that differs between two workloads is a field
// here; nothing else distinguishes them.
type scenario struct {
	Name string
	Why  string

	// N is the cardinality of each relation.
	N int
	// Transport selects the device↔server path: "tcp" (loopback
	// sockets), "chan" (in-process goroutine peers) or "daemon" (a
	// spawned spatialjoind speaking JSON lines over loopback TCP).
	Transport string
	// Algs is the algorithm each client loops, one entry per client.
	Algs []string
	// Tenants names the daemon tenant each client submits as (daemon
	// transport only), parallel to Algs.
	Tenants []string
	// Buffer is the device buffer in objects (0 = unlimited).
	Buffer int

	Shards, Replicas, TreeFanout int
	Breakers                     bool
	Parallelism, BatchSize       int
	RTT                          time.Duration
}

// Sequential reports whether one join's requests are strictly ordered:
// one client, no overlap, so the layers' self times add up to the wall
// and the wire bytes repeat exactly.
func (sc scenario) Sequential() bool {
	return len(sc.Algs) == 1 && sc.Parallelism <= 1 && sc.BatchSize <= 1
}

// The join every workload evaluates.
var joinSpec = core.Spec{Kind: core.Distance, Eps: 75}

const daemonTenants = "fast:prio=10;bulk:weight=1"

// scenarios is the workload matrix. The "why" strings are the ones
// BENCHMARK.json and the README carry.
var scenarios = []scenario{
	{
		Name: "device-probe",
		Why:  "paper topology over loopback TCP, UpJoin with a small device buffer: ~3000 tiny round trips per join, so per-message cost dominates",
		N:    12000, Transport: "tcp", Algs: []string{"upjoin"}, Buffer: 180, Parallelism: 1,
	},
	{
		Name: "device-bulk",
		Why:  "same stack and data, Naive with unlimited buffer: four huge frames then one device-side join; bypass for per-message optimisations",
		N:    12000, Transport: "tcp", Algs: []string{"naive"}, Buffer: 0, Parallelism: 1,
	},
	{
		Name: "fleet-tree",
		Why:  "16 shards x 2 replicas behind a fanout-4 aggregation tree with breakers: scatter, partial merge and replica pick dominate",
		N:    8000, Transport: "chan", Algs: []string{"upjoin"}, Buffer: 800,
		Shards: 16, Replicas: 2, TreeFanout: 4, Breakers: true, Parallelism: 4, BatchSize: 16,
	},
	{
		Name: "link-rtt",
		Why:  "unsharded fleet on a 2 ms RTT link: sleep-bound, only dependent round trips matter; bypass for every CPU optimisation",
		N:    5000, Transport: "chan", Algs: []string{"upjoin"}, Buffer: 800,
		Parallelism: 4, BatchSize: 16, RTT: 2 * time.Millisecond,
	},
	{
		Name: "daemon-tenants",
		Why:  "spawned spatialjoind, two tenants on two TCP connections: JSON protocol, admission, scheduler lanes, metering; CPU-saturated",
		N:    5000, Transport: "daemon", Algs: []string{"srjoin", "upjoin"}, Tenants: []string{"fast", "bulk"},
		Buffer: 800, Parallelism: 4, BatchSize: 16,
	},
}

func findScenario(name string) (scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return scenario{}, false
}

// short shrinks a scenario to test size.
func (sc scenario) short() scenario {
	sc.N /= 10
	return sc
}

func algorithm(name string) core.Algorithm {
	switch name {
	case "naive":
		return core.Naive{}
	case "srjoin":
		return core.SrJoin{}
	}
	return core.UpJoin{}
}

// The cluster layout is fixed; only the points drawn around the centres
// depend on the seed. dataset.GaussianClusters draws its centres from the
// seed too, which makes one seed's join 20x the work of the next (whether
// an R cluster lands on an S cluster decides everything) — useless for a
// benchmark whose runs on different seeds must agree within a few
// percent. Here three R clusters overlap an S cluster at different
// offsets (joining, partially joining) and the rest are disjoint
// (prunable), which is the mix the paper's algorithms are about.
var (
	centresR = []geom.Point{
		{X: 1800, Y: 2100}, {X: 7600, Y: 1500}, {X: 4700, Y: 5200}, {X: 1500, Y: 7900},
		{X: 8300, Y: 8200}, {X: 6100, Y: 3400}, {X: 3300, Y: 3900}, {X: 5600, Y: 8800},
	}
	centresS = []geom.Point{
		{X: 1568, Y: 1851}, {X: 7962, Y: 1049}, {X: 3999, Y: 4653}, {X: 2900, Y: 6500},
		{X: 8800, Y: 5600}, {X: 6500, Y: 6900}, {X: 3600, Y: 900}, {X: 400, Y: 4700},
	}
)

var clusterSigma, clusterJitter = 250.0, 25.0

// clusters draws n points round-robin around the centres; the last two
// are the anchors instead. Coordinates are snapped to float32, the
// precision the wire format carries, so a pair exactly at distance ε is
// decided identically on the device, on the servers and by the oracle.
func clusters(n int, centres []geom.Point, anchors [2]geom.Point, layout, seed int64) []geom.Object {
	shape := rand.New(rand.NewSource(layout))
	jitter := rand.New(rand.NewSource(seed))
	w := dataset.World
	keep := math.Sqrt(1 - clusterJitter*clusterJitter/(clusterSigma*clusterSigma))
	coord := func(c, lo, hi float64) float64 {
		v := c + shape.NormFloat64()*clusterSigma*keep + jitter.NormFloat64()*clusterJitter
		return float64(float32(math.Min(math.Max(v, lo), hi)))
	}
	objs := make([]geom.Object, n)
	for i := range objs {
		c := centres[i%len(centres)]
		objs[i] = geom.PointObject(uint32(i), geom.Pt(coord(c.X, w.MinX, w.MaxX), coord(c.Y, w.MinY, w.MaxY)))
	}
	for i, a := range anchors {
		objs[n-2+i] = geom.PointObject(uint32(n-2+i), a)
	}
	return objs
}

// relations makes a workload's inputs from the seed alone. Each relation
// is anchored at two opposite corners of the world (R and S at different
// ones, so the anchors join with nothing): the join window is the hull of
// the advertised bounds, and without anchors it would follow the
// outermost points of the Gaussian tails, shifting every partition
// boundary — and with them the algorithms' decisions — from seed to seed.
func relations(n int, seed int64) (r, s []geom.Object) {
	w := dataset.World
	r = clusters(n, centresR, [2]geom.Point{{X: w.MinX, Y: w.MinY}, {X: w.MaxX, Y: w.MaxY}}, 1, 2*seed)
	s = clusters(n, centresS, [2]geom.Point{{X: w.MinX, Y: w.MaxY}, {X: w.MaxX, Y: w.MinY}}, 2, 2*seed+1)
	return r, s
}

// oraclePairs is core.Oracle evaluated tile by tile. core.Oracle is a
// nested loop (5 s at n = 20000); every R object lies in exactly one
// tile and every S object within ε of it lies in that tile expanded by
// ε, so the union of the per-tile oracles is the whole-space oracle at a
// fraction of the comparisons. Each pair is still decided by core.Oracle.
func oraclePairs(r, s []geom.Object, spec core.Spec) []geom.Pair {
	const grid = 40
	w := dataset.World
	cell := func(o geom.Object) int {
		c := o.Center()
		ix := min(int((c.X-w.MinX)/w.Width()*grid), grid-1)
		iy := min(int((c.Y-w.MinY)/w.Height()*grid), grid-1)
		return iy*grid + ix
	}
	tilesR := make([][]geom.Object, grid*grid)
	for _, o := range r {
		tilesR[cell(o)] = append(tilesR[cell(o)], o)
	}
	tiles := w.Grid(grid)
	var pairs []geom.Pair
	var near []geom.Object
	for i, rt := range tilesR {
		if len(rt) == 0 {
			continue
		}
		reach := tiles[i].Expand(spec.Eps + 1) // +1: cell() and Grid() may round a border point apart
		near = near[:0]
		for _, o := range s {
			if reach.Intersects(o.MBR) {
				near = append(near, o)
			}
		}
		pairs = append(pairs, core.Oracle(rt, near, spec, w).Pairs...)
	}
	return memjoin.DedupPairs(pairs)
}
