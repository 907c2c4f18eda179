package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/shard"
)

// The traced pass. End-to-end numbers never come from here: this pass
// runs the workload once more, undecorated (the baseline the tracing
// overhead is measured against, and the legs the process-wide counters
// are read over) and with the decorators on.

// procSnap is the process-wide accounting a leg is bracketed with.
type procSnap struct {
	cpu            float64 // user+system seconds
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return procSnap{
		cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: samples[0].Value.Float64(), allCPU: samples[1].Value.Float64(),
	}
}

func (p procSnap) add(q procSnap) procSnap {
	return procSnap{p.cpu + q.cpu, p.mallocs + q.mallocs, p.bytes + q.bytes, p.gcCPU + q.gcCPU, p.allCPU + q.allCPU}
}

// goMetrics reports the process cost of a leg of n joins.
func goMetrics(m map[string]float64, before, after procSnap, n int) {
	joins := float64(max(n, 1))
	m["go.cpu_s_per_join"] = (after.cpu - before.cpu) / joins
	m["go.allocs_per_join"] = float64(after.mallocs-before.mallocs) / joins
	m["go.alloc_kb_per_join"] = float64(after.bytes-before.bytes) / 1024 / joins
	if d := after.allCPU - before.allCPU; d > 0 {
		m["go.gc_cpu_pct"] = 100 * (after.gcCPU - before.gcCPU) / d
	}
	m["go.peak_rss_mb"] = peakRSS("self")
}

// statMetrics reports the counters core.Stats carries, averaged over the
// leg's joins.
func statMetrics(m map[string]float64, stats []core.Stats) {
	if len(stats) == 0 {
		return
	}
	avg := func(f func(core.Stats) int) float64 {
		var sum int
		for _, st := range stats {
			sum += f(st)
		}
		return float64(sum) / float64(len(stats))
	}
	m["core.agg_queries_per_join"] = avg(func(st core.Stats) int { return st.AggQueries })
	m["core.hbsj_per_join"] = avg(func(st core.Stats) int { return st.HBSJ })
	m["core.nlsj_per_join"] = avg(func(st core.Stats) int { return st.NLSJ })
	m["core.pruned_per_join"] = avg(func(st core.Stats) int { return st.Pruned })
	m["client.frames_per_join"] = avg(core.Stats.TotalQueries)
	m["netsim.up_wire_bytes_per_join"] = avg(func(st core.Stats) int { return st.R.UpWireBytes + st.S.UpWireBytes })
	m["netsim.down_wire_bytes_per_join"] = avg(func(st core.Stats) int { return st.R.DownWireBytes + st.S.DownWireBytes })
	m["netsim.packets_per_join"] = avg(func(st core.Stats) int { return st.R.Packets + st.S.Packets })
	level := func(st core.Stats, from, to int) (n int) {
		for _, lv := range [][]int{st.RLevels, st.SLevels} {
			for i := from; i < min(to, len(lv)); i++ {
				n += lv[i]
			}
		}
		return n
	}
	m["shard.root_wire_bytes_per_join"] = avg(func(st core.Stats) int { return level(st, 0, 1) })
	m["shard.interior_wire_bytes_per_join"] = avg(func(st core.Stats) int { return level(st, 1, 1<<30) })
}

// fleetCounters sums the replica-layer and breaker decisions of a fleet.
func fleetCounters(l *local) (rs shard.ReplicaStats, retries int64, opens, skips int64) {
	var walk func(e shard.Endpoint)
	walk = func(e shard.Endpoint) {
		switch v := e.(type) {
		case *shard.Aggregator:
			for _, c := range v.Shards() {
				walk(c)
			}
		case *shard.ReplicaSet:
			st := v.Stats()
			rs.Hedges += st.Hedges
			rs.Failovers += st.Failovers
		}
	}
	for _, r := range l.routers {
		for _, e := range r.Shards() {
			walk(e)
		}
	}
	for _, p := range l.probes {
		retries += p.Retries()
	}
	if l.reg != nil {
		st := l.reg.Stats()
		opens, skips = st.Opens, st.Skips
	}
	return rs, retries, opens, skips
}

// profileMetrics digests a tracer's joins into the per-layer self times.
// The first two joins are dropped when there are enough: the first pays
// the INFO round trips, both run on cold pools.
func profileMetrics(m map[string]float64, tr *tracer, sharded, seamless bool) {
	ps := tr.profiles
	if len(ps) > 4 {
		ps = ps[2:]
	}
	if len(ps) == 0 {
		return
	}
	ms := func(f func(joinProfile) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	selfMs := func(l layer) float64 { return ms(func(p joinProfile) float64 { return float64(p.self[l]) / 1e6 }) }
	count := func(l layer) float64 { return ms(func(p joinProfile) float64 { return float64(p.count[l]) }) }

	m["trace.joins"] = float64(len(ps))
	m["core.self_ms_per_join"] = selfMs(layerJoin)
	m["core.probe_wait_ms_per_join"] = ms(func(p joinProfile) float64 { return float64(p.wall-p.self[layerJoin]) / 1e6 })
	m["core.probes_per_join"] = count(layerProbe)
	m["trace.unaccounted_pct"] = ms(func(p joinProfile) float64 { return 100 * float64(p.unaccounted) / float64(p.wall) })
	if seamless {
		// Only the probe seam is decorated (the daemon's twin): what lies
		// below it is one lump, already reported as probe wait.
		return
	}
	if sharded {
		m["shard.self_ms_per_join"] = selfMs(layerProbe)
		if n := count(layerProbe); n > 0 {
			m["shard.leaf_roundtrips_per_probe"] = count(layerRT) / n
		}
	} else {
		m["client.self_ms_per_join"] = selfMs(layerProbe)
	}
	m["netsim.transport_self_ms_per_join"] = selfMs(layerRT)
	m["netsim.roundtrips_per_join"] = count(layerRT)
	if len(tr.rtNanos) > 0 {
		us := make([]float64, len(tr.rtNanos))
		for i, ns := range tr.rtNanos {
			us[i] = float64(ns) / 1e3
		}
		slices.Sort(us)
		m["netsim.roundtrip_p50_us"] = percentile(us, 50)
		m["netsim.roundtrip_p99_us"] = percentile(us, 99)
	}
	if n := count(layerHandler); n > 0 {
		m["server.busy_ms_per_join"] = selfMs(layerHandler)
		m["server.requests_per_join"] = n
		m["server.ns_per_request"] = selfMs(layerHandler) * 1e6 / n
	}
}

// writeSpans writes the retained spans (the first joins of each client)
// as one JSON array.
func writeSpans(path string, trs []*tracer) error {
	var all []span
	for _, tr := range trs {
		resolveParents(tr.kept)
		all = append(all, tr.kept...)
	}
	for i := range all {
		all[i].Name = layerNames[all[i].Layer]
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runTraced produces a workload's per-layer metrics. seconds is the
// whole budget of the pass; the legs share it.
func runTraced(sc scenario, seed int64, seconds float64, work, spansPath string) (map[string]float64, error) {
	leg := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	m := map[string]float64{}
	r, s := relations(sc.N, seed)
	jc := &joinCheck{sc: sc, pairs: len(oraclePairs(r, s, joinSpec))}
	clients := allClients(sc)

	var child daemonCost
	if sc.Transport == "daemon" {
		var err error
		if child, err = daemonLegs(sc, r, s, work, jc, leg, m); err != nil {
			return nil, err
		}
	}

	// Undecorated legs (for the daemon workload: of its in-process twin),
	// one before and one after the decorated leg, so that whatever drifts
	// over the life of the process — heap size, pool warmth — does not
	// read as tracing overhead.
	base, err := buildLocal(sc, r, s, nil)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	trs := make([]*tracer, len(clients))
	for i := range trs {
		trs[i] = newTracer()
	}
	traced, err := buildLocal(sc, r, s, trs)
	if err != nil {
		return nil, err
	}
	defer traced.Close()

	var before, after procSnap // summed over the two undecorated legs
	var baseLats []time.Duration
	var baseStats []core.Stats
	joins := 0
	baseLeg := func(warm time.Duration) error {
		b := snapProc()
		lr := closedLoop(base, clients, warm, leg(0.12), jc.check)
		a := snapProc()
		before, after = before.add(b), after.add(a)
		joins += lr.attempted()
		baseLats = append(baseLats, lr.clients[0].lats...)
		baseStats = append(baseStats, lr.clients[0].stats...)
		return lr.err()
	}
	if err := baseLeg(leg(0.05)); err != nil {
		return nil, err
	}
	lr := closedLoop(traced, clients, 0, leg(0.45), jc.check)
	if err := lr.err(); err != nil {
		return nil, err
	}
	if err := baseLeg(0); err != nil {
		return nil, err
	}

	basePerJoin := percentile(millis(baseLats), 50)
	statMetrics(m, baseStats)
	rs, retries, opens, skips := fleetCounters(base)
	m["client.retries_per_join"] = float64(retries) / float64(joins)
	m["shard.hedges_per_join"] = float64(rs.Hedges) / float64(joins)
	m["shard.failovers_per_join"] = float64(rs.Failovers) / float64(joins)
	m["health.breaker_opens"] = float64(opens)
	m["health.breaker_skips"] = float64(skips)
	goMetrics(m, before, after, joins)
	if sc.Transport == "daemon" {
		// CPU and memory are the child's own; the twin gives what only an
		// in-process run can: allocations, and the latency the protocol
		// and the process boundary add on top of it.
		m["go.cpu_s_per_join"], m["go.peak_rss_mb"] = child.cpuPerJoin, child.peakRSSMB
		m["spatialjoind.proto_overhead_ms"] = child.fastP50 - basePerJoin
	}

	tr := trs[0]
	profileMetrics(m, tr, len(traced.routers) > 0, traced.twin != nil)
	if lats := lr.clients[0].lats; len(lats) > 4 && basePerJoin > 0 {
		m["trace.overhead_pct"] = 100 * (percentile(millis(lats[2:]), 50) - basePerJoin) / basePerJoin
	}
	// Probes per uplink frame: read off the recorded frames where there
	// are any (a sharded fleet's frames also count the tree's metered but
	// virtual interior hops), off the counters otherwise.
	if _, reqs := requests(tr.frames); len(tr.frames) > 0 {
		m["client.batch_fill"] = float64(len(reqs)) / float64(len(tr.frames))
	} else if f := m["client.frames_per_join"]; f > 0 {
		m["client.batch_fill"] = m["core.probes_per_join"] / f
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, trs); err != nil {
			return nil, err
		}
	}

	// Replays, on the frames of the recorded join and on the relations.
	if err := replayWire(tr.frames, m); err != nil {
		return nil, err
	}
	servers := traced.servers
	if len(traced.routers) > 0 {
		servers = map[string]*server.Server{}
		shardServers("R", r, sc, servers)
		shardServers("S", s, sc, servers)
		replayServers(tr.frames, servers, m)
	}
	replayTrees(tr.frames, servers, m)
	replayRelations(sc, r, s, m)
	return m, nil
}

// daemonCost is what the spawned daemon's legs hand to the twin's.
type daemonCost struct {
	fastP50    float64 // ms, the fast tenant's, with bulk competing
	cpuPerJoin float64 // s
	peakRSSMB  float64
}

// daemonLegs measures what only the spawned binary can show: latency
// through the protocol with and without the competing tenant, the
// protocol's floor, and the child's CPU and memory.
func daemonLegs(sc scenario, r, s []geom.Object, work string, jc *joinCheck, leg func(float64) time.Duration, m map[string]float64) (cost daemonCost, err error) {
	d, err := spawnDaemon(sc, r, s, work)
	if err != nil {
		return cost, err
	}
	defer d.Close()

	cpu0 := d.cpuSeconds()
	both := closedLoop(d, allClients(sc), leg(0.03), leg(0.12), jc.check)
	cpu1 := d.cpuSeconds()
	if err := both.err(); err != nil {
		return cost, err
	}
	solo := closedLoop(d, []int{0}, leg(0.01), leg(0.06), jc.check)
	if err := solo.err(); err != nil {
		return cost, err
	}
	fast, bulk := millis(both.clients[0].lats), millis(both.clients[1].lats)
	cost.fastP50 = percentile(fast, 50)
	cost.cpuPerJoin = (cpu1 - cpu0) / float64(max(both.attempted(), 1))
	if p := percentile(millis(solo.clients[0].lats), 50); p > 0 {
		m["client.prio_slowdown"] = cost.fastP50 / p
	}
	m["client.bulk_p50_ms"] = percentile(bulk, 50)
	m["client.bulk_p90_ms"] = percentile(bulk, 90)
	m["client.fast_p99_ms"] = percentile(fast, 99)
	m["spatialjoind.reply_bytes_per_join"] = mean(append(both.clients[0].replyBytes, both.clients[1].replyBytes...))

	floor := make([]float64, 200)
	for i := range floor {
		lat, err := d.refused(0)
		if err != nil {
			return cost, err
		}
		floor[i] = float64(lat) / 1e3
	}
	m["spatialjoind.proto_floor_us"] = median(floor)
	cost.peakRSSMB = peakRSS(strconv.Itoa(d.cmd.Process.Pid))
	return cost, nil
}
