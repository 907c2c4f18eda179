package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units and directions (benchmark_test.go holds the two together);
// the bounds live only there.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, the same on every workload. failed_share is reported too
// but is not in BENCHMARK.json: it is 0 on every accepted run, and a
// bound is a share of the parent's value. A failure shows in the result
// line's "failed" and "correct" instead, and in the exit code.
var endToEnd = []metricDef{
	{"joins_per_s", "1/s", "higher"},
	{"join_p50_ms", "ms", "lower"},
	{"join_p90_ms", "ms", "lower"},
	{"wire_bytes_per_join", "bytes", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<metric>. A workload on which a layer is absent, or cannot be
// told apart from its neighbour from outside, reports 0 for it.
var perLayer = []metricDef{
	{"core.self_ms_per_join", "ms", "lower"},
	{"core.probe_wait_ms_per_join", "ms", "lower"},
	{"core.probes_per_join", "count", "lower"},
	{"core.agg_queries_per_join", "count", "lower"},
	{"core.hbsj_per_join", "count", "lower"},
	{"core.nlsj_per_join", "count", "lower"},
	{"core.pruned_per_join", "count", "higher"},
	{"memjoin.gridjoin_ms", "ms", "lower"},
	{"memjoin.allocs_per_call", "count", "lower"},
	{"client.self_ms_per_join", "ms", "lower"},
	{"client.frames_per_join", "count", "lower"},
	{"client.batch_fill", "ratio", "higher"},
	{"client.retries_per_join", "count", "lower"},
	{"client.prio_slowdown", "ratio", "lower"},
	{"client.bulk_p50_ms", "ms", "lower"},
	{"client.bulk_p90_ms", "ms", "lower"},
	{"client.fast_p99_ms", "ms", "lower"},
	{"netsim.transport_self_ms_per_join", "ms", "lower"},
	{"netsim.roundtrips_per_join", "count", "lower"},
	{"netsim.roundtrip_p50_us", "us", "lower"},
	{"netsim.roundtrip_p99_us", "us", "lower"},
	{"netsim.up_wire_bytes_per_join", "bytes", "lower"},
	{"netsim.down_wire_bytes_per_join", "bytes", "lower"},
	{"netsim.packets_per_join", "count", "lower"},
	{"server.busy_ms_per_join", "ms", "lower"},
	{"server.requests_per_join", "count", "lower"},
	{"server.ns_per_request", "ns", "lower"},
	{"rtree.busy_ms_per_join", "ms", "lower"},
	{"rtree.ns_per_query", "ns", "lower"},
	{"rtree.bulk_load_ms", "ms", "lower"},
	{"wire.codec_ms_per_join", "ms", "lower"},
	{"wire.ns_per_frame", "ns", "lower"},
	{"wire.allocs_per_frame", "count", "lower"},
	{"wire.payload_bytes_per_join", "bytes", "lower"},
	{"shard.self_ms_per_join", "ms", "lower"},
	{"shard.leaf_roundtrips_per_probe", "ratio", "lower"},
	{"shard.merge_objects_ns", "ns", "lower"},
	{"shard.root_wire_bytes_per_join", "bytes", "lower"},
	{"shard.interior_wire_bytes_per_join", "bytes", "lower"},
	{"shard.hedges_per_join", "count", "lower"},
	{"shard.failovers_per_join", "count", "lower"},
	{"health.breaker_opens", "count", "lower"},
	{"health.breaker_skips", "count", "lower"},
	{"health.allow_ns", "ns", "lower"},
	{"plan.choose_us", "us", "lower"},
	{"spatialjoind.proto_floor_us", "us", "lower"},
	{"spatialjoind.proto_overhead_ms", "ms", "lower"},
	{"spatialjoind.reply_bytes_per_join", "bytes", "lower"},
	{"go.cpu_s_per_join", "s", "lower"},
	{"go.allocs_per_join", "count", "lower"},
	{"go.alloc_kb_per_join", "KB", "lower"},
	{"go.gc_cpu_pct", "%", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unaccounted_pct", "%", "lower"},
	{"trace.joins", "count", "higher"},
}

// metricValue is one reported number, as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values pairs a name → number map with the definitions' units, every
// defined metric present.
func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
