package main

import (
	"fmt"
	"os"
)

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run prints all of them; a layer the workload
// does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"gdl.parse_ms", "ms"},
	{"lr.build_ms", "ms"},
	{"lr.table_ms", "ms"},
	{"lr.states", "count"},
	{"core.compile_ms", "ms"},
	{"server.table_build_ms", "ms"},
	{"core.findall_ms", "ms"},
	{"core.search_ms", "ms"},
	{"core.search_max_ms", "ms"},
	{"core.expansions_per_s", "1/s"},
	{"core.lasp_ms", "ms"},
	{"core.pool_idle_share", "share"},
	{"core.expanded", "count"},
	{"core.pushed", "count"},
	{"core.dedup_hits", "count"},
	{"core.path_expanded", "count"},
	{"core.peak_frontier", "count"},
	{"core.arena_mb", "MB"},
	{"core.unifying", "count"},
	{"core.exhausted", "count"},
	{"core.budget_stopped", "count"},
	{"core.recovered", "count"},
	{"core.memory_stopped", "count"},
	{"core.unifying_per_mexpanded", "count"},
	{"core.report_ms", "ms"},
	{"server.request_self_ms", "ms"},
	{"server.cache_result.lookup_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.singleflight_lead_ms", "ms"},
	{"server.cache_result.hit_ratio", "share"},
	{"server.cache_compile.hit_ratio", "share"},
	{"server.shed", "count"},
	{"server.partial", "count"},
	{"persist.append_ms", "ms"},
	{"persist.appends_per_req", "count"},
	{"persist.bytes_per_req", "bytes"},
	{"repair.validate_ms", "ms"},
	{"repair.candidates", "count"},
	{"repair.validated_per_candidate", "share"},
	{"client.repair_p50_ms", "ms"},
	{"client.repair_p90_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.completed", "count"},
	{"engine.oracle_ms", "ms"},
	{"engine.oracle_unconfirmed", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.span_coverage", "share"},
}

func zeroLayers() map[string]metric {
	l := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = metric{0, m.unit}
	}
	return l
}

// failure counts a request that failed without giving a wrong answer: an
// error status, a partial report, or a reply that took another path than
// the workload is meant to measure.
func (r *run) failure(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "lrbench: failed: "+format+"\n", args...)
}
