package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricSpec is one metric a run reports. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step), and every
// run checks that it reported exactly these. DESIGN.md says how each is
// measured and where it should move.
type metricSpec struct{ name, unit, better string }

// e2eMetrics are reported with --trace 0.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"latency_p90_cpu_us", "us", "lower"},
}

// layerMetrics are reported with --trace 1.
var layerMetrics = []metricSpec{
	{"serve.roundtrip_us", "us", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.transport_us", "us", "lower"},
	{"serve.json_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.stream_chunk_us", "us", "lower"},
	{"serve.response_bytes", "B", "lower"},
	{"engine.hit_us", "us", "lower"},
	{"engine.miss_self_us", "us", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.sweep_us", "us", "lower"},
	{"optimize.evals_per_op", "count", "lower"},
	{"optimize.probe_us", "us", "lower"},
	{"store.mem_hit_ns", "ns", "lower"},
	{"store.disk_put_us", "us", "lower"},
	{"store.disk_writes_per_op", "count", "lower"},
	{"nonoblivious.pi_eval_us", "us", "lower"},
	{"nonoblivious.setcoord_us", "us", "lower"},
	{"nonoblivious.evaluate_us", "us", "lower"},
	{"oblivious.evaluate_us", "us", "lower"},
	{"dist.subset_volumes_us", "us", "lower"},
	{"combin.sos_us", "us", "lower"},
	{"combin.sos_bytes", "B", "lower"},
	{"exact.subsets_per_op", "count", "lower"},
	{"exact.delta_updates_per_op", "count", "higher"},
	{"model.kernel_ns_per_trial", "ns", "lower"},
	{"sim.mc_ns_per_trial", "ns", "lower"},
	{"sim.qmc_ns_per_trial", "ns", "lower"},
	{"qrand.fill_ns_per_point", "ns", "lower"},
	{"sim.trials_per_op", "count", "lower"},
	{"obs.overhead_us", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},
	{"ladder.transport.share", "ratio", "lower"},
	{"ladder.serve.share", "ratio", "lower"},
	{"ladder.engine.share", "ratio", "lower"},
	{"ladder.backend.share", "ratio", "lower"},
	{"ladder.kernel.share", "ratio", "lower"},
	{"ladder.sum_gap_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// checkEmitted demands that a run reported exactly the listed metrics,
// each with its listed unit and a finite value.
func checkEmitted(m map[string]metric, traced bool) error {
	specs := e2eMetrics
	if traced {
		specs = layerMetrics
	}
	var bad []string
	for _, s := range specs {
		got, ok := m[s.name]
		switch {
		case !ok:
			bad = append(bad, s.name+" missing")
		case got.Unit != s.unit:
			bad = append(bad, fmt.Sprintf("%s in %s, want %s", s.name, got.Unit, s.unit))
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			bad = append(bad, fmt.Sprintf("%s is %v", s.name, got.Value))
		}
	}
	if len(m) != len(specs) {
		listed := map[string]bool{}
		for _, s := range specs {
			listed[s.name] = true
		}
		for name := range m {
			if !listed[name] {
				bad = append(bad, name+" not listed")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("reported metrics differ from the listed ones: %s", strings.Join(bad, "; "))
	}
	return nil
}
