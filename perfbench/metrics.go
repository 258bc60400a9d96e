package main

import (
	"math"
	"sort"
)

// metric is one reported number's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Host-time metrics come first, then the simulated ones,
// which repeat exactly under a fixed seed.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"block_ms_p50", "ms"},
	{"block_ms_p90", "ms"},
	{"flit_hops_per_s", "hops/s"},
	{"heap_mb", "MB"},
	{"allocs_per_cycle", "allocs"},
	{"pkt_latency_cycles", "cycles"},
	{"static_energy_pct", "%"},
	{"exec_cycles", "cycles"},
	{"ok_frac", "ratio"},
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = []metric{
	{"router.share", "ratio"},
	{"router.flit_hops_per_cycle", "hops"},
	{"router.ns_per_flit_hop", "ns"},
	{"router.pg_stall_cycles_per_pkt", "cycles"},
	{"link.share", "ratio"},
	{"ni.share", "ratio"},
	{"ni.queue_cycles_per_pkt", "cycles"},
	{"ni.wakeup_wait_cycles_per_pkt", "cycles"},
	{"core.share", "ratio"},
	{"core.source_emissions", "count"},
	{"core.relayed_targets", "count"},
	{"core.channel_cycles", "count"},
	{"core.strict_drops", "count"},
	{"pg.share", "ratio"},
	{"pg.gating_events", "count"},
	{"pg.gated_frac", "ratio"},
	{"pg.short_gating_frac", "ratio"},
	{"pg.wakeups_punch_frac", "ratio"},
	{"pg.sleeps_blocked", "count"},
	{"pg.wake_hidden_frac", "ratio"},
	{"pg.wakeup_net_cycles_per_pkt", "cycles"},
	{"power.share", "ratio"},
	{"network.step_ns_p50", "ns"},
	{"network.step_ns_p99", "ns"},
	{"network.step_share", "ratio"},
	{"network.sched_share", "ratio"},
	{"network.par_share", "ratio"},
	{"network.active_routers_mean", "routers"},
	{"topo.share", "ratio"},
	{"traffic.tick_ns_p50", "ns"},
	{"traffic.share", "ratio"},
	{"cmp.tick_ns_p50", "ns"},
	{"cmp.share", "ratio"},
	{"cmp.stall_cycles_per_core", "cycles"},
	{"runtime.share", "ratio"},
	{"runtime.gc_per_mcycle", "count"},
	{"runtime.window_allocs_per_cycle", "allocs"},
	{"other.share", "ratio"},
	{"obs.trace_overhead_pct", "%"},
	{"host.calib_cpu_ns", "ns"},
	{"host.calib_mem_ns", "ns"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth,
// so a single stalled trial does not move it.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
