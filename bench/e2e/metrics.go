package e2e

import (
	"sort"

	"github.com/mayflower-dfs/mayflower/internal/stats"
)

// Metric describes one reported number. Bound (end-to-end metrics only)
// is the share of the parent's median by which the metric may worsen
// before a change is rejected — and therefore also how far two sets of
// runs of the same code may differ.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the gated metrics, the same six on every workload.
// BENCHMARK.json carries one bound per metric, so each bound is sized
// for the workload that needs it most, from the quartile spreads of
// bench/AA.md (two sets of ten seeds). Times spread up to 13% (p50 and
// throughput, read_large_stream) and 14% (p95, read_small_ctl) on this
// sandbox even in reference-machine time, so their bounds sit at the
// contract's 25% ceiling; allocation counts spread under 1% and bytes
// under 2% (background pollers allocate by the second, not by the op).
var EndToEnd = []Metric{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"payload_MBps", "MB/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_KB_per_op", "KB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the ungated layer metrics a traced run reports, grouped
// by the module they observe. Every workload reports every one; a metric
// that has no meaning on a workload (beside.* away from
// append_beside_reads, gen.late_* on a closed loop) reads 0 there.
var PerLayer = []Metric{
	// client
	{Name: "client.pre_data_ms", Unit: "ms", Better: "lower"},
	{Name: "client.post_data_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "client.ctl_rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.reads_degraded", Unit: "count", Better: "lower"},
	{Name: "client.failover_passes", Unit: "count", Better: "lower"},
	{Name: "client.meta_hit_us", Unit: "us", Better: "lower"},
	// nameserver
	{Name: "nameserver.lookup_rtt_us", Unit: "us", Better: "lower"},
	{Name: "nameserver.validate64_rtt_us", Unit: "us", Better: "lower"},
	{Name: "nameserver.lookups_per_op", Unit: "count", Better: "lower"},
	{Name: "nameserver.create_ms", Unit: "ms", Better: "lower"},
	// flowserver
	{Name: "flowserver.select_rtt_us", Unit: "us", Better: "lower"},
	{Name: "flowserver.selectwrite_rtt_us", Unit: "us", Better: "lower"},
	{Name: "flowserver.select_self_us", Unit: "us", Better: "lower"},
	{Name: "flowserver.candidates_per_select", Unit: "count", Better: "lower"},
	{Name: "flowserver.drift_mean", Unit: "ratio", Better: "lower"},
	{Name: "flowserver.freeze_hits_per_select", Unit: "count", Better: "lower"},
	// rpc / wire
	{Name: "rpc.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rpc.echo_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.echo_256k_rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.echo_256k_alloc_KB", Unit: "KB", Better: "lower"},
	{Name: "rpc.retries", Unit: "count", Better: "lower"},
	{Name: "rpc.reconnects", Unit: "count", Better: "lower"},
	// dataserver
	{Name: "dataserver.connect_us", Unit: "us", Better: "lower"},
	{Name: "dataserver.ttfb_us", Unit: "us", Better: "lower"},
	{Name: "dataserver.transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "dataserver.stream_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "dataserver.append_r1_ms", Unit: "ms", Better: "lower"},
	{Name: "dataserver.append_r3_ms", Unit: "ms", Better: "lower"},
	{Name: "dataserver.relay_ms", Unit: "ms", Better: "lower"},
	{Name: "dataserver.relays_scheduled", Unit: "count", Better: "higher"},
	{Name: "dataserver.append_dedups", Unit: "count", Better: "lower"},
	// kvstore
	{Name: "kvstore.put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.put_sync_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.get_us", Unit: "us", Better: "lower"},
	// emunet / fabric
	{Name: "emunet.pace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "emunet.reallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "fabric.jct_over_ideal_p50", Unit: "ratio", Better: "lower"},
	// harness
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.rss_peak_MB", Unit: "MB", Better: "lower"},
	{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_mean", Unit: "count", Better: "lower"},
	{Name: "e2e.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.samples", Unit: "count", Better: "higher"},
	{Name: "beside.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "beside.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// Value is one reported metric in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values pairs the numbers a run produced with the units the spec
// declares, and fails loudly when the two drift apart: a metric the spec
// names but the run did not compute is a harness bug, not a zero.
func values(spec []Metric, got map[string]float64) (map[string]Value, []string) {
	out := make(map[string]Value, len(spec))
	var missing []string
	for _, m := range spec {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, missing
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// Spread is the contract's steadiness measure: the distance between the
// first and third quartile as a share of the median, with the quartiles
// Python's statistics.quantiles(xs, n=4) would give (the exclusive
// method: positions at k(n+1)/4).
func Spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quantile := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // 0-based position
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		frac := pos - float64(lo)
		return s[lo] + (s[lo+1]-s[lo])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quantile(3) - quantile(1)) / med
}
