package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and bounds; TestMetricsMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the engines sees, reported by every
// workload with tracing off. Their bounds sit well above the quartile
// spreads measured on a 2-CPU container (up to 0.10 on the GC-heavy fuzz
// and explore workloads; see README.md). Each workload gives "work" its own unit of
// progress: a Verify configuration (explore), a campaign execution (the fuzz
// workloads) or a delivered message (soak). Latency is per verdict on
// explore, per execution on the fuzz workloads (read through the campaign's
// clock seam) and per message submit→confirm on soak.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"suite_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's per-layer metrics. Every traced run reports
// all of them; a layer a workload leaves idle reads 0. Counts (unit
// "count") must repeat exactly between runs of the same code and seed: a
// change in one is a change in the work, not in its speed.
var perLayer = []metricDef{
	// verify: the bounded prover, timed around each Verify call (explore).
	{"verify.busy_s", "s", "lower", 0},
	{"verify.ns_per_state", "ns", "lower", 0},
	{"verify.states", "count", "lower", 0},
	{"verify.edges", "count", "lower", 0},
	{"verify.dl3_attempted", "count", "lower", 0},
	{"verify.space_fingerprint", "count", "lower", 0},
	{"replay.witness_ms", "ms", "lower", 0},
	// analyze: the boundness audit's private BFS (explore).
	{"analyze.audit_busy_s", "s", "lower", 0},
	{"analyze.audit_ns_per_state", "ns", "lower", 0},
	{"analyze.audit_states", "count", "lower", 0},
	// fuzz: the campaign and the stages it is made of (both fuzz workloads).
	{"fuzz.execs", "count", "higher", 0},
	{"fuzz.corpus_size", "count", "higher", 0},
	{"fuzz.coverage_points", "count", "higher", 0},
	{"fuzz.cert_ops", "count", "lower", 0},
	{"fuzz.dl3_misses", "count", "lower", 0},
	{"fuzz.campaign_us_per_exec", "us", "lower", 0},
	{"fuzz.exec_us", "us", "lower", 0},
	{"fuzz.campaign_over_exec", "ratio", "lower", 0},
	{"fuzz.exec_log_us", "us", "lower", 0},
	{"fuzz.trim_us", "us", "lower", 0},
	{"fuzz.mutate_us", "us", "lower", 0},
	{"fuzz.violating_frac", "ratio", "lower", 0},
	{"fuzz.corpus_write_ms", "ms", "lower", 0},
	{"trace.encode_us", "us", "lower", 0},
	{"replay.shrink_ms", "ms", "lower", 0},
	{"replay.shrink_calls", "count", "lower", 0},
	{"replay.shrink_replays", "count", "lower", 0},
	{"replay.shrink_useful_frac", "ratio", "higher", 0},
	{"replay.certify_ms", "ms", "lower", 0},
	{"replay.certify_calls", "count", "lower", 0},
	{"replay.certify_refused_frac", "ratio", "lower", 0},
	// netlink + trace: the live soak and its recording (soak).
	{"netlink.sessions", "count", "higher", 0},
	{"netlink.deliveries", "count", "higher", 0},
	{"netlink.violations", "count", "lower", 0},
	{"netlink.latency_samples", "count", "higher", 0},
	{"netlink.session_ms_p50", "ms", "lower", 0},
	{"netlink.session_ms_p99", "ms", "lower", 0},
	{"netlink.step_us_per_msg", "us", "lower", 0},
	{"netlink.udp_rtt_us", "us", "lower", 0},
	{"netlink.chaos_drops", "count", "lower", 0},
	{"netlink.chaos_holds", "count", "lower", 0},
	{"netlink.chaos_dups", "count", "lower", 0},
	{"netlink.stale_lifted", "count", "lower", 0},
	{"netlink.wire_lost", "count", "lower", 0},
	{"netlink.forced_releases", "count", "lower", 0},
	{"trace.put_us", "us", "lower", 0},
	{"trace.put_bytes", "bytes", "lower", 0},
	{"trace.close_ms", "ms", "lower", 0},
	{"replay.soak_replay_us", "us", "lower", 0},
	// Self time per layer over the traced rounds: each span's duration
	// minus the part its child spans cover, summed per layer, per round.
	{"self.bench_s", "s", "lower", 0},
	{"self.verify_s", "s", "lower", 0},
	{"self.analyze_s", "s", "lower", 0},
	{"self.fuzz_s", "s", "lower", 0},
	{"self.replay_s", "s", "lower", 0},
	{"self.netlink_s", "s", "lower", 0},
	{"self.trace_s", "s", "lower", 0},
	// The tracer's own cost: traced rounds minus untraced rounds.
	{"bench.untraced_round_s", "s", "lower", 0},
	{"bench.traced_round_s", "s", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},
	{"bench.spans", "count", "lower", 0},
	// Go garbage collections per round (the heap of most workloads is
	// small, so the allocation rate alone sets how often the GC runs).
	{"bench.gc_cycles", "count", "lower", 0},
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and the
// sample count it was taken over; an empty sample reads 0 with n = 0. xs is
// not modified.
func percentile(xs []float64, q float64) (v float64, n int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s)
}

// weightedPercentile is the nearest-rank q-quantile of xs where xs[i]
// counts weights[i] times; 0 when the weights sum to 0.
func weightedPercentile(xs, weights []float64, q float64) float64 {
	idx := make([]int, len(xs))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	need, seen := q*total, 0.0
	for _, i := range idx {
		seen += weights[i]
		if seen >= need && weights[i] > 0 {
			return xs[i]
		}
	}
	return 0
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// ratio is a quotient that keeps its base, so every reported ratio can be
// stated with the two numbers it came from.
type ratio struct{ num, den float64 }

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}
