package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric the benchmark emits. The catalog is the
// single list BENCHMARK.json, the printed report, expected.json and the
// compare subcommand agree on; bench_test.go checks BENCHMARK.json against it.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// exact marks a count that repeats exactly on one box at one seed, so two
	// commits compare exactly instead of within a bound.
	exact bool
	// pinned marks an exact count that is also independent of the box
	// (GOMAXPROCS, allocator), so expected.json pins it at the default seed.
	pinned bool
}

// endToEnd are the metrics a user of the system sees. exp_per_s,
// time_to_ci_s and setup_s carry a regression bound in BENCHMARK.json;
// failed_frac and mismatch_frac are expected to be exactly 0, so they cannot
// carry a bound that is a share of the parent's median — any increase
// regresses (compare.go) and fails the run (the `failed` / `correct` keys of
// the result line).
var endToEnd = []metricDef{
	{name: "exp_per_s", unit: "1/s", better: "higher"},
	{name: "time_to_ci_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "failed_frac", unit: "frac", better: "lower", exact: true},
	{name: "mismatch_frac", unit: "frac", better: "lower", exact: true},
}

// zeroExpected names the end-to-end metrics that are 0 on a healthy run and
// therefore stay out of BENCHMARK.json and out of the driver result line.
var zeroExpected = map[string]bool{"failed_frac": true, "mismatch_frac": true}

// perLayer are the single-layer metrics, named <module>.<name>. They come
// only from the traced pass and the micro-timed calls; they carry no bound.
var perLayer = []metricDef{
	{name: "numerics.fp16_round_ns", unit: "ns", better: "lower"},
	{name: "numerics.int8_round_ns", unit: "ns", better: "lower"},
	{name: "numerics.flipbit_ns", unit: "ns", better: "lower"},

	{name: "tensor.matmul_mac_per_s", unit: "MAC/s", better: "higher"},

	{name: "nn.forward_ms", unit: "ms", better: "lower"},
	{name: "nn.golden_trace_ms", unit: "ms", better: "lower"},
	{name: "nn.conv_mac_per_s", unit: "MAC/s", better: "higher"},
	{name: "nn.dense_mac_per_s", unit: "MAC/s", better: "higher"},
	{name: "nn.layers_skipped_per_exp", unit: "count", better: "higher", exact: true, pinned: true},
	{name: "nn.layers_recomputed_per_exp", unit: "count", better: "lower", exact: true, pinned: true},
	{name: "nn.region_swept_frac", unit: "frac", better: "higher", exact: true, pinned: true},
	{name: "nn.cache_hit_ratio", unit: "ratio", better: "higher", exact: true, pinned: true},
	{name: "nn.macs_avoided_per_exp", unit: "MAC", better: "higher", exact: true, pinned: true},
	{name: "nn.arena_reuses_per_exp", unit: "count", better: "higher", exact: true, pinned: true},
	// Tile counts follow the goroutine band split, i.e. GOMAXPROCS: exact on
	// one box, not pinned across boxes.
	{name: "nn.kernel_tiles_per_exp", unit: "count", better: "lower", exact: true},

	{name: "faultmodel.plan_apply_us", unit: "us", better: "lower"},
	{name: "faultmodel.derive_us", unit: "us", better: "lower"},

	{name: "inject.prepare_us", unit: "us", better: "lower"},
	{name: "inject.exp_p50_us", unit: "us", better: "lower"},
	{name: "inject.exp_p99_us", unit: "us", better: "lower"},
	{name: "inject.exp_masked_p50_us", unit: "us", better: "lower"},
	{name: "inject.exp_failed_p50_us", unit: "us", better: "lower"},
	{name: "inject.masked_frac", unit: "frac", better: "higher", exact: true, pinned: true},
	{name: "inject.mallocs_per_exp", unit: "count", better: "lower"},
	{name: "inject.alloc_bytes_per_exp", unit: "B", better: "lower"},

	{name: "campaign.experiments", unit: "count", better: "lower", exact: true, pinned: true},
	{name: "campaign.rounds", unit: "count", better: "lower", exact: true, pinned: true},
	{name: "campaign.exp_vs_fixed_ratio", unit: "ratio", better: "lower", exact: true, pinned: true},
	{name: "campaign.shard_wall_ms_p50", unit: "ms", better: "lower"},
	{name: "campaign.shard_wall_ms_max", unit: "ms", better: "lower"},
	{name: "campaign.shard_imbalance", unit: "ratio", better: "lower"},
	{name: "campaign.scaling_eff", unit: "ratio", better: "higher"},
	{name: "campaign.batch_avg_group_size", unit: "count", better: "higher", exact: true, pinned: true},
	{name: "campaign.trace_phase_s", unit: "s", better: "lower"},
	{name: "campaign.inject_phase_s", unit: "s", better: "lower"},
	{name: "campaign.fit_phase_s", unit: "s", better: "lower"},
	{name: "campaign.assemble_ms", unit: "ms", better: "lower"},
	{name: "campaign.plan_round_us", unit: "us", better: "lower"},
	{name: "campaign.ckpt_save_ms", unit: "ms", better: "lower"},
	{name: "campaign.ckpt_load_ms", unit: "ms", better: "lower"},
	{name: "campaign.ckpt_bytes", unit: "B", better: "lower", exact: true, pinned: true},
	{name: "campaign.mallocs_per_exp", unit: "count", better: "lower"},
	{name: "campaign.alloc_bytes_per_exp", unit: "B", better: "lower"},
	{name: "campaign.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "distrib.tax", unit: "ratio", better: "lower"},
	{name: "distrib.idle_frac", unit: "frac", better: "lower"},
	{name: "distrib.drain_s", unit: "s", better: "lower"},
	{name: "distrib.lease_rtt_us_p50", unit: "us", better: "lower"},
	{name: "distrib.lease_rtt_us_p95", unit: "us", better: "lower"},
	{name: "distrib.report_rtt_us_p50", unit: "us", better: "lower"},
	{name: "distrib.report_rtt_us_p95", unit: "us", better: "lower"},
	{name: "distrib.report_bytes", unit: "B", better: "lower"},
	{name: "distrib.persist_ms_p50", unit: "ms", better: "lower"},
	{name: "distrib.state_bytes", unit: "B", better: "lower"},
	{name: "distrib.leases", unit: "count", better: "lower", exact: true, pinned: true},
	{name: "distrib.expired", unit: "count", better: "lower", exact: true, pinned: true},

	{name: "rtlsim.run_ms_p50", unit: "ms", better: "lower"},
	{name: "rtlsim.cycles_per_s", unit: "cycles/s", better: "higher"},
	{name: "rtlsim.sw_vs_cycle_speedup", unit: "ratio", better: "higher"},

	{name: "telemetry.overhead_frac", unit: "frac", better: "lower"},

	{name: "model.build_ms", unit: "ms", better: "lower"},
	{name: "dataset.sample_us", unit: "us", better: "lower"},

	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
}

// metric is one reported value: the median of its samples with quartiles and
// the sample count, or a single count. N == 0 means the workload does not
// exercise the metric's layer, so nothing was measured.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Exact bool    `json:"exact,omitempty"`
	// Samples are the raw values behind a short series (a run's campaigns,
	// each by its fastest timing), kept so compare can tell a clean sweep
	// from overlap.
	Samples []float64 `json:"samples,omitempty"`
	// Note carries what a bare number would hide: the base of a ratio, the
	// percentile a value is, why a sample count is what it is.
	Note string `json:"note,omitempty"`
}

// maxKeptSamples bounds the series exported raw; longer ones (thousands of
// timed experiments) are summarized only.
const maxKeptSamples = 64

// recorder collects the metrics of one pass against a fixed list of
// definitions, so every declared metric is emitted exactly once.
type recorder struct {
	defs   []metricDef
	byName map[string]metricDef
	got    map[string]metric
}

func newRecorder(defs []metricDef) *recorder {
	r := &recorder{defs: defs, byName: map[string]metricDef{}, got: map[string]metric{}}
	for _, d := range defs {
		r.byName[d.name] = d
	}
	return r
}

// samples records the median and quartiles of a timing's samples.
func (r *recorder) samples(name string, values []float64, note string) {
	q1, med, q3 := quartiles(values)
	m := metric{Name: name, Value: med, Q1: q1, Q3: q3, N: len(values), Note: note}
	if len(values) <= maxKeptSamples {
		m.Samples = values
	}
	r.put(m)
}

// value records one number that is not a median of samples: a percentile, a
// ratio of two medians, a count. n is how many observations it rests on.
func (r *recorder) value(name string, v float64, n int, note string) {
	r.put(metric{Name: name, Value: v, Q1: v, Q3: v, N: n, Note: note})
}

func (r *recorder) put(m metric) {
	d, ok := r.byName[m.Name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalog", m.Name))
	}
	if _, dup := r.got[m.Name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q recorded twice", m.Name))
	}
	m.Unit, m.Exact = d.unit, d.exact
	r.got[m.Name] = m
}

// metrics returns every declared metric in catalog order; the ones the pass
// did not measure are reported with N == 0.
func (r *recorder) metrics() []metric {
	out := make([]metric, 0, len(r.defs))
	for _, d := range r.defs {
		m, ok := r.got[d.name]
		if !ok {
			m = metric{Name: d.name, Unit: d.unit, Exact: d.exact, Note: "layer not exercised by this workload"}
		}
		out = append(out, m)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
