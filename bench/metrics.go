package main

// metricDef is one row of the benchmark's metric glossary. BENCHMARK.json
// is generated from these tables (-emit-benchmark-json) and README.md
// repeats them for readers.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Moves says which end-to-end metric a per-layer metric should move,
	// and on which workload.
	Moves string
}

// endToEnd is what a user of the system sees, with the bound each metric
// may worsen by. The bounds come from A/A sets of ten seeds per workload
// on the 2-vCPU reference box (README "Bounds and steadiness"): counts
// repeat to within 4 % and get 5 %; accuracy moves 3 % with the seed's
// corpus and gets 10 %; the three metrics measured in seconds are
// reported at reference CPU speed (cal.go), spread up to 14 % even so,
// and get the widest bound the contract allows.
//
// Three things the issue lists as end-to-end are deliberately not here.
// failed_share must be exactly zero, so it travels in the result's
// attempted/failed counts and in `correct`, where any non-zero value
// fails the run. Verdict latency (p50, p90) spreads 25-75 % between
// identical runs on this box at any paced rate tried, three times what a
// bound may be, so it is reported per layer (gen.verdict_latency_*) and
// in every untraced record's extras instead of guarding anything.
// flows_per_s and payload_mb_per_s are packets_per_s times a constant of
// the workload (flows and payload bytes per packet are fixed by the
// seed), so as bounded metrics they would only be two more draws of the
// same noise; they too are per layer (gen.*) and in the extras.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "packets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_packet", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_packet", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_packet", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "resident_bytes_per_pending_flow", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "verdict_accuracy", Unit: "share", Better: "higher", Bound: 0.10},
}

const (
	onElephant = "cpu_us_per_packet on elephant"
	onSmall    = "packets_per_s on elephant, mice"
	onLatency  = "gen.verdict_latency_p90_us everywhere"
	onFailed   = "failed (must stay 0) everywhere"
	onMice     = "packets_per_s on mice"
	onAllCPU   = "cpu_us_per_packet on all"
	onDeep     = "flows_per_s on deepbuf (1 KiB) and mice (32 B); nothing on deepbuf_stream"
	onStream   = "packets_per_s and resident_bytes_per_pending_flow on deepbuf_stream only"
	onClassify = "flows_per_s on deepbuf, gen.verdict_latency_p50_us on mice"
	onRouted   = "cpu_us_per_packet, gen.verdict_latency_p50_us on mix_routed only"
	onGC       = "gen.verdict_latency_p90_us, moved by alloc_bytes_per_packet"
	onSelf     = "the benchmark's own health; no end-to-end metric"
)

// perLayer is the cost table. Isolated timings (…_ns, …_allocs) call the
// layer's public function on the workload's own inputs, min of 5; their
// coefficients of variation are in the record, not here.
var perLayer = []metricDef{
	{Name: "packet.wire_encode_ns", Unit: "ns", Better: "lower", Moves: onElephant},
	{Name: "packet.wire_decode_ns", Unit: "ns", Better: "lower", Moves: onElephant},

	{Name: "ingest.frame_encode_ns", Unit: "ns", Better: "lower", Moves: onSmall},
	{Name: "ingest.frame_decode_ns", Unit: "ns", Better: "lower", Moves: onSmall},
	{Name: "ingest.frame_decode_allocs", Unit: "count", Better: "lower", Moves: onSmall},
	{Name: "ingest.client_send_ns", Unit: "ns", Better: "lower", Moves: onSmall},
	{Name: "ingest.read_calls_per_packet", Unit: "count", Better: "lower", Moves: onSmall},
	{Name: "ingest.wire_bytes_per_packet", Unit: "B", Better: "lower", Moves: onSmall},
	{Name: "ingest.socket_to_worker_p50_us", Unit: "us", Better: "lower", Moves: onLatency},
	{Name: "ingest.socket_to_worker_p99_us", Unit: "us", Better: "lower", Moves: onLatency},
	{Name: "ingest.backlog_p99", Unit: "count", Better: "lower", Moves: onLatency},
	{Name: "ingest.shed", Unit: "count", Better: "lower", Moves: onFailed},
	{Name: "ingest.quarantined", Unit: "count", Better: "lower", Moves: onFailed},
	{Name: "ingest.engine_errors", Unit: "count", Better: "lower", Moves: onFailed},

	{Name: "flow.idof_ns", Unit: "ns", Better: "lower", Moves: onElephant},
	{Name: "flow.cdb_lookup_hit_ns", Unit: "ns", Better: "lower", Moves: onElephant},
	{Name: "flow.cdb_lookup_miss_ns", Unit: "ns", Better: "lower", Moves: onElephant},
	{Name: "flow.cdb_insert_ns", Unit: "ns", Better: "lower", Moves: onMice},
	{Name: "flow.cdb_insert_p99_ns", Unit: "ns", Better: "lower", Moves: onMice},
	{Name: "flow.cdb_close_ns", Unit: "ns", Better: "lower", Moves: onMice},
	{Name: "flow.engine_newflow_ns", Unit: "ns", Better: "lower", Moves: onMice},
	{Name: "flow.flush_ns_per_flow", Unit: "ns", Better: "lower", Moves: onMice},
	{Name: "flow.engine_hit_ns", Unit: "ns", Better: "lower", Moves: onAllCPU},
	{Name: "flow.process_ns_per_packet", Unit: "ns", Better: "lower", Moves: onAllCPU},
	{Name: "flow.process_allocs_per_packet", Unit: "count", Better: "lower", Moves: onAllCPU},
	{Name: "flow.cdb_hit_share", Unit: "share", Better: "higher", Moves: onAllCPU},
	{Name: "flow.pending_peak", Unit: "count", Better: "lower", Moves: "resident memory on all"},
	{Name: "flow.evicted", Unit: "count", Better: "lower", Moves: onFailed},
	{Name: "flow.fallback", Unit: "count", Better: "lower", Moves: onFailed},
	{Name: "flow.dropped", Unit: "count", Better: "lower", Moves: onFailed},
	{Name: "flow.resident_bytes_per_cdb_record", Unit: "B", Better: "lower",
		Moves: "resident_bytes_per_pending_flow's sibling on elephant"},

	{Name: "appheader.strip_hit_ns", Unit: "ns", Better: "lower", Moves: onMice + "; nothing on elephant"},
	{Name: "appheader.strip_miss_ns", Unit: "ns", Better: "lower", Moves: onMice + "; nothing on elephant"},
	{Name: "appheader.stripped_share", Unit: "share", Better: "higher", Moves: onMice + "; nothing on elephant"},

	{Name: "entropy.vector_32b_ns", Unit: "ns", Better: "lower", Moves: onDeep},
	{Name: "entropy.vector_1k_ns", Unit: "ns", Better: "lower", Moves: onDeep},
	{Name: "entropy.vector_1k_allocs", Unit: "count", Better: "lower", Moves: onDeep},

	{Name: "entest.stream_write_ns_per_byte", Unit: "ns", Better: "lower", Moves: onStream},
	{Name: "entest.stream_vector_ns", Unit: "ns", Better: "lower", Moves: onStream},
	{Name: "entest.sketch_bytes_per_flow", Unit: "B", Better: "lower", Moves: onStream},

	{Name: "core.classify_32b_ns", Unit: "ns", Better: "lower", Moves: onClassify},
	{Name: "core.classify_1k_ns", Unit: "ns", Better: "lower", Moves: onClassify},
	{Name: "core.classify_vector_cart_ns", Unit: "ns", Better: "lower", Moves: onClassify},
	{Name: "core.classify_vector_dagsvm_ns", Unit: "ns", Better: "lower", Moves: onClassify},
	{Name: "core.classify_calls", Unit: "count", Better: "lower", Moves: onClassify},
	{Name: "core.classify_busy_share", Unit: "share", Better: "lower", Moves: onClassify},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower", Moves: onRouted},
	{Name: "cluster.forwarded", Unit: "count", Better: "higher", Moves: onRouted},
	{Name: "cluster.journal_dropped", Unit: "count", Better: "lower", Moves: onRouted},
	{Name: "cluster.node_skew", Unit: "ratio", Better: "lower", Moves: onRouted},
	{Name: "cluster.hop_cost_us_per_packet", Unit: "us", Better: "lower", Moves: onRouted},

	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: "lower", Moves: onGC},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: onGC},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: onGC},

	{Name: "gen.lag_p99_us", Unit: "us", Better: "lower", Moves: onSelf},
	{Name: "gen.flows_per_s", Unit: "1/s", Better: "higher", Moves: "packets_per_s x the workload's flows per packet"},
	{Name: "gen.payload_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "packets_per_s x the workload's payload bytes per packet"},
	{Name: "gen.verdict_latency_p50_us", Unit: "us", Better: "lower", Moves: "what a user waits for a verdict at the frozen paced rate"},
	{Name: "gen.verdict_latency_p90_us", Unit: "us", Better: "lower", Moves: "its tail; moved by ingest.backlog_p99 and runtime.gc_*"},
	{Name: "gen.verdict_latency_p99_us", Unit: "us", Better: "lower", Moves: onLatency},
	{Name: "gen.latency_unmatched", Unit: "count", Better: "lower", Moves: onSelf},
	{Name: "gen.trace_overhead_share", Unit: "share", Better: "lower", Moves: onSelf},

	{Name: "layers.sum_us_per_packet", Unit: "us", Better: "lower", Moves: onAllCPU},
	{Name: "layers.residual_share", Unit: "share", Better: "lower",
		Moves: "above 0.35 the table is missing a layer"},
}

// residualLimit is the reconciliation gap above which the layer table is
// declared incomplete.
const residualLimit = 0.35

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

// fill turns raw values into a metricSet carrying every metric of defs,
// so a run always reports the full list by name.
func fill(defs []metricDef, values map[string]float64) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
