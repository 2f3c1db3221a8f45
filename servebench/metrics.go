package main

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
	// target is the end-to-end metric a per-layer metric should move, and
	// on which workload.
	target string
}

// endToEndMetrics are measured with tracing off, on every workload.
// failed_frac (0 when nothing fails) and fpga_model_s_per_mread (exact-fpga
// only) are printed with them but carried in the result line's
// attempted/failed fields and the per-layer table respectively, since a
// reported metric must be present on every workload and never 0.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "reads_per_s", unit: "reads/s", better: "higher"},
	{name: "done_p50_s", unit: "s", better: "lower"},
	{name: "done_p90_s", unit: "s", better: "lower"},
	{name: "first_row_p50_s", unit: "s", better: "lower"},
	{name: "first_row_p90_s", unit: "s", better: "lower"},
	{name: "correct_frac", unit: "fraction", better: "higher"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
}

// printedOnly are end-to-end figures printed but not in the result line.
var printedOnly = []metricDef{
	{name: "failed_frac", unit: "fraction", better: "lower"},
	{name: "fpga_model_s_per_mread", unit: "s/Mread", better: "lower"},
}

// layerMetrics come from the traced run: client spans around HTTP calls and
// spans around each replayed public call. Every workload reports every
// metric, measured on that workload's own index and reads; the table's
// target names the workload whose served path the layer is on.
var layerMetrics = []metricDef{
	{"fastx.read_ns_per_record", "ns", "lower", "done_p50_s on exact-fpga"},
	{"fastx.ref_parse_ms_per_job", "ms", "lower", "done_p50_s on mem-pe-cpu"},
	{"qc.gate_ns_per_read", "ns", "lower", "done_p50_s on mem-pe-cpu"},
	{"qc.rejected_frac", "fraction", "lower", "done_p50_s on mem-pe-cpu"},
	{"core.cache_key_ms_per_job", "ms", "lower", "done_p50_s on mem-pe-cpu"},
	{"core.cache_hit_ratio", "fraction", "higher", "done_p50_s on churn-gateway vs the others"},
	{"core.build_index_s", "s", "lower", "setup_s everywhere; reads_per_s on churn-gateway"},
	{"suffixarray.build_s_per_mbase", "s/Mbase", "lower", "setup_s everywhere; reads_per_s on churn-gateway"},
	{"bwt.transform_s_per_mbase", "s/Mbase", "lower", "setup_s everywhere; reads_per_s on churn-gateway"},
	{"wavelet.encode_s_per_mbase", "s/Mbase", "lower", "setup_s everywhere; reads_per_s on churn-gateway"},
	{"fmindex.ftab_build_ms", "ms", "lower", "setup_s everywhere; reads_per_s on churn-gateway"},
	{"core.ensure_mem_s", "s", "lower", "setup_s on mem-pe-cpu"},
	{"core.save_index_ms", "ms", "lower", "done_p50_s on churn-gateway"},
	{"core.index_bytes_per_base", "B/base", "lower", "peak_rss_mib on exact-fpga"},
	{"core.mem_bytes_per_base", "B/base", "lower", "peak_rss_mib on mem-pe-cpu"},
	{"wavelet.rank_ns", "ns", "lower", "reads_per_s on exact-fpga and mem-pe-cpu"},
	{"wavelet.rankall_ns", "ns", "lower", "reads_per_s on exact-fpga and mem-pe-cpu"},
	{"rrr.rank1_ns", "ns", "lower", "reads_per_s on exact-fpga and mem-pe-cpu"},
	{"fmindex.search_ns_per_read", "ns", "lower", "reads_per_s on exact-fpga"},
	{"fmindex.steps_per_read", "count", "lower", "reads_per_s on exact-fpga"},
	{"fmindex.locate_ns_per_hit", "ns", "lower", "reads_per_s on exact-fpga"},
	{"fmindex.smem_ns_per_read", "ns", "lower", "reads_per_s on mem-pe-cpu"},
	{"fmindex.smem_steps_per_read", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.map_exact_ns_per_read", "ns", "lower", "reads_per_s on exact-fpga"},
	{"core.verify_ns_per_read", "ns", "lower", "reads_per_s on exact-fpga"},
	{"core.map_mem_ns_per_read", "ns", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.mem_allocs_per_read", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.seeds_per_read", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.chains_per_read", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.dp_cells_per_read", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.rescues_per_kread", "count", "lower", "reads_per_s on mem-pe-cpu"},
	{"core.mem_remainder_ns_per_read", "ns", "lower", "reads_per_s on mem-pe-cpu"},
	{"align.extend_ns_per_call", "ns", "lower", "reads_per_s on mem-pe-cpu"},
	{"sam.record_ns_per_read", "ns", "lower", "done_p50_s on mem-pe-cpu"},
	{"fpga.kernel_host_ns_per_read", "ns", "lower", "reads_per_s on exact-fpga"},
	{"fpga.model_kernel_cycles_per_read", "cycles", "lower", "fpga_model_s_per_mread on exact-fpga (modeled)"},
	{"fpga.model_setup_share_pct", "%", "lower", "fpga_model_s_per_mread on exact-fpga (modeled)"},
	{"fpga.model_wave_overhead_pct", "%", "lower", "fpga_model_s_per_mread on exact-fpga (modeled)"},
	{"fpga.model_s_per_mread", "s/Mread", "lower", "fpga_model_s_per_mread on exact-fpga (modeled, never added to wall-clock)"},
	{"server.submit_ms", "ms", "lower", "done_p50_s everywhere"},
	{"server.state_bytes_per_job", "B", "lower", "done_p50_s everywhere"},
	{"server.unattributed_ms_per_job", "ms", "lower", "done_p50_s everywhere"},
	{"cluster.submit_ms", "ms", "lower", "done_p50_s on churn-gateway"},
	{"cluster.forward_overhead_ms", "ms", "lower", "done_p50_s on churn-gateway"},
	{"cluster.busiest_worker_share", "fraction", "lower", "reads_per_s on churn-gateway"},
	{"trace.reads_per_s", "reads/s", "higher", "reads_per_s everywhere (traced run; the gap is tracing overhead)"},
}

// layerPrintedOnly are per-layer figures in the table but not the result
// line: the modeled set-up per job is constant across seeds by construction
// (batches per job times the set-up charge), so the result line carries its
// share of the modeled device time instead.
var layerPrintedOnly = []metricDef{
	{"fpga.model_setup_ms_per_job", "ms", "lower", "fpga_model_s_per_mread on exact-fpga (modeled)"},
}
