package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Traced-run sizes: jobs replayed in-process, and probe jobs submitted both
// through a gateway and straight to the owning server.
const (
	replayJobsExact = 2
	replayJobsOther = 4
	probeJobs       = 5
)

// traced finishes a traced run: the submit probe against the live cluster,
// then the in-process replay, then the per-layer table.
func (b *bench) traced(ctx context.Context, cl *cluster, timed []outcome, e2e map[string]metricValue) (map[string]metricValue, error) {
	vals := map[string]float64{"trace.reads_per_s": e2e["reads_per_s"].Value}
	served := 0
	for _, o := range b.outcomes {
		if o.err == nil {
			served++
		}
	}
	vals["server.state_bytes_per_job"] = float64(cl.stateBytes()) / float64(max(served, 1))

	hits := 0
	for _, o := range timed {
		if o.job.CacheHit {
			hits++
		}
	}
	vals["core.cache_hit_ratio"] = ratio(hits, len(timed))
	sort.Slice(timed, func(i, j int) bool { return timed[i].index < timed[j].index })
	n := replayJobsOther
	if b.w.name == "exact-fpga" {
		n = replayJobsExact
	}
	if len(timed) < n {
		cl.stop()
		return nil, fmt.Errorf("only %d timed jobs, need %d to replay", len(timed), n)
	}
	sample := timed[:n]

	err := b.probe(ctx, cl, sample, timed, vals)
	cl.stop()
	if err != nil {
		return nil, err
	}

	var payloads []*payload
	for _, o := range sample {
		p, err := b.w.job(o.index)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, p)
	}
	rp := newReplayer(b.w, b.tr, b.dir)
	roots, err := rp.run(payloads)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	spans := b.tr.snapshot()
	rp.metrics(spans, vals)
	// What the replay cannot account for of each sampled job's served time:
	// HTTP, queueing, journaling and row rendering.
	self := selfTimes(spans)
	var unattributed []float64
	for i, id := range roots {
		covered := spans[id-1].dur() - self[id-1]
		unattributed = append(unattributed, float64(sample[i].done-covered)/float64(time.Millisecond))
	}
	vals["server.unattributed_ms_per_job"] = mean(unattributed)

	if err := b.writeTrace(spans, vals); err != nil {
		return nil, err
	}
	out := map[string]metricValue{}
	for _, d := range layerMetrics {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probe submits sampled jobs once through a gateway and once straight to
// the server that owns them, one at a time on the otherwise idle cluster,
// so the two submit latencies differ only by the forwarding hop. A
// standalone workload gets a gateway started in front of its server.
func (b *bench) probe(ctx context.Context, cl *cluster, sample, timed []outcome, vals map[string]float64) error {
	gateway := cl.front
	owners := map[string]int{}
	if b.w.gateway {
		for _, o := range timed {
			owners[o.job.Worker]++
		}
	} else {
		gw, err := startProc(b.opts.server, filepath.Join(b.dir, "probe"), "probe-gateway", "-mode=gateway", "-workers="+cl.front)
		if err != nil {
			return err
		}
		defer gw.stop()
		if err := waitHealthyWorkers(ctx, gw.url, 1); err != nil {
			return err
		}
		gateway = gw.url
	}
	var viaGateway, direct []float64
	for i := 0; i < probeJobs; i++ {
		p, err := b.w.job(sample[i%len(sample)].index)
		if err != nil {
			return err
		}
		rq, err := newRequest(b.w, p)
		if err != nil {
			return err
		}
		g := b.cl.run(ctx, gateway, rq)
		b.outcomes = append(b.outcomes, g)
		if g.failed() {
			return fmt.Errorf("probe job via gateway: %w", g.err)
		}
		owner := g.job.Worker
		if !b.w.gateway {
			owners[owner]++
			owner = cl.front
		}
		d := b.cl.run(ctx, owner, rq)
		b.outcomes = append(b.outcomes, d)
		if d.failed() {
			return fmt.Errorf("probe job direct to %s: %w", owner, d.err)
		}
		viaGateway = append(viaGateway, g.submit.Seconds()*1e3)
		direct = append(direct, d.submit.Seconds()*1e3)
	}
	vals["cluster.submit_ms"] = median(viaGateway)
	vals["server.submit_ms"] = median(direct)
	vals["cluster.forward_overhead_ms"] = median(viaGateway) - median(direct)
	busiest, total := 0, 0
	for _, n := range owners {
		busiest, total = max(busiest, n), total+n
	}
	vals["cluster.busiest_worker_share"] = ratio(busiest, total)
	return nil
}

// spanStat sums self time, total time, work units and calls per span name.
type spanStat struct {
	self  time.Duration
	total time.Duration
	units int
	calls int
}

func aggregate(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		st.self += self[i]
		st.total += s.dur()
		st.units += s.Units
		st.calls++
		out[s.Name] = st
	}
	return out
}

// metrics turns the replay's spans and counters into per-layer values.
func (r *replayer) metrics(spans []span, vals map[string]float64) {
	agg := aggregate(spans)
	perUnit := func(name string, scale time.Duration) float64 {
		st := agg[name]
		if st.units == 0 {
			return 0
		}
		return float64(st.self) / float64(scale) / float64(st.units)
	}
	perCall := func(name string, scale time.Duration) float64 {
		st := agg[name]
		if st.calls == 0 {
			return 0
		}
		return float64(st.self) / float64(scale) / float64(st.calls)
	}
	perMbase := func(name string) float64 { return perUnit(name, time.Second) * 1e6 }
	vals["fastx.read_ns_per_record"] = perUnit("fastx.Reader.Read/reads", time.Nanosecond)
	vals["fastx.ref_parse_ms_per_job"] = perCall("fastx.Reader.Read/reference", time.Millisecond)
	vals["qc.gate_ns_per_read"] = perUnit("qc.Gate", time.Nanosecond)
	vals["qc.rejected_frac"] = ratio(r.gateRejected, r.gateIn)
	vals["core.cache_key_ms_per_job"] = perCall("core.CacheKey", time.Millisecond)
	vals["core.build_index_s"] = perCall("core.BuildIndex", time.Second)
	vals["suffixarray.build_s_per_mbase"] = perMbase("suffixarray.Build")
	vals["bwt.transform_s_per_mbase"] = perMbase("bwt.Transform")
	vals["wavelet.encode_s_per_mbase"] = perMbase("wavelet.New")
	vals["fmindex.ftab_build_ms"] = perCall("fmindex.BuildFtab", time.Millisecond)
	if st := agg["core.ensure_mem"]; st.calls > 0 {
		vals["core.ensure_mem_s"] = st.total.Seconds() / float64(st.calls)
	}
	vals["core.save_index_ms"] = perCall("core.Index.SaveFile", time.Millisecond)
	vals["core.index_bytes_per_base"] = r.indexPerBase
	vals["core.mem_bytes_per_base"] = r.memPerBase
	vals["wavelet.rank_ns"] = perUnit("wavelet.Tree.Rank", time.Nanosecond)
	vals["wavelet.rankall_ns"] = perUnit("wavelet.Tree.RankAll", time.Nanosecond)
	vals["rrr.rank1_ns"] = perUnit("rrr.Sequence.Rank1", time.Nanosecond)
	searched := agg["fmindex.SearchWithFtab"].units
	vals["fmindex.search_ns_per_read"] = perUnit("fmindex.SearchWithFtab", time.Nanosecond)
	vals["fmindex.steps_per_read"] = ratio(r.steps, searched)
	vals["fmindex.locate_ns_per_hit"] = perUnit("fmindex.LocateAppend", time.Nanosecond)
	seeded := agg["fmindex.BiIndex.SMEMsAppend"].units
	vals["fmindex.smem_ns_per_read"] = perUnit("fmindex.BiIndex.SMEMsAppend", time.Nanosecond)
	vals["fmindex.smem_steps_per_read"] = ratio(r.smemSteps, seeded)
	vals["core.map_exact_ns_per_read"] = perUnit("core.Index.MapReadsInto", time.Nanosecond)
	vals["core.verify_ns_per_read"] = perUnit("core.VerifySampled", time.Nanosecond)
	vals["core.map_mem_ns_per_read"] = perUnit("core.Index.MapReadsMemInto", time.Nanosecond)
	m := r.mem
	vals["core.mem_allocs_per_read"] = float64(r.memMallocs) / float64(max(m.Reads, 1))
	vals["core.seeds_per_read"] = ratio(m.Seeds, m.Reads)
	vals["core.chains_per_read"] = ratio(m.Chains, m.Reads)
	vals["core.dp_cells_per_read"] = ratio(m.Cells, m.Reads)
	vals["core.rescues_per_kread"] = 1000 * ratio(m.Rescues, m.Reads)
	vals["align.extend_ns_per_call"] = perUnit("align.Extender.ExtendSeed", time.Nanosecond)
	// Chaining, MAPQ and rescue: the mem pipeline's time per read less its
	// seeding and its extensions at the measured per-call cost.
	vals["core.mem_remainder_ns_per_read"] = vals["core.map_mem_ns_per_read"] - vals["fmindex.smem_ns_per_read"] -
		vals["align.extend_ns_per_call"]*ratio(m.Extensions, m.Reads)
	vals["sam.record_ns_per_read"] = perUnit("sam.Writer.Write", time.Nanosecond)
	vals["fpga.kernel_host_ns_per_read"] = perUnit("fpga.Kernel.MapReads", time.Nanosecond)
	vals["fpga.model_kernel_cycles_per_read"] = float64(r.kernelCycles) / float64(max(r.kernelReads, 1))
	vals["fpga.model_setup_ms_per_job"] = r.modelSetup.Seconds() * 1e3 / float64(max(r.kernelJobs, 1))
	if r.modelTotal > 0 {
		vals["fpga.model_setup_share_pct"] = 100 * r.modelSetup.Seconds() / r.modelTotal.Seconds()
	}
	if r.kernelCycles > 0 {
		vals["fpga.model_wave_overhead_pct"] = 100 * (float64(r.waveCycles) - float64(r.kernelCycles)) / float64(r.kernelCycles)
	}
	vals["fpga.model_s_per_mread"] = r.modelTotal.Seconds() / float64(max(r.kernelReads, 1)) * 1e6
}

// writeTrace writes the spans and the per-layer table under
// <root>/.bench_out/<workload>-seed<N>-trace1/ and prints the table.
func (b *bench) writeTrace(spans []span, vals map[string]float64) error {
	dir := filepath.Join(outDir(b.opts.root), fmt.Sprintf("%s-seed%d-trace1", b.w.name, b.w.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return err
	}
	var tsv strings.Builder
	tsv.WriteString("metric\tvalue\tunit\ttargets\n")
	for _, d := range append(append([]metricDef(nil), layerMetrics...), layerPrintedOnly...) {
		fmt.Fprintf(&tsv, "%s\t%.6g\t%s\t%s\n", d.name, vals[d.name], d.unit, d.target)
		fmt.Printf("layer %-34s %14.6g %-8s -> %s\n", d.name, vals[d.name], d.unit, d.target)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.tsv"), []byte(tsv.String()), 0o644); err != nil {
		return err
	}
	untraced, runs := untracedMedian(b.opts)
	traced := vals["trace.reads_per_s"]
	if runs > 0 {
		fmt.Printf("tracing overhead: traced reads_per_s %.1f vs untraced median %.1f over %d runs (%+.1f%%)\n",
			traced, untraced, runs, 100*(traced-untraced)/untraced)
	} else {
		fmt.Printf("tracing overhead: traced reads_per_s %.1f; no untraced run of %s recorded yet\n", traced, b.w.name)
	}
	fmt.Printf("trace: %d spans in %s\n", len(spans), filepath.Join(dir, "spans.jsonl"))
	return nil
}
