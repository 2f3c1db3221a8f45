package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// printHeader prints the host and input block every result set carries.
func (b *bench) printHeader(h hostInfo) {
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	refNote := "the same reference for every job"
	if b.w.gateway {
		refNote = "a fresh reference per job"
	}
	fmt.Printf("input: workload=%s seed=%d reference_bases=%d (%s) clients=%d window=%ds trace=%v\n",
		b.w.name, b.w.seed, b.w.refBases(), refNote, clients, b.opts.seconds, b.opts.trace)
	fmt.Printf("working set: index_bytes=%d (one cached index) vs l2=%s l3=%s per core\n",
		b.indexBytes, h.L2, h.L3)
	keys := make([]string, 0, len(b.digests))
	for k := range b.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("payload sha256/%s=%s\n", k, b.digests[k])
	}
}

// printEndToEnd prints every end-to-end metric by name with its unit.
func (b *bench) printEndToEnd(m map[string]metricValue, timed []outcome) {
	attempted, failed := b.tally()
	fmt.Printf("jobs: attempted=%d failed=%d timed=%d (latency percentiles over the timed jobs; set-up is the median of %d fresh servers)\n",
		attempted, failed, len(timed), len(b.setupDone))
	fmt.Printf("cpu steal during the window: %.1f%% of CPU time (time the hypervisor ran other guests on this host's cores)\n", b.stealPct)
	var done []float64
	for _, o := range timed {
		done = append(done, o.done.Seconds())
	}
	if _, ok := percentile(done, 0.9); !ok {
		fmt.Printf("note: p90 rests on %d samples, fewer than ten beyond it\n", len(done))
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), printedOnly...) {
		v, ok := m[d.name]
		switch {
		case ok && d.name == "fpga_model_s_per_mread":
			fmt.Printf("metric %-24s %14.6f %s (modeled device time from the cycle model, not silicon; never added to wall-clock)\n", d.name, v.Value, v.Unit)
		case ok:
			fmt.Printf("metric %-24s %14.6f %s\n", d.name, v.Value, v.Unit)
		default:
			fmt.Printf("metric %-24s %14s (cpu backend: no modeled device time)\n", d.name, "n/a")
		}
	}
}

// resultSet is one run's record under <root>/.bench_out: the result line
// plus the host and input block it was measured with.
type resultSet struct {
	Host  hostInfo `json:"host"`
	Input struct {
		Workload       string            `json:"workload"`
		Seed           int64             `json:"seed"`
		ReferenceBases int               `json:"reference_bases"`
		IndexBytes     int               `json:"index_bytes"`
		Clients        int               `json:"clients"`
		WindowSeconds  int               `json:"window_s"`
		TimedJobs      int               `json:"timed_jobs"`
		StealPct       float64           `json:"cpu_steal_pct"`
		Payloads       map[string]string `json:"payload_sha256"`
	} `json:"input"`
	Trace  bool    `json:"trace"`
	Result *result `json:"result"`
}

func outDir(root string) string { return filepath.Join(root, ".bench_out") }

func resultSetPath(o options) string {
	t := 0
	if o.trace {
		t = 1
	}
	return filepath.Join(outDir(o.root), fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t))
}

func (b *bench) writeResultSet(h hostInfo, res *result, timed int) error {
	rs := resultSet{Host: h, Trace: b.opts.trace, Result: res}
	rs.Input.Workload, rs.Input.Seed = b.w.name, b.w.seed
	rs.Input.ReferenceBases = b.w.refBases()
	rs.Input.IndexBytes, rs.Input.Clients = b.indexBytes, clients
	rs.Input.WindowSeconds, rs.Input.TimedJobs = b.opts.seconds, timed
	rs.Input.StealPct = b.stealPct
	rs.Input.Payloads = b.digests
	out, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir(b.opts.root), 0o755); err != nil {
		return err
	}
	return os.WriteFile(resultSetPath(b.opts), out, 0o644)
}

// untracedMedian is the median reads/s over this workload's untraced result
// sets, the baseline a traced run's tracing overhead is taken against.
func untracedMedian(o options) (float64, int) {
	paths, _ := filepath.Glob(filepath.Join(outDir(o.root), o.workload+"-seed*-trace0.json"))
	var xs []float64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var rs resultSet
		if json.Unmarshal(raw, &rs) == nil && rs.Result != nil && rs.Input.Workload == o.workload {
			xs = append(xs, rs.Result.Metrics["reads_per_s"].Value)
		}
	}
	return median(xs), len(xs)
}
