// Command servebench is the repository's end-to-end benchmark of served
// mapping jobs. run.sh builds it and bwaver-server from the checkout; it
// then starts bwaver-server child processes (a standalone server, or a
// gateway fronting two workers), each with its own -state-dir, and drives
// one workload over HTTP as a closed loop of two clients. Every job's
// NDJSON result rows are checked against the readsim ground truth.
//
// An untraced run (-trace 0) times the set-up job on three fresh servers,
// then the load window, and prints the end-to-end metrics. A traced run
// (-trace 1) also records client spans, probes the submit path through a
// gateway and directly, replays a sample of the window's jobs in-process
// through each layer's public calls, and prints the per-layer metrics. Both
// print the host and input block first and record it, with the result, in
// <root>/.bench_out/<workload>-seed<N>-trace<T>.json; a traced run writes
// its spans and per-layer table to <root>/.bench_out/<workload>-seed<N>-trace1/.
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// clients is the closed loop's size: two pipelines, each waiting for its
// job's results before submitting the next, on a 2-core host.
const clients = 2

// runDeadline bounds a run, so a stuck server fails it instead of hanging.
const runDeadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // the checkout's root
	server   string // bwaver-server binary built from the checkout
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives byte-identical inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the timed load window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.root, "root", ".", "checkout root (outputs go under <root>/.bench_out)")
	flag.StringVar(&o.server, "server", "", "path to the bwaver-server binary under test")
	flag.Parse()
	o.trace = trace == 1
	if o.server == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	res, err := run(ctx, o)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	opts     options
	w        *workload
	tr       *tracer
	dir      string // the run's scratch directory, removed at the end
	cl       *client
	outcomes []outcome // every job submitted, in completion order
	peakRSS  int64
	// loadStart opens the timed window.
	loadStart time.Time
	// stealPct is the share of CPU time the hypervisor stole in the window.
	stealPct float64
	detErr   error // first determinism mismatch
	// set-up job figures, one per fresh server
	setupDone  []float64
	setupMapMs []float64
	setupMem   []string
	indexBytes int
	digests    map[string]string
}

func run(ctx context.Context, o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	host := probeHost(o.root)
	b := &bench{opts: o, w: w, digests: map[string]string{}}
	if o.trace {
		b.tr = newTracer()
	}
	b.cl = &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		tr:   b.tr, mem: w.mode != "", fpga: w.backend == "fpga",
	}
	if err := b.checkPayloadDeterminism(); err != nil {
		return nil, err
	}
	b.dir, err = os.MkdirTemp(filepath.Join(o.root, ".bench_build"), fmt.Sprintf("run-%s-", o.workload))
	if err != nil {
		return nil, fmt.Errorf("scratch dir (is this a built checkout?): %w", err)
	}
	defer os.RemoveAll(b.dir)

	// Set up on fresh servers several times and keep the last for the load:
	// set-up time is the median, and the repeats double as the determinism
	// check of modeled cycles and mem counters across processes.
	reps := 3
	if o.trace {
		reps = 1
	}
	var cl *cluster
	for rep := 1; rep <= reps; rep++ {
		if cl, err = b.setup(ctx, rep); err != nil {
			return nil, err
		}
		if rep < reps {
			cl.stop()
		}
	}
	defer func() {
		if cl != nil {
			cl.stop()
		}
	}()

	window, timed, err := b.load(ctx, cl)
	if err != nil {
		return nil, err
	}
	if err := b.notePeakRSS(cl); err != nil {
		return nil, err
	}
	e2e := b.endToEnd(window, timed)
	b.printHeader(host)
	if !o.trace {
		b.printEndToEnd(e2e, timed)
		res := b.result(e2e)
		return res, b.writeResultSet(host, res, len(timed))
	}

	layers, err := b.traced(ctx, cl, timed, e2e)
	cl = nil // traced stopped it
	if err != nil {
		return nil, err
	}
	res := b.result(layers)
	return res, b.writeResultSet(host, res, len(timed))
}

// checkPayloadDeterminism generates the set-up job and job 0 from two
// independent workload instances and requires byte-identical payloads.
func (b *bench) checkPayloadDeterminism() error {
	w2, err := newWorkload(b.w.name, b.w.seed)
	if err != nil {
		return err
	}
	for _, idx := range []int{setupJob, 0} {
		p1, err := b.w.job(idx)
		if err != nil {
			return err
		}
		p2, err := w2.job(idx)
		if err != nil {
			return err
		}
		d1, d2 := payloadDigest(p1), payloadDigest(p2)
		if d1 != d2 {
			return fmt.Errorf("payload of job %d differs between two generations with seed %d", idx, b.w.seed)
		}
		b.digests[fmt.Sprintf("job%d", idx)] = d1
	}
	return nil
}

func payloadDigest(p *payload) string {
	h := sha256.New()
	h.Write(p.refFA)
	h.Write(p.readsFQ)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// setup starts a fresh cluster and times its first, cut-down job.
func (b *bench) setup(ctx context.Context, rep int) (*cluster, error) {
	cl, err := startCluster(ctx, b.opts.server, filepath.Join(b.dir, fmt.Sprintf("rep%d", rep)), b.w.gateway)
	if err != nil {
		return nil, err
	}
	p, err := b.w.job(setupJob)
	if err == nil {
		var rq *request
		if rq, err = newRequest(b.w, p); err == nil {
			err = b.setupJob(ctx, cl, rq)
		}
	}
	if err == nil {
		err = b.notePeakRSS(cl)
	}
	if err != nil {
		cl.stop()
		return nil, err
	}
	return cl, nil
}

func (b *bench) setupJob(ctx context.Context, cl *cluster, rq *request) error {
	o := b.cl.run(ctx, cl.front, rq)
	b.outcomes = append(b.outcomes, o)
	if o.failed() {
		return fmt.Errorf("set-up job failed: %w", o.err)
	}
	b.setupDone = append(b.setupDone, o.done.Seconds())
	owner := cl.front
	if b.w.gateway {
		owner = o.job.Worker
	}
	var st struct {
		Cache struct {
			SizeBytes int `json:"size_bytes"`
		} `json:"cache"`
		Mem json.RawMessage `json:"mem"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/api/stats", nil)
	if err != nil {
		return err
	}
	if _, err := b.cl.doJSON(req, &st); err != nil {
		return fmt.Errorf("stats of %s: %w", owner, err)
	}
	b.indexBytes = st.Cache.SizeBytes
	b.setupMapMs = append(b.setupMapMs, o.job.MapMs)
	b.setupMem = append(b.setupMem, string(st.Mem))
	// The same payload on a fresh server must model the same device time
	// and count the same mem work, to the last cycle and cell.
	n := len(b.setupMapMs)
	if n > 1 && b.detErr == nil {
		if b.w.backend == "fpga" && b.setupMapMs[n-1] != b.setupMapMs[0] {
			b.detErr = fmt.Errorf("modeled map_ms of the set-up job differs across servers: %v vs %v", b.setupMapMs[n-1], b.setupMapMs[0])
		}
		if b.w.mode != "" && b.setupMem[n-1] != b.setupMem[0] {
			b.detErr = fmt.Errorf("mem counters of the set-up job differ across servers: %s vs %s", b.setupMem[n-1], b.setupMem[0])
		}
	}
	return nil
}

func (b *bench) notePeakRSS(cl *cluster) error {
	rss, err := cl.peakRSS()
	if err != nil {
		return err
	}
	b.peakRSS = max(b.peakRSS, rss)
	return nil
}

// load runs the closed loop for the window and returns the jobs that
// completed inside it. Jobs still in flight when the window closes are
// waited for and checked, but are not timed.
func (b *bench) load(ctx context.Context, cl *cluster) (time.Duration, []outcome, error) {
	window := time.Duration(b.opts.seconds) * time.Second
	// Payloads are generated ahead of the clients, one per client, so
	// generation overlaps serving instead of adding client think time.
	reqs := make(chan *request, clients)
	genCtx, stopGen := context.WithCancel(ctx)
	genErr := make(chan error, 1)
	go func() {
		defer close(reqs)
		for i := 0; ; i++ {
			p, err := b.w.job(i)
			var rq *request
			if err == nil {
				rq, err = newRequest(b.w, p)
			}
			if err != nil {
				genErr <- err
				return
			}
			select {
			case reqs <- rq:
			case <-genCtx.Done():
				return
			}
		}
	}()

	total0, steal0 := cpuTicks()
	start := time.Now()
	b.loadStart = start
	results := make(chan outcome, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for time.Since(start) < window {
				rq, ok := <-reqs
				if !ok {
					break
				}
				o := b.cl.run(ctx, cl.front, rq)
				results <- o
				if ctx.Err() != nil {
					break
				}
			}
			results <- outcome{index: -2} // this client is done
		}()
	}
	var loadOutcomes []outcome
	for running := clients; running > 0; {
		o := <-results
		if o.index == -2 {
			running--
			continue
		}
		loadOutcomes = append(loadOutcomes, o)
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		b.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	stopGen()
	for range reqs { // let the generator exit
	}
	select {
	case err := <-genErr:
		return 0, nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	b.outcomes = append(b.outcomes, loadOutcomes...)
	end := start.Add(window)
	var timed []outcome
	for _, o := range loadOutcomes {
		if !o.failed() && !o.end.After(end) {
			timed = append(timed, o)
		}
	}
	return window, timed, nil
}

// endToEnd computes the end-to-end metrics over the timed jobs.
func (b *bench) endToEnd(window time.Duration, timed []outcome) map[string]metricValue {
	var reads, known, correct int
	var done, first, mapMs []float64
	// Throughput runs to the last completion inside the window rather than
	// to the window's end, so it is not quantized to whole jobs.
	span := window
	if len(timed) > 0 {
		span = 0
	}
	for _, o := range timed {
		span = max(span, o.end.Sub(b.loadStart))
		reads += o.rows
		done = append(done, o.done.Seconds())
		first = append(first, o.firstRow.Seconds())
		mapMs = append(mapMs, o.job.MapMs)
	}
	for _, o := range b.outcomes {
		known += o.known
		correct += o.correct
	}
	p90 := func(xs []float64) float64 { v, _ := percentile(xs, 0.9); return v }
	m := map[string]metricValue{
		"setup_s":         {median(b.setupDone), "s"},
		"reads_per_s":     {float64(reads) / span.Seconds(), "reads/s"},
		"done_p50_s":      {median(done), "s"},
		"done_p90_s":      {p90(done), "s"},
		"first_row_p50_s": {median(first), "s"},
		"first_row_p90_s": {p90(first), "s"},
		"correct_frac":    {ratio(correct, known), "fraction"},
		"peak_rss_mib":    {float64(b.peakRSS) / (1 << 20), "MiB"},
	}
	attempted, failed := b.tally()
	m["failed_frac"] = metricValue{ratio(failed, attempted), "fraction"}
	if b.w.backend == "fpga" && reads > 0 {
		var sum float64
		for _, v := range mapMs {
			sum += v
		}
		m["fpga_model_s_per_mread"] = metricValue{sum / 1e3 / float64(reads) * 1e6, "s/Mread"}
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// tally counts the jobs attempted and those refused, failed or failing a
// check.
func (b *bench) tally() (attempted, failed int) {
	for _, o := range b.outcomes {
		attempted++
		if o.failed() {
			failed++
		}
	}
	return attempted, failed
}

// result keeps the metrics BENCHMARK.json declares for this kind of run.
func (b *bench) result(all map[string]metricValue) *result {
	attempted, failed := b.tally()
	declared := endToEndMetrics
	if b.opts.trace {
		declared = layerMetrics
	}
	out := &result{
		Correct:   failed == 0 && b.detErr == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range declared {
		out.Metrics[d.name] = all[d.name]
	}
	if b.detErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: determinism check failed:", b.detErr)
	}
	for _, o := range b.outcomes {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "servebench: job %d: %v\n", o.index, o.err)
		}
	}
	return out
}
