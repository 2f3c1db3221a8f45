package fpga

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/obs"
)

// Farm models a multi-card deployment, the configuration of the paper's
// related work (Fernandez et al. on four Virtex-6 FPGAs, Arram et al. on
// eight Stratix V): the same index is broadcast to every card and the read
// batch is striped across them. The paper argues its single-card design
// "can be easily replicated to obtain even better performances"; Farm
// quantifies that claim under a shared-PCIe model — transfers serialise on
// the host bus while kernels run in parallel.
//
// The farm is also the resilience layer over the fault-injectable devices:
// each shard is retried on its card with exponential backoff and bounded
// attempts, every result batch is checksum-verified (and optionally
// cross-checked against the CPU path on a sampled subset), and a card whose
// circuit breaker opens is taken out of rotation with its shard
// redistributed to the healthy cards. Only when every card is broken does a
// run fail — with ErrNoHealthyDevices, the signal the server's CPU fallback
// keys on.
type Farm struct {
	kernels []*Kernel
	devices []*Device
	opts    FarmOptions
	rec     *StatsRecorder

	// Metric instruments, nil unless FarmOptions.Metrics was set.
	stageSeconds *obs.HistogramVec
	backoffTotal *obs.CounterVec

	// mu guards the jitter RNG; concurrent jobs may share one farm.
	mu  sync.Mutex
	rng uint64
}

// FarmOptions tune the resilience layer; the zero value takes the listed
// defaults, reproducing fault-free behaviour exactly when no fault plan is
// attached to the devices.
type FarmOptions struct {
	// Retry bounds per-device attempts and shapes the backoff.
	Retry RetryPolicy
	// BreakerThreshold consecutive failures open a device's breaker;
	// default DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is the open-breaker probe delay; default
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// VerifyStride cross-checks every Nth result of a shard against the
	// CPU path (0 disables) — the host-side defense against corruption
	// that slips past the batch checksum.
	VerifyStride int
	// Recorder receives the resilience counters; nil creates a private one.
	Recorder *StatsRecorder
	// Metrics, when non-nil, receives per-stage modeled duration histograms
	// (bwaver_fpga_stage_seconds) and the accrued retry-backoff counter
	// (bwaver_fpga_retry_backoff_seconds_total) for every successful shard
	// run. Families are get-or-create, so farms built per cache entry share
	// one registry's series.
	Metrics *obs.Registry
	// Seed drives the backoff jitter; 0 takes a fixed default so runs stay
	// reproducible.
	Seed uint64
}

// NewFarm programs the index onto every device with default resilience
// options.
func NewFarm(devices []*Device, ix *core.Index) (*Farm, error) {
	return NewFarmOpts(devices, ix, FarmOptions{})
}

// NewFarmOpts programs the index onto every device and configures the
// resilience layer. Device breakers keep their accumulated state: a new farm
// over already-running cards cannot mask an open breaker.
func NewFarmOpts(devices []*Device, ix *core.Index, opts FarmOptions) (*Farm, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("fpga: farm needs at least one device")
	}
	opts.Retry = opts.Retry.withDefaults()
	if opts.Seed == 0 {
		opts.Seed = 0x42fa7a11
	}
	f := &Farm{
		kernels: make([]*Kernel, len(devices)),
		devices: devices,
		opts:    opts,
		rec:     opts.Recorder,
		rng:     opts.Seed,
	}
	if f.rec == nil {
		f.rec = NewStatsRecorder()
	}
	if opts.Metrics != nil {
		f.stageSeconds = opts.Metrics.Histogram("bwaver_fpga_stage_seconds",
			"Modeled duration of FPGA run stages in seconds, one observation per successful shard run.",
			nil, "stage")
		f.backoffTotal = opts.Metrics.Counter("bwaver_fpga_retry_backoff_seconds_total",
			"Modeled host-side retry backoff accrued by the resilience layer, in seconds.")
	}
	for i, d := range devices {
		k, err := d.Program(ix)
		if err != nil {
			return nil, fmt.Errorf("fpga: device %d: %w", i, err)
		}
		f.kernels[i] = k
		d.breaker.configure(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return f, nil
}

// Size returns the number of cards.
func (f *Farm) Size() int { return len(f.kernels) }

// Stats returns a snapshot of the farm's resilience counters.
func (f *Farm) Stats() ResilienceStats { return f.rec.Snapshot() }

// DeviceHealth returns every card's breaker snapshot.
func (f *Farm) DeviceHealth() []DeviceHealth {
	out := make([]DeviceHealth, len(f.devices))
	for i, d := range f.devices {
		out[i] = DeviceHealth{
			Device:              i,
			Breaker:             d.breaker.State().String(),
			ConsecutiveFailures: d.breaker.ConsecutiveFailures(),
			BreakerTrips:        d.breaker.Trips(),
		}
	}
	return out
}

// LocateResults resolves occurrence positions on the host through the
// index's suffix array (see Kernel.LocateResults).
func (f *Farm) LocateResults(results []core.MapResult) (time.Duration, error) {
	return f.kernels[0].LocateResults(results)
}

// healthyDevices returns the indexes of cards whose breaker admits work.
func (f *Farm) healthyDevices() []int {
	out := make([]int, 0, len(f.devices))
	for i, d := range f.devices {
		if d.breaker.Allow() {
			out = append(out, i)
		}
	}
	return out
}

func (f *Farm) jitter(attempt int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opts.Retry.delay(attempt, &f.rng)
}

// recordFailure folds one shard failure into the counters.
func (f *Farm) recordFailure(err error) {
	var fe *FaultError
	switch {
	case errors.As(err, &fe):
		f.rec.fault(fe.Stage.String())
	case errors.Is(err, ErrResultCorrupt):
		f.rec.checksum()
	case errors.Is(err, errCrossCheckFailed):
		f.rec.crosscheck()
	}
}

// shardWinner identifies where a shard finally succeeded: the device that
// ran it and the 1-based attempt number on that device. Failed attempts
// leave no event timeline (the run aborts before a profile exists), so the
// winner's identity is what makes a recovered run's trace readable.
type shardWinner struct {
	Device  int
	Attempt int
}

// execShard runs fn against the primary device with retry/backoff, then
// against each remaining candidate in turn (redistribution) until one
// succeeds or all are exhausted. It returns the accrued modeled backoff and
// the identity of the successful attempt.
func execShard[T any](f *Farm, ctx context.Context, primary int, candidates []int, fn func(*Kernel) (T, error)) (out T, backoff time.Duration, winner shardWinner, err error) {
	var zero T
	order := make([]int, 0, len(candidates))
	order = append(order, primary)
	for _, c := range candidates {
		if c != primary {
			order = append(order, c)
		}
	}
	var lastErr error
	for oi, di := range order {
		dev := f.devices[di]
		if !dev.breaker.Allow() {
			continue
		}
		if oi > 0 {
			f.rec.redistributed()
		}
		for attempt := 1; ; attempt++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return zero, backoff, shardWinner{}, err
				}
			}
			res, err := fn(f.kernels[di])
			if err == nil {
				dev.breaker.Success()
				return res, backoff, shardWinner{Device: di, Attempt: attempt}, nil
			}
			if !isRetryableFault(err) {
				return zero, backoff, shardWinner{}, err
			}
			lastErr = err
			f.recordFailure(err)
			dev.breaker.Failure()
			if attempt >= f.opts.Retry.MaxAttempts || !dev.breaker.Allow() {
				break
			}
			f.rec.retry()
			backoff += f.jitter(attempt)
		}
	}
	f.rec.exhausted()
	if lastErr == nil {
		return zero, backoff, shardWinner{}, ErrNoHealthyDevices
	}
	return zero, backoff, shardWinner{}, fmt.Errorf("%w (last error: %v)", ErrNoHealthyDevices, lastErr)
}

// observeRun folds one successful shard run's modeled stage durations and
// accrued backoff into the metrics registry, when one is attached.
func (f *Farm) observeRun(p Profile, backoff time.Duration) {
	if f.backoffTotal != nil && backoff > 0 {
		f.backoffTotal.With().Add(backoff.Seconds())
	}
	if f.stageSeconds == nil {
		return
	}
	observe := func(stage string, d time.Duration) {
		f.stageSeconds.With(stage).Observe(d.Seconds())
	}
	observe("setup", p.Setup)
	observe("query_transfer", p.QueryTransfer)
	observe("kernel", p.KernelTime)
	observe("result_transfer", p.ResultTransfer)
	// Conditional stages only when they happened: a resident index pays no
	// transfer, exact-only runs never reconfigure.
	if p.IndexTransfer > 0 {
		observe("index_transfer", p.IndexTransfer)
	}
	if p.Reconfig > 0 {
		observe("reconfig", p.Reconfig)
	}
	if backoff > 0 {
		observe("retry_backoff", backoff)
	}
}

// sortEvents orders a multi-shard event log deterministically: by shard,
// then by virtual-timeline start, then by name. Each shard's events keep
// their in-order command-queue sequence.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Shard != events[j].Shard {
			return events[i].Shard < events[j].Shard
		}
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Name < events[j].Name
	})
}

// verifyRun is the host's acceptance gate for one shard's exact-pass
// results: the batch checksum always, plus a sampled CPU cross-check when
// configured.
func (f *Farm) verifyRun(k *Kernel, shard []dna.Seq, results []core.MapResult, checksum uint64) error {
	if ChecksumResults(results) != checksum {
		return ErrResultCorrupt
	}
	if s := f.opts.VerifyStride; s > 0 {
		if err := core.VerifySampled(k.ix, shard, results, s); err != nil {
			return fmt.Errorf("%w: %v", errCrossCheckFailed, err)
		}
	}
	return nil
}

// shardProgress lifts a shard-local progress callback onto the whole batch.
func shardProgress(opts MapRunOptions, lo, total int) func(done, _ int) {
	if opts.Progress == nil {
		return nil
	}
	p := opts.Progress
	return func(done, _ int) { p(lo+done, total) }
}

// shardRun is a kernel run result the farm can stripe: each one carries the
// modeled profile of the shard it covers.
type shardRun interface{ profile() *Profile }

func (r *RunResult) profile() *Profile     { return &r.Profile }
func (r *TwoPassResult) profile() *Profile { return &r.Profile }
func (r *MemRunResult) profile() *Profile  { return &r.Profile }

// stripe is the farm's one execution path. It splits reads across the
// healthy cards — on even read indexes when paired, so no mate pair splits
// across cards — runs every shard under execShard's retry, verification and
// redistribution, and merges each shard's results at its offset. run maps
// one shard on one card, verify step included.
//
// The returned profile charges setup once, transfers and backoff serially
// (one shared host bus), and the slowest card's kernel time, cycles and
// reconfiguration, since the cards run in parallel. Overlap and WaveCycles
// are per-card figures and stay unaggregated. The event log keeps per-shard
// identity — each shard's command queue tagged with the device and attempt
// that produced it — instead of a synthesized single-queue timeline that
// would misattribute recovered runs.
func stripe[R shardRun](f *Farm, reads []dna.Seq, paired bool, opts MapRunOptions,
	run func(k *Kernel, shard []dna.Seq, opts MapRunOptions) (R, error),
	merge func(lo int, r R)) (Profile, error) {
	wallStart := time.Now()
	healthy := f.healthyDevices()
	if len(healthy) == 0 {
		f.rec.exhausted()
		return Profile{}, ErrNoHealthyDevices
	}
	n := len(healthy)
	boundary := func(si int) int {
		b := len(reads) * si / n
		if paired && si < n {
			b &^= 1
		}
		return b
	}
	agg := Profile{Setup: f.kernels[0].dev.cfg.SetupTime}
	var events []Event
	for si, di := range healthy {
		lo, hi := boundary(si), boundary(si+1)
		if lo == hi {
			continue
		}
		shard := reads[lo:hi]
		shardOpts := opts
		shardOpts.Progress = shardProgress(opts, lo, len(reads))
		r, backoff, winner, err := execShard(f, opts.Context, di, healthy, func(k *Kernel) (R, error) {
			return run(k, shard, shardOpts)
		})
		if err != nil {
			return Profile{}, err
		}
		p := r.profile()
		f.observeRun(*p, backoff)
		events = append(events, tagEvents(p.Events, winner.Device, winner.Attempt, si)...)
		merge(lo, r)
		agg.IndexTransfer += p.IndexTransfer
		agg.QueryTransfer += p.QueryTransfer
		agg.ResultTransfer += p.ResultTransfer
		agg.RetryBackoff += backoff
		agg.KernelTime = max(agg.KernelTime, p.KernelTime)
		agg.KernelCycles = max(agg.KernelCycles, p.KernelCycles)
		agg.Reconfig = max(agg.Reconfig, p.Reconfig)
	}
	sortEvents(events)
	agg.Events = events
	agg.HostWallTime = time.Since(wallStart)
	return agg, nil
}

// MapReads stripes reads across the cards; see MapReadsOpts.
func (f *Farm) MapReads(reads []dna.Seq) (*RunResult, error) {
	return f.MapReadsOpts(reads, MapRunOptions{})
}

// MapReadsOpts stripes reads across the healthy cards with per-shard retry,
// checksum verification, and redistribution on device failure; see stripe
// for how the profile aggregates.
func (f *Farm) MapReadsOpts(reads []dna.Seq, opts MapRunOptions) (*RunResult, error) {
	out := &RunResult{Results: make([]core.MapResult, len(reads))}
	profile, err := stripe(f, reads, false, opts,
		func(k *Kernel, shard []dna.Seq, opts MapRunOptions) (*RunResult, error) {
			r, err := k.MapReadsOpts(shard, opts)
			if err != nil {
				return nil, err
			}
			if err := f.verifyRun(k, shard, r.Results, r.Checksum); err != nil {
				return nil, err
			}
			return r, nil
		},
		func(lo int, r *RunResult) { copy(out.Results[lo:], r.Results) })
	if err != nil {
		return nil, err
	}
	out.Profile = profile
	out.Checksum = ChecksumResults(out.Results)
	return out, nil
}

// MapReadsTwoPassOpts is the farm's two-pass approximate flow: reads stripe
// across the healthy cards, each card runs its own exact + reconfigured
// mismatch pass (see Kernel.MapReadsTwoPassOpts) under the same retry,
// verification, and redistribution regime as MapReadsOpts. Reconfiguration
// happens on every card in parallel, so the profile charges the slowest.
func (f *Farm) MapReadsTwoPassOpts(reads []dna.Seq, maxMismatches int, opts MapRunOptions) (*TwoPassResult, error) {
	if maxMismatches < 1 {
		return nil, fmt.Errorf("fpga: two-pass run needs a mismatch budget >= 1, got %d", maxMismatches)
	}
	out := &TwoPassResult{
		Exact:  make([]core.MapResult, len(reads)),
		Approx: map[int]core.ApproxResult{},
	}
	profile, err := stripe(f, reads, false, opts,
		func(k *Kernel, shard []dna.Seq, opts MapRunOptions) (*TwoPassResult, error) {
			r, err := k.MapReadsTwoPassOpts(shard, maxMismatches, opts)
			if err != nil {
				return nil, err
			}
			if err := f.verifyRun(k, shard, r.Exact, r.Checksum); err != nil {
				return nil, err
			}
			return r, nil
		},
		func(lo int, r *TwoPassResult) {
			copy(out.Exact[lo:], r.Exact)
			for i, res := range r.Approx {
				out.Approx[lo+i] = res
			}
			out.Rescued += r.Rescued
		})
	if err != nil {
		return nil, err
	}
	out.Profile = profile
	out.Checksum = ChecksumResults(out.Exact)
	return out, nil
}
