package fpga

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	rng := uint64(7)
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		nominal := p.BaseDelay * (1 << (attempt - 1))
		if nominal > p.MaxDelay {
			nominal = p.MaxDelay
		}
		d := p.delay(attempt, &rng)
		if d < nominal/2 || d > nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		if nominal < prevCap {
			t.Errorf("attempt %d: nominal cap shrank", attempt)
		}
		prevCap = nominal
	}
	// Jitter is deterministic: the same rng state reproduces the same delay.
	r1, r2 := uint64(123), uint64(123)
	if p.delay(3, &r1) != p.delay(3, &r2) {
		t.Error("jitter not deterministic")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state %v trips %d after threshold", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted work before cooldown")
	}

	// Past the cooldown one probe gets through (half-open).
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// A failed probe reopens immediately.
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state %v trips %d", b.State(), b.Trips())
	}

	// A successful probe closes and resets the failure count.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Success()
	if b.State() != BreakerClosed || b.ConsecutiveFailures() != 0 {
		t.Fatalf("state %v failures %d after success", b.State(), b.ConsecutiveFailures())
	}
}

// shardOutcome is what one striped method returns, reduced to what the
// dead-device table compares: the results, the profile, and the mem pass
// split (seed/extend cycles and times; zero for the other methods).
type shardOutcome struct {
	results any
	profile Profile
	split   [4]uint64
}

// TestFarmRedistributesAroundDeadDevice runs each striped farm method on
// three cards, one of them persistently dead. The dead card's shard must
// move to a healthy card, the results must equal one healthy kernel's, and
// the aggregate profile must follow the farm's rules over the shards: setup
// once, transfers and backoff summed, kernel time, cycles, reconfiguration
// and the mem pass split as the slowest shard's, overlap and wave cycles not
// aggregated — with paired mem shards starting on even read indexes.
func TestFarmRedistributesAroundDeadDevice(t *testing.T) {
	ix := buildIndex(t, 8000)
	reads := simReads(t, ix, 300, 35, 0.7)
	// 130 reads over 3 cards: the naive boundary 43 would split a pair.
	memIx, pairs := memBatch(t, 20000, 65)
	memOpts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	memOutcome := func(r *MemRunResult) shardOutcome {
		return shardOutcome{r.Results, r.Profile,
			[4]uint64{r.SeedCycles, r.ExtendCycles, uint64(r.SeedTime), uint64(r.ExtendTime)}}
	}
	for _, tc := range []struct {
		name   string
		ix     *core.Index
		reads  []dna.Seq
		paired bool
		kernel func(*Kernel, []dna.Seq) (shardOutcome, error)
		farm   func(*Farm, []dna.Seq) (shardOutcome, error)
	}{
		{
			name: "exact", ix: ix, reads: reads,
			kernel: func(k *Kernel, rs []dna.Seq) (shardOutcome, error) {
				r, err := k.MapReads(rs)
				if err != nil {
					return shardOutcome{}, err
				}
				return shardOutcome{results: r.Results, profile: r.Profile}, nil
			},
			farm: func(f *Farm, rs []dna.Seq) (shardOutcome, error) {
				r, err := f.MapReads(rs)
				if err != nil {
					return shardOutcome{}, err
				}
				return shardOutcome{results: r.Results, profile: r.Profile}, nil
			},
		},
		{
			name: "two-pass", ix: ix, reads: reads,
			kernel: func(k *Kernel, rs []dna.Seq) (shardOutcome, error) {
				r, err := k.MapReadsTwoPass(rs, 1)
				if err != nil {
					return shardOutcome{}, err
				}
				return shardOutcome{results: []any{r.Exact, r.Approx, r.Rescued}, profile: r.Profile}, nil
			},
			farm: func(f *Farm, rs []dna.Seq) (shardOutcome, error) {
				r, err := f.MapReadsTwoPassOpts(rs, 1, MapRunOptions{})
				if err != nil {
					return shardOutcome{}, err
				}
				return shardOutcome{results: []any{r.Exact, r.Approx, r.Rescued}, profile: r.Profile}, nil
			},
		},
		{
			name: "mem-pe", ix: memIx, reads: pairs, paired: true,
			kernel: func(k *Kernel, rs []dna.Seq) (shardOutcome, error) {
				r, err := k.MapReadsMem(rs, memOpts)
				if err != nil {
					return shardOutcome{}, err
				}
				return memOutcome(r), nil
			},
			farm: func(f *Farm, rs []dna.Seq) (shardOutcome, error) {
				r, err := f.MapReadsMem(rs, memOpts)
				if err != nil {
					return shardOutcome{}, err
				}
				return memOutcome(r), nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// DoubleBuffer gives every shard an Overlap the aggregate must
			// not carry.
			cfg := Config{DoubleBuffer: true}
			healthy, _ := NewDevice(cfg)
			k, err := healthy.Program(tc.ix)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.kernel(k, tc.reads)
			if err != nil {
				t.Fatal(err)
			}
			// The aggregate the farm must report, built from the same three
			// shards run one by one on the healthy card.
			wantProfile := Profile{Setup: DefaultSetupTime}
			var wantSplit [4]uint64
			const cards = 3
			for si := 0; si < cards; si++ {
				lo, hi := len(tc.reads)*si/cards, len(tc.reads)*(si+1)/cards
				if tc.paired {
					lo &^= 1
					if si+1 < cards {
						hi &^= 1
					}
				}
				shard, err := tc.kernel(k, tc.reads[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				p := shard.profile
				if p.Overlap == 0 {
					t.Fatalf("shard %d has no overlap to leave unaggregated", si)
				}
				wantProfile.IndexTransfer += p.IndexTransfer
				wantProfile.QueryTransfer += p.QueryTransfer
				wantProfile.ResultTransfer += p.ResultTransfer
				wantProfile.KernelTime = max(wantProfile.KernelTime, p.KernelTime)
				wantProfile.KernelCycles = max(wantProfile.KernelCycles, p.KernelCycles)
				wantProfile.Reconfig = max(wantProfile.Reconfig, p.Reconfig)
				for i, v := range shard.split {
					wantSplit[i] = max(wantSplit[i], v)
				}
			}

			plan, err := ParseFaultPlan("seed=5,persistent=0:kernel")
			if err != nil {
				t.Fatal(err)
			}
			devices := make([]*Device, cards)
			for i := range devices {
				devices[i], _ = NewDevice(cfg)
				devices[i].EnableFaults(plan, i)
			}
			farm, err := NewFarmOpts(devices, tc.ix, FarmOptions{
				Retry:            RetryPolicy{MaxAttempts: 3},
				BreakerThreshold: 3,
				Recorder:         NewStatsRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.farm(farm, tc.reads)
			if err != nil {
				t.Fatalf("farm with two healthy devices failed: %v", err)
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Fatal("farm results diverge from a single healthy kernel's after redistribution")
			}
			p := got.profile
			if p.RetryBackoff <= 0 {
				t.Error("no modeled retry backoff charged")
			}
			if p.HostWallTime <= 0 || len(p.Events) == 0 {
				t.Errorf("aggregate lacks wall time or events: %v, %d events", p.HostWallTime, len(p.Events))
			}
			for _, e := range p.Events {
				if e.Device == 0 {
					t.Fatalf("event %q credited to the dead device", e.Name)
				}
			}
			p.RetryBackoff, p.HostWallTime, p.Events = 0, 0, nil
			if !reflect.DeepEqual(p, wantProfile) {
				t.Errorf("aggregate profile\n%+v\nwant\n%+v", p, wantProfile)
			}
			if got.split != wantSplit {
				t.Errorf("mem pass split %v, want %v", got.split, wantSplit)
			}

			stats := farm.Stats()
			if stats.Faults["kernel"] == 0 || stats.Retries == 0 || stats.Redistributed == 0 {
				t.Errorf("stats = %+v, want kernel faults, retries, and redistribution", stats)
			}
			// Three consecutive failures at threshold 3: device 0's breaker
			// is open.
			if devices[0].Breaker().State() != BreakerOpen {
				t.Errorf("device 0 breaker %v, want open", devices[0].Breaker().State())
			}
			for i := 1; i < cards; i++ {
				if devices[i].Breaker().State() != BreakerClosed {
					t.Errorf("device %d breaker %v, want closed", i, devices[i].Breaker().State())
				}
			}

			// The next run skips the broken card entirely: no new kernel
			// faults.
			before := stats.Faults["kernel"]
			if _, err := tc.farm(farm, tc.reads[:50]); err != nil {
				t.Fatalf("second run: %v", err)
			}
			if after := farm.Stats().Faults["kernel"]; after != before {
				t.Errorf("broken device still took work: faults %d -> %d", before, after)
			}
			health := farm.DeviceHealth()
			if len(health) != cards || health[0].Breaker != "open" || health[0].BreakerTrips == 0 {
				t.Errorf("health = %+v", health)
			}
		})
	}
}

func TestFarmAllDevicesBroken(t *testing.T) {
	ix := buildIndex(t, 4000)
	reads := simReads(t, ix, 50, 30, 1)
	plan, err := ParseFaultPlan("seed=5,persistent=0:kernel,persistent=1:kernel")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = farm.MapReads(reads)
	if err == nil {
		t.Fatal("farm with no working devices succeeded")
	}
	if !errors.Is(err, ErrNoHealthyDevices) {
		t.Errorf("error = %v, want ErrNoHealthyDevices", err)
	}
	if !IsDeviceFailure(err) {
		t.Error("exhausted farm error not classified as device failure")
	}
	if farm.Stats().Exhausted == 0 {
		t.Error("exhausted run not counted")
	}
}

func TestFarmRecoversFromCorruption(t *testing.T) {
	ix := buildIndex(t, 6000)
	reads := simReads(t, ix, 200, 35, 0.8)
	plan, err := ParseFaultPlan("seed=9,persistent=0:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}, VerifyStride: 8})
	if err != nil {
		t.Fatal(err)
	}
	run, err := farm.MapReads(reads)
	if err != nil {
		t.Fatalf("farm failed to recover from corruption: %v", err)
	}
	if farm.Stats().ChecksumMismatches == 0 {
		t.Errorf("stats = %+v, want checksum mismatches", farm.Stats())
	}
	for i, read := range reads {
		want := ix.MapRead(read)
		if run.Results[i].Forward != want.Forward || run.Results[i].Reverse != want.Reverse {
			t.Fatalf("read %d: corrupted result leaked through verification", i)
		}
	}
}

func TestFarmTwoPassUnderFaults(t *testing.T) {
	ix := buildIndex(t, 6000)
	reads := simReads(t, ix, 200, 35, 0.6)
	plan, err := ParseFaultPlan("seed=11,persistent=0:result")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	run, err := farm.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
	if err != nil {
		t.Fatalf("two-pass farm run failed: %v", err)
	}
	if len(run.Exact) != len(reads) {
		t.Fatalf("%d exact results for %d reads", len(run.Exact), len(reads))
	}
	// Compare against a clean single card.
	clean, _ := NewDevice(Config{})
	k, _ := clean.Program(ix)
	want, err := k.MapReadsTwoPass(reads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.Rescued != want.Rescued {
		t.Errorf("rescued %d, clean card rescued %d", run.Rescued, want.Rescued)
	}
	for i := range reads {
		if run.Exact[i].Forward != want.Exact[i].Forward || run.Exact[i].Reverse != want.Exact[i].Reverse {
			t.Fatalf("read %d: exact pass diverges", i)
		}
	}
	if farm.Stats().Redistributed == 0 {
		t.Errorf("stats = %+v, want redistribution", farm.Stats())
	}
}

func TestFarmContextCancelNotDeviceFailure(t *testing.T) {
	ix := buildIndex(t, 4000)
	reads := simReads(t, ix, 100, 30, 1)
	dev, _ := NewDevice(Config{})
	farm, err := NewFarm([]*Device{dev}, ix)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = farm.MapReadsOpts(reads, MapRunOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if IsDeviceFailure(err) {
		t.Error("cancellation misclassified as device failure (would trigger CPU fallback)")
	}
	// Cancellation must not count against the device's health.
	if dev.Breaker().ConsecutiveFailures() != 0 {
		t.Error("cancellation charged to the breaker")
	}
}
