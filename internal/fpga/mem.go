package fpga

import (
	"fmt"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Seed-and-extend ("mem") mapping on the modeled device: a two-pass design
// in the spirit of the runtime-reconfigurable architecture twopass.go models.
// Pass 1 runs SMEM seeding on the bidirectional FM-index pipelines (the same
// rank-step cost model as the exact kernel — an SMEM extension op is one
// backward-search step). The fabric then reconfigures from the search
// pipelines to a banded systolic alignment array, and pass 2 executes the
// chain extensions: the array retires one DP cell per PE per cycle, so the
// pass-2 charge is the pipeline fill plus total cells over PEs. Chaining and
// best-selection are host-side (cheap, irregular control flow), mirroring
// the host/device split the paper's hybrid pipeline uses for locate.
//
// The searches and extensions execute bit-for-bit through the same core
// entry points the CPU path calls, so both backends agree by construction;
// the kernel adds only the cycle charges, the fault surface, and the batch
// checksum.

// MemRunResult is a completed seed-and-extend run.
type MemRunResult struct {
	// Results holds one entry per input read, by input position.
	Results []core.MemResult
	// Stats aggregates the batch's pipeline counters.
	Stats core.MemStats
	// Profile covers both passes plus the reconfiguration.
	Profile Profile
	// SeedCycles and ExtendCycles split Profile.KernelCycles into the two
	// passes; SeedTime and ExtendTime are their modeled durations. The
	// session scheduler's overlap model needs the split: host-side seeding
	// of the next batch hides behind the device extension of this one.
	SeedCycles, ExtendCycles uint64
	SeedTime, ExtendTime     time.Duration
	// Checksum is the batch checksum the device computed before the result
	// transfer (see ChecksumMemResults).
	Checksum uint64
}

// VerifyChecksum recomputes the batch checksum over the received results and
// returns ErrResultCorrupt on mismatch.
func (r *MemRunResult) VerifyChecksum() error {
	if ChecksumMemResults(r.Results) != r.Checksum {
		return ErrResultCorrupt
	}
	return nil
}

// ChecksumMemResults folds the deterministic fields of a mem batch into the
// same FNV-1a construction ChecksumResults uses for exact batches. CIGAR
// bytes participate so a corrupted traceback is as detectable as a corrupted
// position.
func ChecksumMemResults(results []core.MemResult) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, r := range results {
		mix(uint64(int64(r.Best.Pos)))
		mix(uint64(int64(r.Best.RefSpan)))
		mix(uint64(int64(r.Best.Score)))
		mix(uint64(r.Best.MapQ))
		mix(uint64(int64(r.Best.NM)))
		mix(uint64(int64(r.SubScore)))
		var bits uint64
		if r.Best.Forward {
			bits |= 1
		}
		if r.Rescued {
			bits |= 2
		}
		mix(bits)
		for _, b := range []byte(r.Best.CIGAR) {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// memDeviceBytes is the modeled BRAM footprint of the seeding pass: the
// paper's RRR forward Occ (the core index's own structure), its C array, the
// full suffix array (4(n+1) bytes) and the reference text (n bytes). It is
// the device's figure, independent of the layout the host seeds on.
func memDeviceBytes(ix *core.Index) int {
	fm := ix.FM()
	n := fm.Len()
	return fm.OccProvider().SizeBytes() + (fm.Sigma()+1)*8 + 4*(n+1) + n
}

// MapReadsMem runs the seed-and-extend pipeline on the device; see
// MapReadsMemOpts.
func (k *Kernel) MapReadsMem(reads []dna.Seq, memOpts core.MemOptions) (*MemRunResult, error) {
	return k.MapReadsMemOpts(reads, memOpts, MapRunOptions{})
}

// MapReadsMemOpts maps a batch through seed → chain → extend with per-run
// cancellation, progress reporting, and index-residency control. When
// memOpts.Paired is set, consecutive reads are mate pairs (an odd batch maps
// its last read single-end), exactly as core.MapReadsMem pairs them.
func (k *Kernel) MapReadsMemOpts(reads []dna.Seq, memOpts core.MemOptions, opts MapRunOptions) (*MemRunResult, error) {
	wallStart := time.Now()
	cfg := k.dev.cfg
	for i, r := range reads {
		if len(r) == 0 {
			return nil, fmt.Errorf("fpga: read %d is empty", i)
		}
		if len(r) > MaxQueryBases {
			return nil, fmt.Errorf("fpga: read %d has %d bases; the 512-bit query record holds at most %d",
				i, len(r), MaxQueryBases)
		}
	}

	// The seeding pass needs its index resident; gate on BRAM like Program
	// gates the exact index.
	memBytes := memDeviceBytes(k.ix)
	if memBytes > cfg.BRAMBytes {
		return nil, fmt.Errorf("fpga: bidirectional index (%d bytes) exceeds device BRAM (%d bytes)",
			memBytes, cfg.BRAMBytes)
	}
	if err := k.ix.EnsureMem(); err != nil {
		return nil, err
	}

	// Pass-1 fault surface: bidirectional index load (unless resident),
	// query streaming, seeding kernel.
	if inj := k.dev.inj; inj != nil {
		if !opts.IndexResident {
			if err := inj.at(StageIndexLoad); err != nil {
				return nil, err
			}
		}
		if err := inj.at(StageQueryTransfer); err != nil {
			return nil, err
		}
		if err := inj.at(StageKernel); err != nil {
			return nil, err
		}
	}

	// The mapping itself runs through the core batch engine — pooled
	// per-worker scratch, pair-boundary chunking — so the simulated device
	// path is as allocation-free as the CPU path and bit-identical to it by
	// construction.
	out := &MemRunResult{Results: make([]core.MemResult, len(reads))}
	stats, err := k.ix.MapReadsMemInto(out.Results, reads, memOpts, core.MapOptions{
		Context:       opts.Context,
		Workers:       1,
		Progress:      opts.Progress,
		ProgressEvery: opts.ProgressEvery,
	})
	if err != nil {
		return nil, err
	}
	out.Stats = stats

	// Pass-1 cycles: SMEM extension ops through the rank pipelines, same
	// per-step model as the exact kernel.
	perStep := k.stepCycles()
	var seedCycles uint64
	for _, r := range out.Results {
		seedCycles += uint64(r.SeedSteps)*perStep + uint64(cfg.QueryOverheadCycles)
	}
	pass1Cycles := uint64(cfg.PipelineFillCycles) + seedCycles/uint64(cfg.PEs)

	// Reconfiguration swaps the search pipelines for the systolic alignment
	// array; pass 2 re-rolls the stream/kernel fault stages like a fresh run.
	if inj := k.dev.inj; inj != nil {
		if err := inj.at(StageQueryTransfer); err != nil {
			return nil, err
		}
		if err := inj.at(StageKernel); err != nil {
			return nil, err
		}
	}

	// Pass-2 cycles: the array retires one DP cell per PE per cycle.
	var cellCycles uint64
	for _, r := range out.Results {
		cellCycles += uint64(r.Cells)
	}
	cellCycles += uint64(out.Stats.Extensions) * uint64(cfg.QueryOverheadCycles)
	pass2Cycles := uint64(cfg.PipelineFillCycles) + cellCycles/uint64(cfg.PEs)

	out.Checksum = ChecksumMemResults(out.Results)
	if inj := k.dev.inj; inj != nil {
		if err := inj.at(StageResultTransfer); err != nil {
			return nil, err
		}
	}

	indexTransfer := k.dev.transfer(memBytes)
	if opts.IndexResident {
		indexTransfer = 0
	}
	// A session run on an already-reconfigured fabric (batch two onward of
	// the two-pass schedule) charges no reconfiguration: the alignment array
	// stays programmed and the host takes over seeding.
	reconfig := DefaultReconfigTime
	if opts.memReconfigured {
		reconfig = 0
	}
	kernelCycles := pass1Cycles + pass2Cycles
	out.SeedCycles, out.ExtendCycles = pass1Cycles, pass2Cycles
	out.SeedTime = k.dev.cyclesToTime(pass1Cycles)
	out.ExtendTime = k.dev.cyclesToTime(pass2Cycles)
	profile := Profile{
		Setup:         cfg.SetupTime,
		IndexTransfer: indexTransfer,
		// Pass 1 streams the reads; pass 2 streams one extension-job record
		// per surviving chain.
		QueryTransfer:  k.dev.transfer(len(reads)*QueryRecordBytes + out.Stats.Extensions*QueryRecordBytes),
		KernelTime:     k.dev.cyclesToTime(kernelCycles),
		ResultTransfer: k.dev.transfer(len(reads) * ResultRecordBytes),
		Reconfig:       reconfig,
		KernelCycles:   kernelCycles,
	}
	if cfg.DoubleBuffer {
		profile.Overlap = min(profile.QueryTransfer, profile.KernelTime)
	}
	profile.Events = tagEvents(buildEvents(profile), k.dev.id, 1, 0)
	profile.HostWallTime = time.Since(wallStart)
	out.Profile = profile
	out.Stats.Elapsed = profile.HostWallTime
	return out, nil
}

// verifySampledMem recomputes every stride-th result on the host and compares
// it to the device's, the mem counterpart of core.VerifySampled. Paired
// batches verify whole pairs so rescue and proper-pair context match.
func verifySampledMem(ix *core.Index, reads []dna.Seq, results []core.MemResult, memOpts core.MemOptions, stride int) error {
	if stride <= 0 {
		return nil
	}
	for i := 0; i < len(reads); i += stride {
		if memOpts.Paired && i+1 < len(reads) {
			j := i &^ 1 // verify the pair the read belongs to
			pr, err := ix.MapPairMem(reads[j], reads[j+1], memOpts)
			if err != nil {
				return err
			}
			if pr.R1 != results[j] || pr.R2 != results[j+1] {
				return fmt.Errorf("fpga: mem cross-check mismatch at pair %d", j/2)
			}
			continue
		}
		res, err := ix.MapReadMem(reads[i], memOpts)
		if err != nil {
			return err
		}
		if res != results[i] {
			return fmt.Errorf("fpga: mem cross-check mismatch at read %d", i)
		}
	}
	return nil
}

// MapReadsMem stripes a mem batch across the farm; see MapReadsMemOpts.
func (f *Farm) MapReadsMem(reads []dna.Seq, memOpts core.MemOptions) (*MemRunResult, error) {
	return f.MapReadsMemOpts(reads, memOpts, MapRunOptions{})
}

// MapReadsMemOpts stripes a seed-and-extend batch across the healthy cards
// with the farm's usual retry, checksum verification, and redistribution.
// Paired batches stripe on pair boundaries so no mate pair splits across
// cards (pairing context — rescue, proper-pair calls — is shard-local).
func (f *Farm) MapReadsMemOpts(reads []dna.Seq, memOpts core.MemOptions, opts MapRunOptions) (*MemRunResult, error) {
	out := &MemRunResult{Results: make([]core.MemResult, len(reads))}
	profile, err := stripe(f, reads, memOpts.Paired, opts,
		func(k *Kernel, shard []dna.Seq, opts MapRunOptions) (*MemRunResult, error) {
			r, err := k.MapReadsMemOpts(shard, memOpts, opts)
			if err != nil {
				return nil, err
			}
			if err := r.VerifyChecksum(); err != nil {
				return nil, err
			}
			if s := f.opts.VerifyStride; s > 0 {
				if err := verifySampledMem(k.ix, shard, r.Results, memOpts, s); err != nil {
					return nil, fmt.Errorf("%w: %v", errCrossCheckFailed, err)
				}
			}
			return r, nil
		},
		func(lo int, r *MemRunResult) {
			copy(out.Results[lo:], r.Results)
			// The per-pass split aggregates like KernelTime: shards run in
			// parallel across cards, so the slowest shard's pass bounds the
			// batch.
			out.SeedCycles = max(out.SeedCycles, r.SeedCycles)
			out.ExtendCycles = max(out.ExtendCycles, r.ExtendCycles)
			out.SeedTime = max(out.SeedTime, r.SeedTime)
			out.ExtendTime = max(out.ExtendTime, r.ExtendTime)
		})
	if err != nil {
		return nil, err
	}
	out.Profile = profile
	out.Checksum = ChecksumMemResults(out.Results)
	for _, r := range out.Results {
		out.Stats.Add(r)
	}
	out.Stats.Elapsed = profile.HostWallTime
	return out, nil
}
