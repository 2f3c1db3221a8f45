package server

import (
	"bytes"
	"context"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/sam"
)

// batchMapper is one mapping mode's part in the job's batch loop (mapJob):
// map a batch on the host or on the farm, then emit the batch it mapped
// last. Batching, progress, the farm, the CPU fallback and the map-time
// accounting belong to the loop, so every mode shares them.
type batchMapper interface {
	// mapCPU maps reads [off, end) on the host.
	mapCPU(ctx context.Context, off, end int, progress func(done, total int)) error
	// mapFPGA maps reads [off, end) on the farm and returns the batch's
	// modeled profile.
	mapFPGA(farm *fpga.Farm, off, end int, opts fpga.MapRunOptions) (fpga.Profile, error)
	// emit writes the last mapped batch, which starts at read off.
	emit(off int) error
}

// jobReads is what every mode's steps share: the index, the job's reads and
// their IDs, and the emitter the rows go to.
type jobReads struct {
	ix    *core.Index
	reads []dna.Seq
	ids   []string
	em    *jobEmitter
}

// mapJob is pipeline step 3 for every mode — the paper's host loop, which
// feeds the kernel "until there is no more data to map". Reads go through in
// StreamBatch-sized batches and each batch's rows are emitted (TSV or SAM,
// plus NDJSON) as it completes, so result memory stays O(batch). On the FPGA
// backend each batch runs on the cached farm; when the farm fails with a
// device error and the fallback policy is "cpu", the failing batch and every
// later one rerun on the CPU — same results, the backends being
// bit-identical by construction — and batches the FPGA emitted stand.
//
// The returned map time mixes two clocks: the modeled Profile.Total of every
// FPGA batch plus the CPU wall-clock from the first CPU batch on.
func (s *Server) mapJob(ctx context.Context, job *Job, entry *cacheEntry, n int, m batchMapper) (time.Duration, error) {
	batch := s.cfg.StreamBatch
	if batch <= 0 {
		batch = DefaultStreamBatch
	}
	if job.Mode == ModeMemPE && batch%2 == 1 {
		// Pair-aligned batches: a mate pair split across batches would lose
		// its rescue and proper-pair context.
		batch++
	}
	onFPGA := job.Backend == "fpga"
	var mapTime time.Duration
	var cpuStart time.Time
	if !onFPGA {
		cpuStart = time.Now()
	}
	for off := 0; off < n; off += batch {
		end := min(off+batch, n)
		progress := func(done, _ int) { s.setJobProgress(job, off+done) }
		if onFPGA {
			// farmFor is cheap after the first batch: the cached farm
			// reports the index already resident on the devices.
			farm, resident, err := entry.farmFor(s.devices, s.farmOptions())
			var profile fpga.Profile
			if err == nil {
				profile, err = m.mapFPGA(farm, off, end, fpga.MapRunOptions{
					Context: ctx, Progress: progress, IndexResident: resident,
				})
			}
			switch {
			case err == nil:
				mapTime += profile.Total()
				addModeledEvents(obs.SpanFrom(ctx), profile.Events)
			case s.shouldFallback(ctx, err):
				s.noteFallback(job, err)
				obs.SpanFrom(ctx).SetAttr("fallback", err.Error())
				onFPGA, cpuStart = false, time.Now()
			default:
				return 0, err
			}
		}
		if !onFPGA {
			if err := m.mapCPU(ctx, off, end, progress); err != nil {
				return 0, err
			}
		}
		if err := m.emit(off); err != nil {
			return 0, err
		}
		s.setJobProgress(job, end)
	}
	if !cpuStart.IsZero() {
		mapTime += time.Since(cpuStart)
	}
	return mapTime, nil
}

// exactBatches maps with no mismatch budget. The CPU writes every batch into
// one reused result slice; the farm's results are located on the host.
type exactBatches struct {
	jobReads
	buf     []core.MapResult
	results []core.MapResult // the last mapped batch
}

func (b *exactBatches) mapCPU(ctx context.Context, off, end int, progress func(done, total int)) error {
	if cap(b.buf) < end-off {
		b.buf = make([]core.MapResult, end-off)
	}
	b.results = b.buf[:end-off]
	_, err := b.ix.MapReadsInto(b.results, b.reads[off:end], core.MapOptions{
		Context: ctx, Locate: true, Workers: -1, Progress: progress,
	})
	return err
}

func (b *exactBatches) mapFPGA(farm *fpga.Farm, off, end int, opts fpga.MapRunOptions) (fpga.Profile, error) {
	run, err := farm.MapReadsOpts(b.reads[off:end], opts)
	if err != nil {
		return fpga.Profile{}, err
	}
	if _, err := farm.LocateResults(run.Results); err != nil {
		return fpga.Profile{}, err
	}
	b.results = run.Results
	return run.Profile, nil
}

func (b *exactBatches) emit(off int) error {
	return b.em.exactBatch(off, b.ids, b.reads, b.results, b.ix.Contigs())
}

// approxBatches maps with a mismatch budget: the branching search on the
// CPU, the two-pass reconfigurable flow on the farm.
type approxBatches struct {
	jobReads
	mismatches int
	rows       []approxRow // the last mapped batch
}

func (b *approxBatches) mapCPU(ctx context.Context, off, end int, progress func(done, total int)) error {
	results, err := b.ix.MapReadsApprox(b.reads[off:end], b.mismatches, core.MapOptions{
		Context: ctx, Workers: -1, Progress: progress,
	})
	if err != nil {
		return err
	}
	b.rows = make([]approxRow, len(results))
	for i, res := range results {
		b.rows[i] = approxRowFrom(b.ids[off+i], res)
	}
	return nil
}

func (b *approxBatches) mapFPGA(farm *fpga.Farm, off, end int, opts fpga.MapRunOptions) (fpga.Profile, error) {
	run, err := farm.MapReadsTwoPassOpts(b.reads[off:end], b.mismatches, opts)
	if err != nil {
		return fpga.Profile{}, err
	}
	b.rows = make([]approxRow, end-off)
	for i, exact := range run.Exact {
		if exact.Mapped() {
			b.rows[i] = approxRow{Read: sanitizeID(b.ids[off+i]), Mapped: true, Occurrences: exact.Occurrences()}
			continue
		}
		b.rows[i] = approxRowFrom(b.ids[off+i], run.Approx[i])
	}
	return run.Profile, nil
}

func (b *approxBatches) emit(off int) error { return b.em.approxBatch(off, b.rows) }

func approxRowFrom(id string, res core.ApproxResult) approxRow {
	return approxRow{
		Read: sanitizeID(id), Mapped: res.Mapped(),
		BestMismatches: res.BestMismatches(), Occurrences: res.Occurrences(),
	}
}

// memBatches maps mode=mem jobs: the seed-and-extend pipeline (SMEM
// seeding, collinear chaining, banded extension, MAPQ), streamed as SAM text
// — the job's results file is a valid SAM file — plus one NDJSON row per
// read. On the farm the whole job runs as one two-pass session: the first
// batch pays the single fabric reconfiguration, later batches keep the
// alignment array programmed and overlap host seeding with modeled device
// extension.
type memBatches struct {
	jobReads
	s    *Server
	opts core.MemOptions
	// One SAM writer spans the whole job, so the header lands in the first
	// batch and every later batch drains as bare records.
	samBuf   bytes.Buffer
	sw       *sam.Writer
	session  *fpga.MemSession
	progress func(done, total int) // the session's current batch
	buf      []core.MemResult
	results  []core.MemResult // the last mapped batch
}

func newMemBatches(s *Server, job *Job, in jobReads) (*memBatches, error) {
	b := &memBatches{jobReads: in, s: s, opts: core.MemOptions{Paired: job.Mode == ModeMemPE}}
	sw, err := sam.NewWriter(&b.samBuf, in.ix.SAMRefSeqs())
	if err != nil {
		return nil, err
	}
	b.sw = sw
	return b, nil
}

// rollUp folds one batch's pipeline counters into the server's mem totals.
func (b *memBatches) rollUp(stats core.MemStats, reconfigured bool) {
	b.s.mu.Lock()
	b.s.memStats.Merge(stats)
	if reconfigured {
		b.s.memReconfigs++
	}
	b.s.mu.Unlock()
}

func (b *memBatches) mapCPU(ctx context.Context, off, end int, _ func(done, total int)) error {
	// With the zero-allocation batch engine writing into one reused buffer,
	// the steady-state loop allocates only what SAM rendering needs.
	if cap(b.buf) < end-off {
		b.buf = make([]core.MemResult, end-off)
	}
	b.results = b.buf[:end-off]
	stats, err := b.ix.MapReadsMemInto(b.results, b.reads[off:end], b.opts, core.MapOptions{Context: ctx})
	if err != nil {
		return err
	}
	b.rollUp(stats, false)
	return nil
}

func (b *memBatches) mapFPGA(farm *fpga.Farm, off, end int, opts fpga.MapRunOptions) (fpga.Profile, error) {
	b.progress = opts.Progress
	if b.session == nil {
		b.session = farm.NewMemSession(b.opts, fpga.MapRunOptions{
			Context:       opts.Context,
			Progress:      func(done, total int) { b.progress(done, total) },
			IndexResident: opts.IndexResident,
		})
	}
	run, err := b.session.Map(b.reads[off:end])
	if err != nil {
		return fpga.Profile{}, err
	}
	b.rollUp(run.Stats, run.Profile.Reconfig > 0)
	b.results = run.Results
	return run.Profile, nil
}

func (b *memBatches) emit(off int) error {
	rows := make([]memRow, 0, len(b.results))
	write := func(rec sam.Record, res core.MemResult) error {
		if err := b.sw.Write(rec); err != nil {
			return err
		}
		rows = append(rows, memRowFrom(rec, res))
		return nil
	}
	for i := 0; i < len(b.results); {
		g := off + i
		if b.opts.Paired && i+1 < len(b.results) {
			pr := core.MemPairFromResults(b.results[i], b.results[i+1], b.opts)
			rec1, rec2 := b.ix.MemPairRecords(samQName(b.ids[g], g), samQName(b.ids[g+1], g+1),
				b.reads[g], b.reads[g+1], pr)
			if err := write(rec1, b.results[i]); err != nil {
				return err
			}
			if err := write(rec2, b.results[i+1]); err != nil {
				return err
			}
			i += 2
			continue
		}
		if err := write(b.ix.MemRecord(samQName(b.ids[g], g), b.reads[g], b.results[i]), b.results[i]); err != nil {
			return err
		}
		i++
	}
	if err := b.sw.Flush(); err != nil {
		return err
	}
	if err := b.em.memBatch(b.samBuf.Bytes(), rows); err != nil {
		return err
	}
	b.samBuf.Reset()
	return nil
}
