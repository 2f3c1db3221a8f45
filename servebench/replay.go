package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"bwaver/internal/align"
	"bwaver/internal/bwt"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
	"bwaver/internal/rrr"
	"bwaver/internal/sam"
	"bwaver/internal/server"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// Replay sizes: how much of the sampled jobs' reads each micro-measured call
// sees, and how many random positions each rank call is timed at.
const (
	microReads   = 16384
	memReads     = 512
	rankQueries  = 200_000
	serverBatch  = server.DefaultStreamBatch
	verifyStride = server.DefaultVerifyStride
	seedBand     = 16
)

// replayer re-runs sampled jobs in-process through each layer's public calls,
// one span per call. The calls a served job of this workload makes hang off a
// "replay.job" span per job, so the rest of the job's served time can be
// attributed; every other layer call hangs off one "replay.layers" span and
// is measured on the same index and reads.
type replayer struct {
	w      *workload
	tr     *tracer
	dir    string
	idxCfg core.IndexConfig
	qcPol  qc.Policy

	// work counted alongside the spans
	gateIn, gateRejected int
	steps, smemSteps     int
	hits                 int
	mem                  core.MemStats
	memMallocs           uint64
	kernelReads          int
	kernelJobs           int
	kernelCycles         uint64
	waveCycles           uint64
	modelSetup           time.Duration
	modelTotal           time.Duration
	indexPerBase         float64
	memPerBase           float64
	cards                map[*core.Index]*card
}

// card is a simulated device programmed with one index.
type card struct {
	k        *fpga.Kernel
	resident bool // the index has been transferred by an earlier run
}

func newReplayer(w *workload, tr *tracer, dir string) *replayer {
	r := &replayer{w: w, tr: tr, dir: dir,
		cards:  map[*core.Index]*card{},
		idxCfg: core.IndexConfig{RRR: rrr.Params{BlockSize: server.DefaultB, SuperblockFactor: server.DefaultSF}, FtabK: core.DefaultFtabK},
	}
	if w.mode != "" {
		r.qcPol = qc.Policy{MaxEE: memMaxEE, Paired: true}
	}
	return r
}

// timed runs fn inside a span.
func (r *replayer) timed(name string, parent, job, units int, fn func() error) error {
	id := r.tr.begin(name, parent, job)
	err := fn()
	r.tr.end(id, units)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// jobState is one replayed job's parsed input.
type jobState struct {
	p     *payload
	ref   dna.Seq
	recs  []*fastx.Record
	reads []dna.Seq
	ix    *core.Index
}

// run replays jobs and then measures every remaining layer call. It returns
// the id of each job's root span.
func (r *replayer) run(jobs []*payload) ([]int, error) {
	layers := r.tr.begin("replay.layers", 0, -1)
	defer r.tr.end(layers, 0)
	var shared *core.Index
	if !r.w.gateway {
		// The served set-up job built this index (and, on mem jobs, its mem
		// state) before the timed jobs ran; build it the same way here.
		var err error
		if shared, err = r.build(r.w.ref, layers, -1); err != nil {
			return nil, err
		}
		if r.w.mode != "" {
			if err := r.timed("core.Index.EnsureMem", layers, -1, 1, shared.EnsureMem); err != nil {
				return nil, err
			}
		}
	}
	var roots []int
	var states []*jobState
	for _, p := range jobs {
		st, root, err := r.servedPath(p, shared)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
		roots = append(roots, root)
	}
	return roots, r.layers(states, layers)
}

func (r *replayer) build(ref dna.Seq, parent, job int) (*core.Index, error) {
	var ix *core.Index
	err := r.timed("core.BuildIndex", parent, job, len(ref), func() (err error) {
		ix, err = core.BuildIndex(ref, r.idxCfg)
		return err
	})
	return ix, err
}

// servedPath replays the calls a served job of this workload makes, in
// order, under one root span per job.
func (r *replayer) servedPath(p *payload, shared *core.Index) (*jobState, int, error) {
	root := r.tr.begin("replay.job", 0, p.index)
	st := &jobState{p: p, ix: shared}
	err := r.parse(st, root)
	if err == nil && r.w.mode != "" {
		err = r.gate(st, root)
	}
	if err == nil {
		err = r.timed("core.CacheKey", root, p.index, 1, func() error {
			if core.CacheKey(st.ref, nil, r.idxCfg) == "" {
				return errors.New("empty cache key")
			}
			return nil
		})
	}
	if err == nil && r.w.gateway {
		// Every churn job misses the cache: build, then spill to disk.
		if st.ix, err = r.build(st.ref, root, p.index); err == nil {
			err = r.save(st.ix, root, p.index)
		}
	}
	if err == nil {
		switch {
		case r.w.backend == "fpga":
			err = r.kernelJob(st, root)
		case r.w.mode != "":
			err = r.memJob(st, root, true)
		default:
			err = r.exactCPU(st, root)
		}
	}
	r.tr.end(root, p.reads())
	return st, root, err
}

// parse reads the reference and the reads through fastx, as the server's
// ingest does.
func (r *replayer) parse(st *jobState, parent int) error {
	job := st.p.index
	var refRecs []*fastx.Record
	err := r.timed("fastx.Reader.Read/reference", parent, job, 1, func() (err error) {
		refRecs, err = readAll(st.p.refFA)
		return err
	})
	if err != nil {
		return err
	}
	err = r.timed("fastx.Reader.Read/reads", parent, job, st.p.reads(), func() (err error) {
		st.recs, err = readAll(st.p.readsFQ)
		return err
	})
	if err != nil {
		return err
	}
	return r.timed("dna.Sanitize", parent, job, len(st.recs)+1, func() error {
		if len(refRecs) != 1 {
			return fmt.Errorf("%d reference records", len(refRecs))
		}
		st.ref, _ = dna.Sanitize(refRecs[0].Seq, dna.A)
		st.reads = make([]dna.Seq, len(st.recs))
		for i, rec := range st.recs {
			st.reads[i], _ = dna.Sanitize(rec.Seq, dna.A)
		}
		return nil
	})
}

func readAll(b []byte) ([]*fastx.Record, error) {
	rd, err := fastx.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	var out []*fastx.Record
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// gate runs the records through the job's QC gate.
func (r *replayer) gate(st *jobState, parent int) error {
	return r.timed("qc.Gate", parent, st.p.index, len(st.recs), func() error {
		g, err := qc.NewGate(r.qcPol)
		if err != nil {
			return err
		}
		for _, rec := range st.recs {
			g.Record(rec)
		}
		g.Drain(true)
		rep := g.Report()
		r.gateIn += rep.Attempted
		r.gateRejected += rep.RejectedTotal()
		return nil
	})
}

func (r *replayer) save(ix *core.Index, parent, job int) error {
	path := filepath.Join(r.dir, fmt.Sprintf("replay-%d.bwx", job))
	return r.timed("core.Index.SaveFile", parent, job, 1, func() error { return ix.SaveFile(path) })
}

// kernelJob maps a job on a simulated card the way the server does: one
// kernel run per stream batch, host locate, and the sampled CPU cross-check.
// Each index is programmed onto a fresh card, so the first batch mapped
// against it also pays the modeled index transfer.
func (r *replayer) kernelJob(st *jobState, parent int) error {
	c := r.cards[st.ix]
	if c == nil {
		dev, err := fpga.NewDevice(fpga.Config{})
		if err != nil {
			return err
		}
		k, err := dev.Program(st.ix)
		if err != nil {
			return err
		}
		c = &card{k: k}
		r.cards[st.ix] = c
	}
	job := st.p.index
	r.kernelJobs++
	for off := 0; off < len(st.reads); off += serverBatch {
		batch := st.reads[off:min(off+serverBatch, len(st.reads))]
		var run *fpga.RunResult
		err := r.timed("fpga.Kernel.MapReads", parent, job, len(batch), func() (err error) {
			run, err = c.k.MapReadsOpts(batch, fpga.MapRunOptions{IndexResident: c.resident})
			return err
		})
		if err != nil {
			return err
		}
		c.resident = true
		r.kernelReads += len(batch)
		pr := run.Profile
		r.kernelCycles += pr.KernelCycles
		r.waveCycles += pr.WaveCycles
		r.modelSetup += pr.Setup + pr.IndexTransfer
		r.modelTotal += pr.Total()
		if err := r.timed("fpga.Kernel.LocateResults", parent, job, len(batch), func() error {
			_, err := c.k.LocateResults(run.Results)
			return err
		}); err != nil {
			return err
		}
		if err := r.timed("core.VerifySampled", parent, job, len(batch), func() error {
			return core.VerifySampled(st.ix, batch, run.Results, verifyStride)
		}); err != nil {
			return err
		}
	}
	return nil
}

// exactCPU maps a job on the CPU backend in stream batches, with locate, as
// the server's CPU path does, but on one worker: every per-read time the
// replay reports is single-core, so the layers' costs can be compared and
// subtracted.
func (r *replayer) exactCPU(st *jobState, parent int) error {
	out := make([]core.MapResult, len(st.reads))
	for off := 0; off < len(st.reads); off += serverBatch {
		end := min(off+serverBatch, len(st.reads))
		if err := r.timed("core.Index.MapReadsInto", parent, st.p.index, end-off, func() error {
			_, err := st.ix.MapReadsInto(out[off:end], st.reads[off:end], core.MapOptions{Locate: true, Workers: 1})
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// memJob maps reads through the seed-and-extend pipeline and renders SAM.
func (r *replayer) memJob(st *jobState, parent int, paired bool) error {
	reads := st.reads
	if !paired && len(reads) > memReads {
		reads = reads[:memReads]
	}
	if paired && len(reads)%2 == 1 {
		return fmt.Errorf("odd read count %d in a paired job", len(reads))
	}
	opts := core.MemOptions{Paired: paired}
	res := make([]core.MemResult, len(reads))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var stats core.MemStats
	err := r.timed("core.Index.MapReadsMemInto", parent, st.p.index, len(reads), func() (err error) {
		stats, err = st.ix.MapReadsMemInto(res, reads, opts, core.MapOptions{})
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	r.memMallocs += ms.Mallocs - before
	r.mem.Merge(stats)
	return r.timed("sam.Writer.Write", parent, st.p.index, len(reads), func() error {
		w, err := sam.NewWriter(io.Discard, st.ix.SAMRefSeqs())
		if err != nil {
			return err
		}
		for i := 0; i < len(reads); {
			if paired {
				pr := core.MemPairFromResults(res[i], res[i+1], opts)
				r1, r2 := st.ix.MemPairRecords(st.recs[i].ID, st.recs[i+1].ID, reads[i], reads[i+1], pr)
				if err := w.Write(r1); err != nil {
					return err
				}
				if err := w.Write(r2); err != nil {
					return err
				}
				i += 2
				continue
			}
			if err := w.Write(st.ix.MemRecord(st.recs[i].ID, reads[i], res[i])); err != nil {
				return err
			}
			i++
		}
		return w.Flush()
	})
}

// layers measures every layer call the served path did not already make,
// on the first replayed job's index and reads drawn from its reference.
func (r *replayer) layers(states []*jobState, parent int) error {
	st0 := states[0]
	ix, ref := st0.ix, st0.ref
	// Reads drawn from ix's reference: every job's on a shared index, only
	// the first job's when each job brings its own reference.
	reads := st0.reads
	if !r.w.gateway {
		reads = nil
		for _, st := range states {
			reads = append(reads, st.reads...)
		}
	}
	reads = reads[:min(len(reads), microReads)]

	bwtData, err := r.buildParts(ix, ref, parent)
	if err != nil {
		return err
	}
	if !r.w.gateway {
		if err := r.save(ix, parent, -1); err != nil {
			return err
		}
	}
	if r.w.mode == "" {
		if err := r.gate(st0, parent); err != nil {
			return err
		}
	}
	bi, err := r.ensureMem(ix, parent)
	if err != nil {
		return err
	}
	r.indexPerBase = float64(ix.SizeBytes()) / float64(len(ref))
	r.memPerBase = float64(ix.MemBytes()) / float64(len(ref))
	if err := r.rank(ix, bwtData, parent); err != nil {
		return err
	}
	if err := r.search(ix, reads, parent); err != nil {
		return err
	}
	if err := r.seedAndExtend(bi, ref, reads[:min(len(reads), memReads)], parent); err != nil {
		return err
	}
	if r.w.backend != "fpga" {
		for _, st := range states {
			if err := r.kernelJob(&jobState{p: st.p, reads: st.reads, ix: st.ix}, parent); err != nil {
				return err
			}
		}
	}
	if !r.w.gateway {
		if err := r.exactCPU(&jobState{p: st0.p, reads: reads, ix: ix}, parent); err != nil {
			return err
		}
	}
	if r.w.mode == "" {
		return r.memJob(&jobState{p: st0.p, recs: st0.recs, reads: st0.reads, ix: ix}, parent, false)
	}
	return nil
}

// buildParts times the public parts BuildIndex is made of, on ref, and
// returns the BWT.
func (r *replayer) buildParts(ix *core.Index, ref dna.Seq, parent int) ([]uint8, error) {
	text := make([]uint8, len(ref))
	for i, b := range ref {
		text[i] = uint8(b)
	}
	var sa []int32
	if err := r.timed("suffixarray.Build", parent, -1, len(text), func() (err error) {
		sa, err = suffixarray.Build(text, dna.AlphabetSize)
		return err
	}); err != nil {
		return nil, err
	}
	var tr *bwt.BWT
	if err := r.timed("bwt.Transform", parent, -1, len(text), func() (err error) {
		tr, err = bwt.Transform(text, sa)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.timed("wavelet.New", parent, -1, len(text), func() error {
		_, err := wavelet.New(tr.Data, dna.AlphabetSize, wavelet.RRRBackend(r.idxCfg.RRR))
		return err
	}); err != nil {
		return nil, err
	}
	return tr.Data, r.timed("fmindex.BuildFtab", parent, -1, 1, func() error {
		_, err := ix.FM().BuildFtab(r.idxCfg.FtabK)
		return err
	})
}

// ensureMem times the seed-and-extend state build (reference extraction
// plus the bidirectional index) and keeps the bidirectional index for the
// seeding measurements; the core index gets its own copy for mapping.
func (r *replayer) ensureMem(ix *core.Index, parent int) (*fmindex.BiIndex, error) {
	em := r.tr.begin("core.ensure_mem", parent, -1)
	var ref dna.Seq
	err := r.timed("core.Index.ExtractReference", em, -1, 1, func() (err error) {
		ref, err = ix.ExtractReference()
		return err
	})
	var bi *fmindex.BiIndex
	if err == nil {
		err = r.timed("fmindex.NewBiIndex", em, -1, len(ref), func() (err error) {
			text := make([]uint8, len(ref))
			for i, b := range ref {
				text[i] = uint8(b)
			}
			bi, err = fmindex.NewBiIndex(text, dna.AlphabetSize, r.idxCfg.RRR)
			return err
		})
	}
	r.tr.end(em, 1)
	if err != nil {
		return nil, err
	}
	if !ix.MemReady() {
		if err := r.timed("core.Index.EnsureMem", parent, -1, 1, ix.EnsureMem); err != nil {
			return nil, err
		}
	}
	return bi, nil
}

// rankSink keeps the rank loops' results live.
var rankSink int

// rank times the Occ primitives at random positions of the workload's index.
// The RRR sequence timed is the wavelet root's bit-vector (symbol >= 2),
// encoded from the BWT with the index's parameters.
func (r *replayer) rank(ix *core.Index, bwtData []uint8, parent int) error {
	occ, ok := ix.FM().OccProvider().(*fmindex.WaveletOcc)
	if !ok {
		return fmt.Errorf("index rank structure is %s, not the wavelet tree", ix.FM().OccName())
	}
	tree := occ.Tree
	rng := rand.New(rand.NewSource(r.w.subSeed("rank", 0)))
	pos := make([]int, rankQueries)
	syms := make([]uint8, rankQueries)
	for i := range pos {
		pos[i] = rng.Intn(min(tree.Len(), len(bwtData)) + 1)
		syms[i] = uint8(rng.Intn(dna.AlphabetSize))
	}
	seq, err := rrr.New(func(i int) bool { return bwtData[i] >= 2 }, len(bwtData), r.idxCfg.RRR)
	if err != nil {
		return err
	}
	sum := 0
	counts := make([]int, dna.AlphabetSize)
	for _, c := range []struct {
		name string
		fn   func(i, p int)
	}{
		{"wavelet.Tree.Rank", func(i, p int) { sum += tree.Rank(syms[i], p) }},
		{"wavelet.Tree.RankAll", func(_, p int) { tree.RankAll(p, counts); sum += counts[0] }},
		{"rrr.Sequence.Rank1", func(_, p int) { sum += seq.Rank1(p) }},
	} {
		loop := func() error {
			for i, p := range pos {
				c.fn(i, p)
			}
			return nil
		}
		loop() // warm the structure's cache lines first
		r.timed(c.name, parent, -1, rankQueries, loop)
	}
	rankSink = sum
	return nil
}

func patterns(reads []dna.Seq) (fw, rc [][]uint8) {
	fw, rc = make([][]uint8, len(reads)), make([][]uint8, len(reads))
	for i, s := range reads {
		fw[i] = make([]uint8, len(s))
		for j, b := range s {
			fw[i][j] = uint8(b)
		}
		rs := s.ReverseComplement()
		rc[i] = make([]uint8, len(rs))
		for j, b := range rs {
			rc[i][j] = uint8(b)
		}
	}
	return fw, rc
}

// search times backward search on both strands, its step count, and
// locate over every hit.
func (r *replayer) search(ix *core.Index, reads []dna.Seq, parent int) error {
	fm := ix.FM()
	fw, rc := patterns(reads)
	ranges := make([]fmindex.Range, 0, 2*len(reads))
	searchAll := func() error {
		ranges = ranges[:0]
		for i := range fw {
			ranges = append(ranges, fm.SearchWithFtab(fw[i]), fm.SearchWithFtab(rc[i]))
		}
		return nil
	}
	searchAll() // warm pass, as in rank
	r.timed("fmindex.SearchWithFtab", parent, -1, len(reads), searchAll)
	r.timed("fmindex.CountSteps", parent, -1, len(reads), func() error {
		for i := range fw {
			_, a := fm.CountSteps(fw[i])
			_, b := fm.CountSteps(rc[i])
			r.steps += a + b
		}
		return nil
	})
	var slab []int32
	id := r.tr.begin("fmindex.LocateAppend", parent, -1)
	for _, rg := range ranges {
		var err error
		if slab, err = fm.LocateAppend(slab[:0], rg); err != nil {
			r.tr.end(id, r.hits)
			return err
		}
		r.hits += len(slab)
	}
	r.tr.end(id, r.hits)
	return nil
}

// seedAndExtend times SMEM seeding on both strands and one banded seed
// extension per read, from its longest forward-strand SMEM, as the mem
// pipeline calls them. The seeding loop runs once untimed first, so the
// timed pass sees the warm structure a serving process works on.
func (r *replayer) seedAndExtend(bi *fmindex.BiIndex, ref dna.Seq, reads []dna.Seq, parent int) error {
	minLen := 19 // core.MemOptions' default seed length
	fw, rc := patterns(reads)
	longest := make([]fmindex.SMEM, len(reads))
	var buf []fmindex.SMEM
	seed := func() error {
		r.smemSteps = 0
		for i := range fw {
			var steps int
			var err error
			if buf, steps, err = bi.SMEMsAppend(buf[:0], fw[i], minLen); err != nil {
				return err
			}
			r.smemSteps += steps
			for _, s := range buf {
				if s.Len() > longest[i].Len() {
					longest[i] = s
				}
			}
			if buf, steps, err = bi.SMEMsAppend(buf[:0], rc[i], minLen); err != nil {
				return err
			}
			r.smemSteps += steps
		}
		return nil
	}
	if err := seed(); err != nil {
		return err
	}
	if err := r.timed("fmindex.BiIndex.SMEMsAppend", parent, -1, len(reads), seed); err != nil {
		return err
	}
	type call struct {
		query            dna.Seq
		qPos, rPos, span int
	}
	var calls []call
	var pos []int32
	for i, s := range longest {
		if s.Len() == 0 {
			continue
		}
		var err error
		if pos, err = bi.Forward().LocateAppend(pos[:0], s.Rows.Fwd); err != nil {
			return err
		}
		if len(pos) == 0 {
			continue
		}
		calls = append(calls, call{reads[i], s.Start, int(pos[0]), s.Len()})
	}
	var ext align.Extender
	extend := func() error {
		for _, c := range calls {
			ext.Reset()
			if _, err := ext.ExtendSeed(c.query, ref, c.qPos, c.rPos, c.span, seedBand, align.DefaultScoring); err != nil {
				return err
			}
		}
		return nil
	}
	if err := extend(); err != nil {
		return err
	}
	return r.timed("align.Extender.ExtendSeed", parent, -1, len(calls), extend)
}
