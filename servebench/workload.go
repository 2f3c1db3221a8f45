package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

// Workload shapes. Job sizes are set so that one run of the benchmark's
// run length completes at least 100 jobs per workload on a 2-core host,
// the count a p90 needs to have ten samples beyond it.
const (
	exactReads     = 16384 // two full 8192-read stream batches per job
	exactReadLen   = 35
	memPairs       = 128
	memReadLen     = 150
	memInsertMean  = 500
	memInsertSD    = 50
	churnRefBases  = 300_000
	churnReads     = 2000
	setupReads     = 100 // the set-up job's size, on every workload
	memMaxEE       = 2.0 // generated qualities (all Q40) never fail it
	fastqQualASCII = 'I' // phred 40
	ecoliScale     = 1.0 // the paper's full 4.64 Mbp E. coli size
)

// setupJob is the job index of the run's first, cut-down job.
const setupJob = -1

// workload is one traffic mix: how each job's payload is generated and
// which form fields it is submitted with.
type workload struct {
	name    string
	seed    int64
	backend string
	mode    string // "" for exact matching
	gateway bool   // served through -mode=gateway fronting two workers
	ref     dna.Seq
	refFA   []byte
}

// truth is the ground truth of one read: where it was drawn from.
type truth struct {
	origin int  // 0-based leftmost reference base, -1 for a random read
	rev    bool // drawn from the reverse strand
	exact  bool // error-free, so an exact search must report origin
}

// payload is one job's generated input; it is a pure function of
// (workload, seed, job index).
type payload struct {
	index   int
	ref     dna.Seq
	refFA   []byte
	readsFQ []byte
	truth   []truth
	readLen int
}

var workloadNames = []string{"exact-fpga", "mem-pe-cpu", "churn-gateway"}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed, backend: "cpu"}
	switch name {
	case "exact-fpga":
		w.backend = "fpga"
	case "mem-pe-cpu":
		w.mode = "mem-pe"
	case "churn-gateway":
		w.gateway = true
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// One genome per workload, as the paper maps against one E. coli
	// reference; the seed varies the reads. Across seeds only the reads
	// differ, so run-to-run spread measures the system, not the genome.
	ref, err := readsim.EColiLike(int64(fnvHash(w.name+"/reference")>>1), ecoliScale)
	if err != nil {
		return nil, err
	}
	w.ref, w.refFA = ref, fasta("ecoli_like", ref)
	return w, nil
}

// subSeed derives the seed of one generated part from the workload name,
// the run seed and the job index.
func (w *workload) subSeed(part string, index int) int64 {
	return int64(fnvHash(fmt.Sprintf("%s/%d/%s/%d", w.name, w.seed, part, index)) >> 1)
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// refBases is the length of each job's reference.
func (w *workload) refBases() int {
	if w.gateway {
		return churnRefBases
	}
	return len(w.ref)
}

// form is the job's submission fields besides the two uploads.
func (w *workload) form() map[string]string {
	f := map[string]string{"backend": w.backend}
	if w.mode != "" {
		f["mode"] = w.mode
		f["max_ee"] = strconv.FormatFloat(memMaxEE, 'g', -1, 64)
	}
	return f
}

// job generates job index's payload; setupJob gives the cut-down first job.
func (w *workload) job(index int) (*payload, error) {
	p := &payload{index: index, ref: w.ref, refFA: w.refFA}
	readSeed := w.subSeed("reads", index)
	switch w.name {
	case "exact-fpga":
		n := exactReads
		if index == setupJob {
			n = setupReads
		}
		return p, p.singles(n, exactReadLen, 0.9, readSeed)
	case "mem-pe-cpu":
		n := memPairs
		if index == setupJob {
			n = setupReads / 2
		}
		return p, p.pairs(n, readSeed)
	default: // churn-gateway: a fresh reference per job
		ref, err := readsim.Chr21Like(w.subSeed("ref", index), float64(churnRefBases)/float64(readsim.Chr21Length))
		if err != nil {
			return nil, err
		}
		p.ref, p.refFA = ref, fasta(fmt.Sprintf("chr21_like_%d", index), ref)
		n := churnReads
		if index == setupJob {
			n = setupReads
		}
		return p, p.singles(n, exactReadLen, 1, readSeed)
	}
}

// reads returns the job's read count.
func (p *payload) reads() int { return len(p.truth) }

func (p *payload) singles(n, length int, ratio float64, seed int64) error {
	sim, err := readsim.Simulate(p.ref, readsim.ReadsConfig{
		Count: n, Length: length, MappingRatio: ratio, RevCompFraction: 0.5, Seed: seed,
	})
	if err != nil {
		return err
	}
	p.readLen = length
	var fq []byte
	p.truth = make([]truth, n)
	for i, r := range sim {
		fq = appendFastq(fq, r.ID, r.Seq)
		p.truth[i] = truth{origin: r.Origin, rev: r.RevStrand, exact: r.Origin >= 0 && r.Errors == 0}
	}
	p.readsFQ = fq
	return nil
}

func (p *payload) pairs(n int, seed int64) error {
	sim, err := readsim.SimulatePairs(p.ref, readsim.PairConfig{
		Count: n, ReadLength: memReadLen, InsertMean: memInsertMean, InsertStdDev: memInsertSD,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: seed,
	})
	if err != nil {
		return err
	}
	p.readLen = memReadLen
	var fq []byte
	p.truth = make([]truth, 0, 2*n)
	for _, pr := range sim {
		fq = appendFastq(fq, pr.ID+"/1", pr.R1)
		fq = appendFastq(fq, pr.ID+"/2", pr.R2)
		r1, r2 := truth{origin: -1}, truth{origin: -1}
		if pr.Origin >= 0 {
			r1 = truth{origin: pr.Origin}
			r2 = truth{origin: pr.Origin + pr.Insert - memReadLen, rev: true}
		}
		p.truth = append(p.truth, r1, r2)
	}
	p.readsFQ = fq
	return nil
}

// fasta renders one record with 80-column sequence lines.
func fasta(name string, s dna.Seq) []byte {
	out := make([]byte, 0, len(s)+len(s)/80+len(name)+3)
	out = append(out, '>')
	out = append(out, name...)
	out = append(out, '\n')
	for i := 0; i < len(s); i += 80 {
		for _, b := range s[i:min(i+80, len(s))] {
			out = append(out, b.Byte())
		}
		out = append(out, '\n')
	}
	return out
}

func appendFastq(dst []byte, id string, s dna.Seq) []byte {
	dst = append(dst, '@')
	dst = append(dst, id...)
	dst = append(dst, '\n')
	for _, b := range s {
		dst = append(dst, b.Byte())
	}
	dst = append(dst, "\n+\n"...)
	for range s {
		dst = append(dst, fastqQualASCII)
	}
	return append(dst, '\n')
}
