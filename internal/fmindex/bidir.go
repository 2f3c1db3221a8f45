package fmindex

import (
	"fmt"

	"bwaver/internal/bwt"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

// Bidirectional FM-index (Lam et al.'s 2BWT, the index inside BWA-MEM):
// two FM-indexes, one over the text and one over its reverse, holding
// synchronised intervals so a match can be extended in either direction in
// O(sigma) rank operations. It powers super-maximal exact match (SMEM)
// seeding — the modern replacement for the fixed-length seeds the paper's
// seed-and-extend motivation describes — and is the "integrate into real
// sequence analysis pipelines" extension of the paper's future work.
type BiIndex struct {
	fwd, rev *Index
	sigma    int
}

// BiRange is a pair of synchronised intervals: Fwd over the text's rows for
// the current pattern P, Rev over the reversed text's rows for reverse(P).
// Both always have the same size.
type BiRange struct {
	Fwd, Rev Range
}

// Empty reports whether the bidirectional interval is empty.
func (r BiRange) Empty() bool { return r.Fwd.Empty() }

// Count returns the number of occurrences.
func (r BiRange) Count() int { return r.Fwd.Count() }

// NewBiIndex builds bidirectional FM-indexes over text. A DNA alphabet
// (sigma 4) gets the checkpointed 2-bit Occ in both directions — the
// CPU-shaped layout seeding runs on; other alphabets get the paper's
// wavelet/RRR structure with params. The forward index carries the full
// suffix array for locating; the reverse index is count-only.
func NewBiIndex(text []uint8, sigma int, params rrr.Params) (*BiIndex, error) {
	fwd, err := buildDirection(text, sigma, occEncoder(sigma, params), true)
	if err != nil {
		return nil, fmt.Errorf("fmindex: forward index: %w", err)
	}
	return NewBiIndexFromForward(fwd, text, params)
}

// occEncode encodes one direction's compact BWT data as an Occ provider.
type occEncode func(data []uint8) (OccProvider, error)

func occEncoder(sigma int, params rrr.Params) occEncode {
	if sigma == 4 {
		return func(data []uint8) (OccProvider, error) { return NewCheckpointOcc(data) }
	}
	return func(data []uint8) (OccProvider, error) { return NewWaveletOcc(data, sigma, params) }
}

// NewBiIndexFromForward pairs a prebuilt forward index over text with a
// reverse direction built from text, encoded as NewBiIndex would. The
// forward index keeps whatever Occ and locate structures it was built with,
// so a caller that already holds the text's BWT builds only the reverse
// direction.
func NewBiIndexFromForward(fwd *Index, text []uint8, params rrr.Params) (*BiIndex, error) {
	return pairReverse(fwd, text, occEncoder(fwd.Sigma(), params))
}

func pairReverse(fwd *Index, text []uint8, enc occEncode) (*BiIndex, error) {
	if fwd.Len() != len(text) {
		return nil, fmt.Errorf("fmindex: forward index covers %d symbols, text has %d", fwd.Len(), len(text))
	}
	reversed := make([]uint8, len(text))
	for i, c := range text {
		reversed[len(text)-1-i] = c
	}
	rev, err := buildDirection(reversed, fwd.Sigma(), enc, false)
	if err != nil {
		return nil, fmt.Errorf("fmindex: reverse index: %w", err)
	}
	return &BiIndex{fwd: fwd, rev: rev, sigma: fwd.Sigma()}, nil
}

func buildDirection(text []uint8, sigma int, enc occEncode, withSA bool) (*Index, error) {
	sa, err := suffixarray.Build(text, sigma)
	if err != nil {
		return nil, err
	}
	tr, err := bwt.Transform(text, sa)
	if err != nil {
		return nil, err
	}
	occ, err := enc(tr.Data)
	if err != nil {
		return nil, err
	}
	opts := Options{}
	if withSA {
		opts.SA = sa
	}
	return New(tr, sigma, occ, opts)
}

// Forward exposes the text-direction index (it has the suffix array).
func (bi *BiIndex) Forward() *Index { return bi.fwd }

// Len returns the text length.
func (bi *BiIndex) Len() int { return bi.fwd.Len() }

// SizeBytes reports both directions' footprint, including the forward
// direction's locate structure.
func (bi *BiIndex) SizeBytes() int { return bi.fwd.SizeBytes() + bi.rev.SizeBytes() }

// All returns the interval of the empty pattern.
func (bi *BiIndex) All() BiRange {
	return BiRange{Fwd: bi.fwd.All(), Rev: bi.rev.All()}
}

// ExtendLeft extends the pattern P to aP. The forward interval follows the
// ordinary backward-search step; the reverse interval shifts by the counts
// of the siblings that sort before a: within the reverse interval (all rows
// prefixed by reverse(P)), sub-intervals are ordered by the symbol that
// follows reverse(P), i.e. by the symbol prepended to P — sentinel first,
// then the alphabet.
func (bi *BiIndex) ExtendLeft(r BiRange, a uint8) BiRange {
	return extendLeftOn(bi.fwd, bi.sigma, r, a)
}

// ExtendRight extends the pattern P to Pa, the mirror image of ExtendLeft
// with the two directions swapped: prepending a to reverse(P) on the
// reverse index yields reverse(Pa).
func (bi *BiIndex) ExtendRight(r BiRange, a uint8) BiRange {
	m := extendLeftOn(bi.rev, bi.sigma, BiRange{Fwd: r.Rev, Rev: r.Fwd}, a)
	return BiRange{Fwd: m.Rev, Rev: m.Fwd}
}

var emptyBiRange = BiRange{Fwd: Range{Start: 1, End: 0}, Rev: Range{Start: 1, End: 0}}

// extendLeftOn performs one left extension where stepIx indexes the
// direction being stepped and r.Fwd is its interval.
func extendLeftOn(stepIx *Index, sigma int, r BiRange, a uint8) BiRange {
	if int(a) >= sigma || r.Empty() {
		return emptyBiRange
	}
	// counts per prepended symbol b = occurrences of bP, resolved for the
	// whole alphabet at once: StepAll shares the endpoint rank traversals
	// across symbols, the dominant saving of the seeding hot loop.
	var stepped [maxStepAllSigma]Range
	var steppedSlice []Range
	if sigma <= maxStepAllSigma {
		steppedSlice = stepped[:sigma]
	} else {
		steppedSlice = make([]Range, sigma)
	}
	stepIx.StepAll(r.Fwd, steppedSlice)
	var smaller, total, cA int
	var newFwd Range
	for b := 0; b < sigma; b++ {
		c := steppedSlice[b].Count()
		total += c
		if b < int(a) {
			smaller += c
		}
		if b == int(a) {
			cA = c
			newFwd = steppedSlice[b]
		}
	}
	if cA == 0 {
		return emptyBiRange
	}
	// Rows of the mirror interval that end right after the shared prefix
	// (the sentinel extension) sort before every symbol extension.
	sentinel := r.Count() - total
	newRevStart := r.Rev.Start + sentinel + smaller
	return BiRange{
		Fwd: newFwd,
		Rev: Range{Start: newRevStart, End: newRevStart + cA - 1},
	}
}

// Count runs a full bidirectional search for pattern (left extensions), a
// correctness cross-check against the plain index.
func (bi *BiIndex) Count(pattern []uint8) BiRange {
	r := bi.All()
	for i := len(pattern) - 1; i >= 0; i-- {
		r = bi.ExtendLeft(r, pattern[i])
		if r.Empty() {
			return r
		}
	}
	return r
}
