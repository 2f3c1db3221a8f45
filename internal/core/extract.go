package core

import (
	"fmt"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// ExtractReference reconstructs the original reference sequence from the
// index alone by LF-walking the FM-index from the sentinel row — the BWT is
// a reversible permutation, so the succinct structure is also a lossless
// archive of the genome. The walk costs one Occ query per base
// (O(n · levels · sf) on the succinct structure), which keeps `bwaver
// extract` practical for chromosome-scale references.
func (ix *Index) ExtractReference() (dna.Seq, error) { return extractReference(ix.fm) }

// extractReference is the LF walk over any FM-index of the reference: the
// core index here, the seeding layout's forward direction in EnsureMem.
func extractReference(fm *fmindex.Index) (dna.Seq, error) {
	n := fm.Len()
	out := make(dna.Seq, n)
	row := 0 // row 0 is the sentinel suffix; its BWT symbol is the last base
	for i := n - 1; i >= 0; i-- {
		if row == fm.Primary() {
			return nil, fmt.Errorf("core: extraction hit the sentinel row at base %d; index is corrupt", i)
		}
		next, err := fm.LF(row)
		if err != nil {
			return nil, fmt.Errorf("core: extraction failed at base %d: %w", i, err)
		}
		// LF consumed the symbol of this row; recover it from the C-array
		// bucket the destination row falls into.
		sym, err := symbolForRow(fm, next)
		if err != nil {
			return nil, err
		}
		out[i] = dna.Base(sym)
		row = next
	}
	if row != fm.Primary() {
		return nil, fmt.Errorf("core: extraction ended at row %d, want sentinel row %d; index is corrupt", row, fm.Primary())
	}
	return out, nil
}

// symbolForRow returns the first-column symbol of a non-sentinel row, i.e.
// the symbol whose C-array bucket contains the row.
func symbolForRow(fm interface {
	Sigma() int
	SymbolCount(uint8) int
}, row int) (uint8, error) {
	// cFull[0] = 1 (sentinel row); walk the buckets.
	lo := 1
	for s := 0; s < fm.Sigma(); s++ {
		hi := lo + fm.SymbolCount(uint8(s))
		if row >= lo && row < hi {
			return uint8(s), nil
		}
		lo = hi
	}
	return 0, fmt.Errorf("core: row %d outside every symbol bucket", row)
}
