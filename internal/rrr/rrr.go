// Package rrr implements the succinct bit-vector of Raman, Raman and Rao as
// specialised by the BWaveR paper (§III-B, Fig. 3, Algorithm 1).
//
// A bit sequence B[0,N) is split into blocks of b bits, grouped into
// superblocks of sf blocks (sf is the "superblock factor"). Per block the
// structure stores a 4-bit class (the block's popcount) and a variable-width
// offset identifying the block within its class; per superblock it stores
// the running rank (partial sum) and the bit position of the superblock's
// first offset field. All blocks of the same size share one global rank
// table of sorted permutations. Rank costs O(sf); space approaches the
// zero-order entropy of the sequence, which is what makes BWT sequences —
// full of symbol runs — so compressible.
package rrr

import (
	"errors"
	"fmt"
	"math/bits"
)

// Params selects the time/space trade-off of a Sequence.
type Params struct {
	// BlockSize is b, the bits per block (paper hardware fixes b = 15).
	BlockSize int
	// SuperblockFactor is sf, the blocks per superblock (paper uses >= 50).
	SuperblockFactor int
}

// Validate checks the parameters against the supported ranges.
func (p Params) Validate() error {
	if p.BlockSize < MinBlockSize || p.BlockSize > MaxBlockSize {
		return fmt.Errorf("rrr: block size %d out of range [%d,%d]", p.BlockSize, MinBlockSize, MaxBlockSize)
	}
	if p.SuperblockFactor < 1 {
		return fmt.Errorf("rrr: superblock factor %d must be >= 1", p.SuperblockFactor)
	}
	return nil
}

// DefaultParams are the parameters the paper fixes for its hardware
// implementation: b = 15, sf = 50.
var DefaultParams = Params{BlockSize: 15, SuperblockFactor: 50}

// Sequence is an immutable RRR-encoded bit-vector. It is safe for
// concurrent readers.
type Sequence struct {
	n      int // number of bits
	b      int
	sf     int
	nBlk   int // ceil(n/b)
	nSuper int // ceil(nBlk/sf)

	table *GlobalRankTable

	// classes holds one 4-bit class per block, two per byte, low nibble
	// first — exactly the paper's "array of N/b 4-bit fields".
	classes []uint8
	// partialSum[s] is the rank (number of 1s) before superblock s;
	// partialSum[nSuper] is the total.
	partialSum []uint32
	// offsets is the variable-width offset bit-vector, LSB-first in words.
	offsets []uint64
	offBits int
	// offsetSum[s] is the bit position in offsets of the first field of
	// superblock s (the paper's "set sum" array).
	offsetSum []uint32
}

var errTooLong = errors.New("rrr: sequence longer than 2^32-1 ones/offset bits unsupported")

// BitSource yields bit i of the input; it is how builders avoid
// materialising a []bool for multi-megabyte inputs.
type BitSource func(i int) bool

// New encodes n bits from src with the given parameters.
func New(src BitSource, n int, p Params) (*Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("rrr: negative length %d", n)
	}
	table, err := TableFor(p.BlockSize)
	if err != nil {
		return nil, err
	}
	b, sf := p.BlockSize, p.SuperblockFactor
	nBlk := (n + b - 1) / b
	nSuper := (nBlk + sf - 1) / sf

	s := &Sequence{
		n: n, b: b, sf: sf, nBlk: nBlk, nSuper: nSuper,
		table:      table,
		classes:    make([]uint8, (nBlk+1)/2),
		partialSum: make([]uint32, nSuper+1),
		offsetSum:  make([]uint32, nSuper),
	}

	// First pass: classes, partial sums, and total offset width.
	totalOnes := uint64(0)
	totalOffBits := uint64(0)
	for blk := 0; blk < nBlk; blk++ {
		if blk%sf == 0 {
			if totalOnes > 1<<32-1 || totalOffBits > 1<<32-1 {
				return nil, errTooLong
			}
			s.partialSum[blk/sf] = uint32(totalOnes)
			s.offsetSum[blk/sf] = uint32(totalOffBits)
		}
		v := blockValue(src, blk, b, n)
		c := bits.OnesCount16(v)
		s.setClass(blk, c)
		totalOnes += uint64(c)
		totalOffBits += uint64(table.Width(c))
	}
	if totalOnes > 1<<32-1 || totalOffBits > 1<<32-1 {
		return nil, errTooLong
	}
	s.partialSum[nSuper] = uint32(totalOnes)
	s.offBits = int(totalOffBits)
	s.offsets = make([]uint64, (totalOffBits+63)/64)

	// Second pass: write the offset fields.
	pos := 0
	for blk := 0; blk < nBlk; blk++ {
		v := blockValue(src, blk, b, n)
		c := bits.OnesCount16(v)
		w := table.Width(c)
		if w > 0 {
			writeBits(s.offsets, pos, uint64(table.OffsetOf(v)), w)
		}
		pos += w
	}
	return s, nil
}

// FromBools encodes a bool slice.
func FromBools(bitsIn []bool, p Params) (*Sequence, error) {
	return New(func(i int) bool { return bitsIn[i] }, len(bitsIn), p)
}

// blockValue extracts block blk as a b-bit LSB-first value, zero-padded past
// the end of the sequence.
func blockValue(src BitSource, blk, b, n int) uint16 {
	var v uint16
	base := blk * b
	end := base + b
	if end > n {
		end = n
	}
	for i := base; i < end; i++ {
		if src(i) {
			v |= 1 << uint(i-base)
		}
	}
	return v
}

func (s *Sequence) setClass(blk, c int) {
	if blk%2 == 0 {
		s.classes[blk/2] |= uint8(c)
	} else {
		s.classes[blk/2] |= uint8(c) << 4
	}
}

func (s *Sequence) class(blk int) int {
	v := s.classes[blk/2]
	if blk%2 == 1 {
		v >>= 4
	}
	return int(v & 0xF)
}

// writeBits stores the low w bits of v at bit position pos (LSB-first).
func writeBits(words []uint64, pos int, v uint64, w int) {
	wi, bi := pos/64, uint(pos%64)
	words[wi] |= v << bi
	if int(bi)+w > 64 {
		words[wi+1] |= v >> (64 - bi)
	}
}

// readBits loads w bits from bit position pos (LSB-first), w <= 16.
func readBits(words []uint64, pos int, w int) uint64 {
	wi, bi := pos/64, uint(pos%64)
	v := words[wi] >> bi
	if int(bi)+w > 64 {
		v |= words[wi+1] << (64 - bi)
	}
	return v & (1<<uint(w) - 1)
}

// Len returns the number of bits in the sequence.
func (s *Sequence) Len() int { return s.n }

// Ones returns the total number of set bits.
func (s *Sequence) Ones() int { return int(s.partialSum[s.nSuper]) }

// Params returns the encoding parameters.
func (s *Sequence) Params() Params {
	return Params{BlockSize: s.b, SuperblockFactor: s.sf}
}

// Rank1 returns the number of 1 bits strictly before position i
// (prefix-exclusive, zero-based). It is Algorithm 1 of the paper: resolve
// the enclosing superblock's partial sum, add the classes of the preceding
// blocks, then decode the current block through the global rank table and
// popcount its prefix.
func (s *Sequence) Rank1(i int) int {
	if i < 0 || i > s.n {
		panic(fmt.Sprintf("rrr: rank position %d out of range [0,%d]", i, s.n))
	}
	sb := s.b * s.sf
	if i%sb == 0 {
		return int(s.partialSum[i/sb])
	}
	super := i / sb
	count := int(s.partialSum[super])
	blk := i / s.b
	if i%s.b == 0 {
		j := super * s.sf
		if j&1 == 1 && j < blk {
			count += int(s.classes[j/2] >> 4)
			j++
		}
		for ; j+2 <= blk; j += 2 {
			count += int(s.table.classSum[s.classes[j/2]])
		}
		if j < blk {
			count += int(s.classes[j/2] & 0xF)
		}
		return count
	}
	// Scan the preceding blocks' classes two at a time through the packed
	// byte LUTs; superblocks start on even block indexes only when sf is
	// even, so handle a stray nibble at either end.
	offPos := int(s.offsetSum[super])
	j := super * s.sf
	if j&1 == 1 && j < blk {
		c := int(s.classes[j/2] >> 4)
		count += c
		offPos += int(s.table.width[c])
		j++
	}
	for ; j+2 <= blk; j += 2 {
		v := s.classes[j/2]
		count += int(s.table.classSum[v])
		offPos += int(s.table.widthSum[v])
	}
	if j < blk {
		c := int(s.classes[j/2] & 0xF)
		count += c
		offPos += int(s.table.width[c])
	}
	c := s.class(blk)
	var v uint16
	if w := s.table.Width(c); w > 0 {
		v = s.table.Block(c, int(readBits(s.offsets, offPos, w)))
	} else {
		v = s.table.Block(c, 0)
	}
	count += bits.OnesCount16(v & (1<<uint(i%s.b) - 1))
	return count
}

// Rank0 returns the number of 0 bits strictly before position i.
func (s *Sequence) Rank0(i int) int { return i - s.Rank1(i) }

// Bit returns bit i, decoded through the global rank table.
func (s *Sequence) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("rrr: index %d out of range [0,%d)", i, s.n))
	}
	blk := i / s.b
	super := blk / s.sf
	offPos := int(s.offsetSum[super])
	for j := super * s.sf; j < blk; j++ {
		offPos += s.table.Width(s.class(j))
	}
	c := s.class(blk)
	var v uint16
	if w := s.table.Width(c); w > 0 {
		v = s.table.Block(c, int(readBits(s.offsets, offPos, w)))
	} else {
		v = s.table.Block(c, 0)
	}
	return v>>uint(i%s.b)&1 == 1
}

// Words decodes the whole sequence into plain LSB-first 64-bit words, the
// last one zero-padded. It walks the blocks in order, carrying the offset
// position forward, so each block is decoded once — the sequential
// counterpart of Bit, which re-scans its superblock's classes per call.
func (s *Sequence) Words() []uint64 {
	words := make([]uint64, (s.n+63)/64)
	offPos := 0
	for blk := 0; blk < s.nBlk; blk++ {
		c := s.class(blk)
		w := s.table.Width(c)
		var v uint64
		if w > 0 {
			v = uint64(s.table.Block(c, int(readBits(s.offsets, offPos, w))))
		} else {
			v = uint64(s.table.Block(c, 0))
		}
		offPos += w
		pos := blk * s.b
		wi, bi := pos/64, uint(pos%64)
		words[wi] |= v << bi
		// Bits past n are zero, so a block straddling the last word needs no
		// spill slot.
		if int(bi)+s.b > 64 && wi+1 < len(words) {
			words[wi+1] |= v >> (64 - bi)
		}
	}
	return words
}

// Select1 returns the position of the k-th set bit (k >= 1), or -1 if there
// are fewer than k ones. Superblock search is binary over the partial sums;
// within a superblock it scans classes and decodes one block.
func (s *Sequence) Select1(k int) int {
	if k <= 0 || k > s.Ones() {
		return -1
	}
	lo, hi := 0, s.nSuper-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(s.partialSum[mid]) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(s.partialSum[lo])
	offPos := int(s.offsetSum[lo])
	for blk := lo * s.sf; blk < s.nBlk; blk++ {
		c := s.class(blk)
		if rem <= c {
			w := s.table.Width(c)
			var v uint16
			if w > 0 {
				v = s.table.Block(c, int(readBits(s.offsets, offPos, w)))
			} else {
				v = s.table.Block(c, 0)
			}
			for bit := 0; bit < s.b; bit++ {
				if v>>uint(bit)&1 == 1 {
					rem--
					if rem == 0 {
						return blk*s.b + bit
					}
				}
			}
		}
		rem -= c
		offPos += s.table.Width(c)
	}
	return -1
}

// OffsetBits returns lambda, the total length in bits of the offset
// bit-vector — the entropy-dependent part of the structure's size.
func (s *Sequence) OffsetBits() int { return s.offBits }

// SizeBytes returns the actual memory footprint of this sequence, excluding
// the shared global rank table (use SharedSizeBytes for that), matching how
// the paper accounts space when many wavelet nodes share one table.
func (s *Sequence) SizeBytes() int {
	return len(s.classes) + len(s.partialSum)*4 + len(s.offsetSum)*4 + (s.offBits+7)/8 + 3*4
}

// SharedSizeBytes returns the size of the shared global rank table.
func (s *Sequence) SharedSizeBytes() int { return s.table.SizeBytes() }

// PaperFormulaBytes evaluates the closed-form size expression from §III-B:
//
//	(sf+16)N/(2·sf·b) + 2^(b+1) + 4b + 7 + lambda/8
//
// It is used by tests to confirm the implementation matches the paper's
// space accounting (up to rounding of the partial arrays).
func (s *Sequence) PaperFormulaBytes() float64 {
	n := float64(s.n)
	b := float64(s.b)
	sf := float64(s.sf)
	return (sf+16)*n/(2*sf*b) + float64(int(1)<<uint(s.b+1)) + 4*b + 7 + float64(s.offBits)/8
}
