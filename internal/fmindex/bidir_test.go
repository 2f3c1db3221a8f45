package fmindex

import (
	"math/rand"
	"testing"

	"bwaver/internal/rrr"
)

func buildBi(t *testing.T, text []uint8) *BiIndex {
	t.Helper()
	bi, err := NewBiIndex(text, 4, rrr.Params{BlockSize: 15, SuperblockFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	return bi
}

// rrrBiIndex builds the bidirectional index on the paper's RRR wavelet in
// both directions, the structure NewBiIndex's DNA layout must reproduce.
func rrrBiIndex(text []uint8, params rrr.Params) (*BiIndex, error) {
	enc := func(data []uint8) (OccProvider, error) { return NewWaveletOcc(data, 4, params) }
	fwd, err := buildDirection(text, 4, enc, true)
	if err != nil {
		return nil, err
	}
	return pairReverse(fwd, text, enc)
}

func TestBiCountMatchesPlainIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	text := buildText(rng, 2000)
	bi := buildBi(t, text)
	for trial := 0; trial < 150; trial++ {
		var pattern []uint8
		if trial%2 == 0 {
			l := 1 + rng.Intn(25)
			s := rng.Intn(len(text) - l)
			pattern = text[s : s+l]
		} else {
			pattern = buildText(rng, 1+rng.Intn(15))
		}
		want := bi.Forward().Count(pattern)
		got := bi.Count(pattern)
		if got.Empty() != want.Empty() {
			t.Fatalf("bi count %v, plain %v for %v", got.Fwd, want, pattern)
		}
		if !got.Empty() && got.Fwd != want {
			t.Fatalf("bi interval %v, plain %v for %v", got.Fwd, want, pattern)
		}
	}
}

// TestBiExtendBothDirections grows a pattern outward from the middle and
// checks every intermediate interval against the plain index.
func TestBiExtendBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	text := buildText(rng, 3000)
	bi := buildBi(t, text)
	for trial := 0; trial < 40; trial++ {
		s := 20 + rng.Intn(len(text)-60)
		mid := s + 10
		r := bi.ExtendLeft(bi.All(), text[mid])
		lo, hi := mid, mid+1
		for step := 0; step < 18 && !r.Empty(); step++ {
			if step%2 == 0 && lo > 0 {
				lo--
				r = bi.ExtendLeft(r, text[lo])
			} else if hi < len(text) {
				r = bi.ExtendRight(r, text[hi])
				hi++
			}
			want := bi.Forward().Count(text[lo:hi])
			if r.Empty() != want.Empty() || (!r.Empty() && r.Fwd != want) {
				t.Fatalf("trial %d [%d,%d): bi %v, plain %v", trial, lo, hi, r.Fwd, want)
			}
			// The reverse interval must have the same size and count the
			// reversed pattern in the reversed text.
			if !r.Empty() && r.Rev.Count() != want.Count() {
				t.Fatalf("trial %d: rev interval size %d, want %d", trial, r.Rev.Count(), want.Count())
			}
		}
	}
}

func TestBiExtendInvalidSymbol(t *testing.T) {
	text := []uint8{0, 1, 2, 3, 0, 1}
	bi := buildBi(t, text)
	if !bi.ExtendLeft(bi.All(), 9).Empty() {
		t.Error("invalid symbol extended left")
	}
	if !bi.ExtendRight(bi.All(), 9).Empty() {
		t.Error("invalid symbol extended right")
	}
	dead := bi.ExtendLeft(bi.All(), 0)
	dead = BiRange{Fwd: Range{Start: 1, End: 0}, Rev: Range{Start: 1, End: 0}}
	if !bi.ExtendLeft(dead, 0).Empty() {
		t.Error("empty interval extended")
	}
}

// TestBiRevIntervalIsReverseCount verifies the synchronised-interval
// invariant directly: the Rev interval of pattern P equals the plain
// interval of reverse(P) in the reversed text.
func TestBiRevIntervalIsReverseCount(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	text := buildText(rng, 1200)
	bi := buildBi(t, text)
	for trial := 0; trial < 60; trial++ {
		l := 1 + rng.Intn(12)
		s := rng.Intn(len(text) - l)
		pattern := text[s : s+l]
		revPattern := make([]uint8, l)
		for i, c := range pattern {
			revPattern[l-1-i] = c
		}
		r := bi.Count(pattern)
		want := bi.rev.Count(revPattern)
		if r.Empty() != want.Empty() || (!r.Empty() && r.Rev != want) {
			t.Fatalf("rev interval %v, want %v", r.Rev, want)
		}
	}
}
