package fmindex

import (
	"testing"

	"bwaver/internal/bwt"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// FuzzSearchWithFtab asserts the prefix-table search is bit-identical to the
// plain backward search: for any text, table order, and pattern — including
// out-of-alphabet symbols and reads shorter than k — both must return the
// same Range. The table stores the exact death range of dead k-mers, so this
// holds with no fallback re-search on the hot path; equality here is the
// whole correctness contract of the optimisation.
func FuzzSearchWithFtab(f *testing.F) {
	f.Add([]byte("ACGTACGGTACCTTAGGCAATCGA"), []byte("ACGT"), uint8(2))
	f.Add([]byte("AAAAAAAACCCCGGGG"), []byte("AAAC"), uint8(3))
	f.Add([]byte("ACGT"), []byte("NNACGT"), uint8(4))
	f.Add([]byte("TTTT"), []byte("T"), uint8(5))
	f.Fuzz(func(t *testing.T, textRaw, patternRaw []byte, kRaw uint8) {
		if len(textRaw) == 0 || len(textRaw) > 1<<10 {
			return
		}
		text := make([]uint8, len(textRaw))
		for i, b := range textRaw {
			text[i] = b & 3
		}
		// Patterns keep symbols up to 5 so values >= sigma exercise both the
		// table's miss path and Step's empty-range handling.
		pattern := make([]uint8, len(patternRaw))
		for i, b := range patternRaw {
			pattern[i] = b % 6
		}
		k := 1 + int(kRaw)%6
		sa, err := suffixarray.Build(text, 4)
		if err != nil {
			t.Skip() // degenerate text the pipeline rejects
		}
		tr, err := bwt.Transform(text, sa)
		if err != nil {
			t.Skip()
		}
		occ, err := NewWaveletOcc(tr.Data, 4, rrr.DefaultParams)
		if err != nil {
			t.Skip()
		}
		ix, err := New(tr, 4, occ, Options{SA: sa})
		if err != nil {
			t.Skip()
		}
		ftab, err := ix.BuildFtab(k)
		if err != nil {
			t.Fatalf("BuildFtab(%d): %v", k, err)
		}
		ix.SetFtab(ftab)

		plain := ix.Count(pattern)
		got := ix.SearchWithFtab(pattern)
		if got != plain {
			t.Fatalf("k=%d pattern=%v: ftab search %+v != plain search %+v",
				k, pattern, got, plain)
		}
	})
}

// FuzzOccProviders drives every Occ provider with the same queries over
// random DNA: the paper's wavelet/RRR structure (small parameters, so
// superblock and block boundaries fall inside short inputs), the
// plain-bit-vector wavelet, the flat table, the checkpointed 2-bit layout
// seeding runs on, and the run-length structure. Each must give the naive
// Occ at every position and every symbol, the same whole-alphabet counts
// where it answers OccAll, and the BWT symbol at every row; and on each,
// Index.StepAll must equal per-symbol Step. Any speed layout stands on this
// equivalence with the paper's structure.
func FuzzOccProviders(f *testing.F) {
	f.Add([]byte("ACGTACGGTACCTTAGGCAATCGA"), uint8(0))
	f.Add(make([]byte, 128), uint8(1)) // one run, length on a checkpoint boundary
	f.Add(make([]byte, 255), uint8(2)) // a boundary inside the text
	f.Add([]byte("GATTACA"), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, paramsRaw uint8) {
		if len(raw) == 0 || len(raw) > 600 {
			t.Skip()
		}
		text := make([]uint8, len(raw))
		for i, b := range raw {
			text[i] = b & 3
		}
		sa, err := suffixarray.Build(text, 4)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := bwt.Transform(text, sa)
		if err != nil {
			t.Fatal(err)
		}
		small := rrr.Params{
			BlockSize:        rrr.MinBlockSize + int(paramsRaw)%(rrr.MaxBlockSize-rrr.MinBlockSize+1),
			SuperblockFactor: 1 + int(paramsRaw>>4),
		}
		providers := []struct {
			name string
			mk   func() (OccProvider, error)
		}{
			{"wavelet-rrr", func() (OccProvider, error) { return NewWaveletOcc(tr.Data, 4, small) }},
			{"wavelet-plain", func() (OccProvider, error) {
				return NewWaveletOccBackend(tr.Data, 4, wavelet.PlainBackend())
			}},
			{"flat", func() (OccProvider, error) { return NewFlatOcc(tr.Data, 4) }},
			{"checkpoint", func() (OccProvider, error) { return NewCheckpointOcc(tr.Data) }},
			{"rlfm", func() (OccProvider, error) { return NewRLFMOcc(tr.Data, 4, small) }},
		}
		n := len(tr.Data)
		// want[i][s] is the naive Occ(s, i).
		want := make([][4]int, n+1)
		for i, c := range tr.Data {
			want[i+1] = want[i]
			want[i+1][c]++
		}
		for _, p := range providers {
			occ, err := p.mk()
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			oa, hasAll := occ.(OccAller)
			var all [4]int
			for i := 0; i <= n; i++ {
				for s := uint8(0); s < 4; s++ {
					if got := occ.Occ(s, i); got != want[i][s] {
						t.Fatalf("%s: Occ(%d, %d) = %d, want %d", p.name, s, i, got, want[i][s])
					}
				}
				if hasAll {
					oa.OccAll(i, all[:])
					if all != want[i] {
						t.Fatalf("%s: OccAll(%d) = %v, want %v", p.name, i, all, want[i])
					}
				}
			}
			ix, err := New(tr, 4, occ, Options{})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			for row := 0; row <= n; row++ {
				if row == ix.Primary() {
					continue
				}
				i := row
				if i > ix.Primary() {
					i--
				}
				if sym, err := ix.rowSymbol(row); err != nil || sym != tr.Data[i] {
					t.Fatalf("%s: symbol at row %d = %d (%v), want %d", p.name, row, sym, err, tr.Data[i])
				}
			}
			var stepped [4]Range
			for start := 0; start <= n; start++ {
				for _, end := range []int{start - 1, start, min(start+7, n), n} {
					r := Range{Start: start, End: end}
					ix.StepAll(r, stepped[:])
					for b := uint8(0); b < 4; b++ {
						if w := ix.Step(r, b); stepped[b] != w {
							t.Fatalf("%s: StepAll(%+v)[%d] = %+v, Step = %+v", p.name, r, b, stepped[b], w)
						}
					}
				}
			}
		}
	})
}
