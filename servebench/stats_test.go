package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: the helper must sort
	}
	v, ok := percentile(xs, 0.9)
	if v != 90 || !ok {
		t.Fatalf("p90 of 1..100 = %v (supported %v), want 90 supported", v, ok)
	}
	v, ok = percentile(xs, 0.5)
	if v != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v (supported %v), want 50 supported", v, ok)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, // rank 90, ten beyond
		{99, 0.9, false}, // rank 90, nine beyond
		{110, 0.9, true}, // rank 99, eleven beyond
		{20, 0.5, true},  // rank 10, ten beyond
		{19, 0.5, false}, // rank 10, nine beyond
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, tc.p); ok != tc.want {
			t.Errorf("n=%d p=%v supported=%v, want %v", tc.n, tc.p, ok, tc.want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported as supported")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}
