package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{100, 0.9, 90},
		{99, 0.9, 0},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{1, 0.5, 0},
	} {
		got, err := percentile(ramp(tc.n), tc.q)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want refused", tc.q*100, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.q*100, tc.n, got, err, tc.want)
		}
	}
	for _, q := range []float64{0, 1, math.NaN()} {
		if _, err := percentile(ramp(5000), q); err == nil {
			t.Errorf("percentile %g accepted", q)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
}

func TestFailFracCountsRefusedAndFailedAsAttempted(t *testing.T) {
	tl := tally{ok: 90, failed: 6, refused: 4}
	if tl.attempted() != 100 {
		t.Fatalf("attempted = %d, want 100", tl.attempted())
	}
	if got := tl.failFrac(); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("failFrac = %g, want 0.10", got)
	}
	if got := tl.okFrac(); math.Abs(got-0.90) > 1e-12 {
		t.Errorf("okFrac = %g, want 0.90", got)
	}
	if got := (tally{refused: 3}).failFrac(); got != 1 {
		t.Errorf("all refused: failFrac = %g, want 1", got)
	}
	if got := (tally{}).failFrac(); got != 0 {
		t.Errorf("nothing attempted: failFrac = %g, want 0", got)
	}
}

func TestMissesRankAboveEverySuccess(t *testing.T) {
	ok := ramp(9) // 1..9 ms
	xs := missLatencies(ok, 11, 5000)
	if len(xs) != 20 {
		t.Fatalf("%d samples, want 20", len(xs))
	}
	// 11 of 20 missed: the median is a miss, read as the run's window.
	if p50, err := percentile(xs, 0.5); err != nil || p50 != 5000 {
		t.Errorf("median = %g, %v; want the 5000 ms window", p50, err)
	}
	// A miss never reads better than a success slower than the window.
	xs = missLatencies([]float64{7000}, 1, 5000)
	if xs[1] != 7000 {
		t.Errorf("miss reads %g, below the 7000 ms success", xs[1])
	}
}

func TestSplitSharesAndCoverage(t *testing.T) {
	spans := []span{{"core", 90}, {"verify", 5}, {"verify", 3}, {"graph.decode", 1}}
	s, err := splitOf(spans, 100)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	near("verify ms", s.ms["verify"], 8)
	near("core share", s.share["core"], 0.9)
	near("verify share", s.share["verify"], 0.08)
	near("coverage", s.coverage, 0.99)

	// An untimed layer shows up as a gap in the coverage.
	s, err = splitOf(spans, 200)
	if err != nil {
		t.Fatal(err)
	}
	near("coverage with a gap", s.coverage, 0.495)

	if _, err := splitOf(spans, 50); err == nil {
		t.Error("spans longer than the pass accepted")
	}
	if _, err := splitOf(spans, 0); err == nil {
		t.Error("zero wall time accepted")
	}
	if _, err := splitOf([]span{{"core", -1}}, 10); err == nil {
		t.Error("negative span accepted")
	}
}
