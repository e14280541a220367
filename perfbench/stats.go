package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must rank above a reported
// percentile: a p99 read from 200 samples rests on two values, so it is
// refused rather than reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, a percentile that fewer than minBeyond samples
// rank above. xs is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle of a small fixed number of repetitions (set-up
// runs), not a latency distribution, so it applies no minBeyond rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the minimum, quartiles and maximum of xs, for
// progress lines.
func quartiles(xs []float64) [5]float64 {
	var q [5]float64
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := range q {
		q[i] = s[i*(len(s)-1)/4]
	}
	return q
}

// mean averages xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tally counts the outcomes of attempted operations. Every operation the
// benchmark starts is attempted, whether the program refused it (503),
// failed it, or returned a result the benchmark's checks rejected.
type tally struct {
	ok, failed, refused int
}

func (t tally) attempted() int { return t.ok + t.failed + t.refused }

// failFrac is the share of attempted operations that did not yield a
// verified result.
func (t tally) failFrac() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed+t.refused) / float64(t.attempted())
}

// okFrac is 1 - failFrac: the end-to-end form, which is never 0 on a
// healthy run.
func (t tally) okFrac() float64 { return 1 - t.failFrac() }

// missLatencies returns the latency samples of a run in which the
// failed and refused operations count as misses: each is given a value
// above every real sample (ceil), so a percentile that lands on one
// reads as worse than anything that succeeded.
func missLatencies(okMs []float64, misses int, ceil float64) []float64 {
	out := append([]float64(nil), okMs...)
	for _, x := range okMs {
		ceil = math.Max(ceil, x)
	}
	for i := 0; i < misses; i++ {
		out = append(out, ceil)
	}
	return out
}

// span is one timed call of the traced pass.
type span struct {
	layer string
	ms    float64
}

// split sums a traced pass's spans per layer and reports each layer's
// share of the pass's wall time, plus the coverage: the share of the
// wall time that some span accounts for. A layer the benchmark forgot
// to time shows up as coverage below 1.
type split struct {
	ms       map[string]float64
	share    map[string]float64
	coverage float64
}

func splitOf(spans []span, wallMs float64) (split, error) {
	if wallMs <= 0 {
		return split{}, fmt.Errorf("traced wall time %g ms is not positive", wallMs)
	}
	s := split{ms: map[string]float64{}, share: map[string]float64{}}
	covered := 0.0
	for _, sp := range spans {
		if sp.ms < 0 {
			return split{}, fmt.Errorf("span %s has negative duration %g ms", sp.layer, sp.ms)
		}
		s.ms[sp.layer] += sp.ms
		covered += sp.ms
	}
	if covered > wallMs*1.001 {
		return split{}, fmt.Errorf("spans cover %g ms of a %g ms pass: they overlap", covered, wallMs)
	}
	for layer, ms := range s.ms {
		s.share[layer] = ms / wallMs
	}
	s.coverage = covered / wallMs
	return s, nil
}
