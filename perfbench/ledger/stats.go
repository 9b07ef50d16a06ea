// Package ledger holds the benchmark's measurement arithmetic: percentiles
// with a sample-count rule, self time over overlapping child spans, seeded
// open-loop arrival schedules and the golden-report outcome parser. It has no
// knowledge of workloads, so each piece is tested on its own.
package ledger

import (
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie strictly beyond a
// percentile before it is reported: a p99 from 200 samples rests on two
// values and says nothing about the tail.
const MinBeyond = 10

// Quantile is one percentile: its value, the sample count it was taken
// from and how many samples lie beyond it.
type Quantile struct {
	Value  float64
	N      int
	Beyond int
}

// OK reports whether enough samples lie beyond the percentile to report it.
func (q Quantile) OK() bool { return q.Beyond >= MinBeyond }

// Percentile returns the nearest-rank percentile p (0 < p < 100) of xs. xs
// need not be sorted and is not modified. The rank is ceil(p/100 * n), so
// the samples beyond it are the n - rank larger ones.
func Percentile(xs []float64, p float64) Quantile {
	q := Quantile{N: len(xs)}
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	q.Value = s[rank-1]
	q.Beyond = len(s) - rank
	return q
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Max returns the largest value of xs; 0 for an empty slice.
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}
