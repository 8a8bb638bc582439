package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of values
// the way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so spreads computed here agree with the ones a reviewer computes
// from the exported JSON. A single value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sortedCopy(values)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (p in (0,100]).
func percentile(values []float64, p float64) float64 {
	s := sortedCopy(values)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// spread is the interquartile distance as a share of the reported value: the
// run-to-run noise figure bounds are compared against.
func spread(q1, value, q3 float64) float64 {
	if value == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(value)
}
