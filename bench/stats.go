package main

import "sort"

// summary is a sample set reduced to what the benchmark reports: the
// median, the quartiles and the count. With 3–9 samples no tail
// percentile is meaningful, so none is computed.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so spreads
// printed here match the ones the acceptance check computes.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	q := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based index, clamped to the data.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := i*(n+1) - 4*j
		return (v[j-1]*float64(4-rem) + v[j]*float64(rem)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

func median(values []float64) float64 { return summarize(values).Median }
