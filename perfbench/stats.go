package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, and 0 when den is 0: a layer that did no work (a
// cache never built, a pool that never ran) reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// shares turns per-layer profile sample counts into fractions of all
// samples. The fractions of the named layers need not sum to 1:
// samples in unnamed packages count in the total only.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	out := make(map[string]float64, len(counts))
	for layer, c := range counts {
		out[layer] = ratio(float64(c), float64(total))
	}
	return out
}

// logErr is the mean |ln(measured/paper)| over paired cells; cells
// with a non-positive value on either side are skipped. The second
// result is the number of cells that entered the mean.
func logErr(measured, paper []float64) (float64, int) {
	var sum float64
	n := 0
	for i := range paper {
		if i >= len(measured) || measured[i] <= 0 || paper[i] <= 0 {
			continue
		}
		sum += math.Abs(math.Log(measured[i] / paper[i]))
		n++
	}
	return ratio(sum, float64(n)), n
}
