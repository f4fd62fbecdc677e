package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: fewer, and a handful of slow requests set its value.
const minBeyond = 10

func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

// best returns the value of the least disturbed block: the highest
// rate, or the lowest time. Disturbance on a shared machine only ever
// slows a block down, and on the reference box it lasts longer than one
// block, so the median block is a disturbed one more often than not:
// between runs the best of K blocks steadies as K grows and the median
// of K does not (README.md has the figures).
func best(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	if higherIsBetter {
		return slices.Max(v)
	}
	return slices.Min(v)
}

// median returns the middle value, or the mean of the two middle ones.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := sortedCopy(v)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) by nearest rank,
// and an error when fewer than minBeyond samples lie beyond it.
func percentile(v []float64, p float64) (float64, error) {
	c := sortedCopy(v)
	i := int(p / 100 * float64(len(c)))
	if beyond := len(c) - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", p, len(c), max(beyond, 0), minBeyond)
	}
	return c[i], nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// what the driver uses to judge the spread between runs.
func quartiles(v []float64) (q1, q3 float64) {
	c := sortedCopy(v)
	m := len(c)
	if m < 2 {
		return c[0], c[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / 1e6
	}
	return out
}
