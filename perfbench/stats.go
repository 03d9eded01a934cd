package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSlices is how many consecutive slices of a run's ops slicedQuantile
// takes the tail of.
const tailSlices = 6

// slicedQuantile cuts the ops, in the order they were sent, into
// tailSlices equal consecutive slices and returns the median of the
// slices' q-quantiles. A few seconds of contention from the host then
// inflate one slice's tail rather than the run's.
func slicedQuantile(byOp map[int]float64, q float64) float64 {
	ops := make([]int, 0, len(byOp))
	for i := range byOp {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	tails := make([]float64, 0, tailSlices)
	for k := 0; k < tailSlices; k++ {
		var xs []float64
		for _, i := range ops[k*len(ops)/tailSlices : (k+1)*len(ops)/tailSlices] {
			xs = append(xs, byOp[i])
		}
		if len(xs) > 0 {
			tails = append(tails, quantile(xs, q))
		}
	}
	return median(tails)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
