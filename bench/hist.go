package main

import (
	"math"
	"math/bits"
)

// hist is a fixed log-bucket histogram of nanosecond durations: 32
// sub-buckets per power of two (≈ 2 % resolution, percentiles interpolate
// inside a bucket), so a run of any length costs 16 KiB and no per-sample
// slice. It is not safe for concurrent use; each goroutine owns one and the
// owner merges them after the run.
type hist struct {
	buckets [64 * histSub]uint64
	n       uint64
	sum     float64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
)

// histIndex maps v to its bucket: values below histSub get one bucket each,
// larger ones are indexed by their octave and the histSubBits bits below
// the leading one.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	oct := bits.Len64(v) - 1 - histSubBits // ≥ 0
	return (oct+1)*histSub + int(v>>uint(oct))&(histSub-1)
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	oct := i/histSub - 1
	return math.Ldexp(float64(histSub+i%histSub), oct)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating linearly inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return histLower(len(h.buckets) - 1)
}
