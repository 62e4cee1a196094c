package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile for it to
// be reported as a measurement: fewer, and one host stall sets the value.
const tailSamples = 10

// ladder is the percentiles the generator reports, lowest first.
var ladder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// rankOf is the 0-based nearest-rank index of the q-quantile in n sorted
// samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supported reports whether the q-quantile of n samples has at least
// tailSamples samples beyond it.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rankOf(n, q) >= tailSamples
}

// highestSupported returns the highest percentile of the ladder that n
// samples support, or 0 when even the median has too few beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// sample is a set of measurements; quantile sorts it in place once.
type sample struct {
	v      []float64
	sorted bool
}

func (s *sample) add(x float64) { s.v = append(s.v, x); s.sorted = false }

func (s *sample) n() int { return len(s.v) }

// quantile returns the nearest-rank q-quantile, 0 for an empty sample.
func (s *sample) quantile(q float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
	return s.v[rankOf(len(s.v), q)]
}

// median is the conventional median (the mean of the middle two for an
// even count), 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the steadiness figure the
// benchmark's driver computes over ten runs. 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // beyond [0, 4] at the ends: extrapolates, as Python does
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return ratio(quartile(3)-quartile(1), median(v))
}

// onset is one partition cut as the fault goroutine saw it: begun just
// before the first blocklist was posted, applied once the last one
// returned. Both are wall-clock microseconds.
type onset struct {
	begun, applied int64
}

// caughtBy reports whether a transaction due at dueMicro and decided at
// decidedMicro was in flight at the onset: it was due before the cut was
// fully in place and still undecided when the cut began.
func (o onset) caughtBy(dueMicro, decidedMicro int64) bool {
	return dueMicro < o.applied && decidedMicro > o.begun
}

// caught reports whether any onset caught the transaction.
func caught(onsets []onset, dueMicro, decidedMicro int64) bool {
	for _, o := range onsets {
		if o.caughtBy(dueMicro, decidedMicro) {
			return true
		}
	}
	return false
}
