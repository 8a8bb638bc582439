// Package campaign orchestrates FIdelity's experiment campaigns: the
// Sec. IV validation campaign (software fault models vs. the cycle-level
// golden reference) and the Sec. V large-scale resilience study, including
// the statistics machinery (binomial proportions with Wilson 95% confidence
// intervals) used to size and report them.
package campaign

import (
	"fmt"
	"math"
)

// Proportion is a binomial estimate with its sample size.
type Proportion struct {
	Successes, Trials int
}

// Add records one Bernoulli outcome.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// merge adds q's trials and successes to p: how shard tallies combine.
func (p *Proportion) merge(q Proportion) {
	p.Successes += q.Successes
	p.Trials += q.Trials
}

// Mean returns the point estimate (0 for empty samples).
func (p Proportion) Mean() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at confidence z (1.96 for 95%).
func (p Proportion) Wilson(z float64) (lo, hi float64) {
	n := float64(p.Trials)
	if n == 0 {
		return 0, 1
	}
	phat := p.Mean()
	z2 := z * z
	denom := 1 + z2/n
	center := (phat + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(phat*(1-phat)/n+z2/(4*n*n))
	lo, hi = center-margin, center+margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// HalfWidth returns the 95% Wilson half-width, the paper's "95% confidence
// interval" sizing criterion.
func (p Proportion) HalfWidth() float64 {
	lo, hi := p.Wilson(1.96)
	return (hi - lo) / 2
}

// String renders the estimate with its interval.
func (p Proportion) String() string {
	lo, hi := p.Wilson(1.96)
	return fmt.Sprintf("%.4f [%.4f, %.4f] (n=%d)", p.Mean(), lo, hi, p.Trials)
}

// worstHalfWidth is the largest achievable 95% Wilson half-width at sample
// size n: the interval is widest when the point estimate sits as close to
// 0.5 as n integer successes allow.
func worstHalfWidth(n int) float64 {
	return Proportion{Successes: n / 2, Trials: n}.HalfWidth()
}

// SamplesFor returns the smallest number of Bernoulli samples whose
// worst-case 95% Wilson half-width is at most w.
//
// Earlier versions used the normal-approximation sizing n = z²/(4w²), which
// inverts the *Wald* interval, not the Wilson interval the rest of this
// package reports: the Wilson interval shrinks by an extra z² in the
// effective sample size (half-width z/(2·sqrt(n+z²)) at p = 0.5), so the
// approximation overshoots by about z² ≈ 4 samples at every width and the
// "needed" count never agreed with the HalfWidth the campaign actually
// measured. This version inverts HalfWidth exactly: exponential search for
// an upper bound, binary search for the crossing, then a short backward scan
// to absorb the odd/even wiggle of the achievable worst case (at odd n the
// estimate closest to 0.5 is floor(n/2)/n, so worstHalfWidth is not quite
// monotone step to step).
func SamplesFor(w float64) int {
	if w <= 0 {
		return math.MaxInt32
	}
	hi := 1
	for worstHalfWidth(hi) > w {
		if hi >= math.MaxInt32/2 {
			return math.MaxInt32
		}
		hi *= 2
	}
	lo := hi / 2 // worstHalfWidth(lo) > w (or lo == 0)
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if worstHalfWidth(mid) <= w {
			hi = mid
		} else {
			lo = mid
		}
	}
	for hi > 1 && worstHalfWidth(hi-1) <= w {
		hi--
	}
	return hi
}
