package stats

// Streaming accumulators for the trial-grained sweep core. A Stream is
// the single-pass, zero-allocation counterpart of Summarize: the sweep
// engine folds one observation per trial into it instead of buffering
// per-trial slices, so per-trial statistics cost O(1) memory no matter
// how many trials a cell runs. P2Quantile adds fixed-quantile estimation
// in O(1) space (the P² algorithm), for summarizers that need medians or
// tail points over millions of records.

import "math"

// Stream is a single-pass accumulator: count, Welford mean/variance,
// min, and max. The zero value is ready to use; Add never allocates, so
// a warm trial loop folding observations into pre-owned Streams stays
// allocation-free. Stream is a value type — copy it, embed it in arrays,
// Merge partial results from parallel workers.
//
// Non-finite observations are skipped and counted (see Nonfinite),
// matching Summarize and the sweep engine's metric accounting: one NaN
// trial marks the stream instead of silently poisoning the moments of
// every trial after it.
type Stream struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
	nonfinite  int64
}

// Add folds one observation into the stream. NaN and ±Inf are not
// folded; they increment the Nonfinite count instead.
func (s *Stream) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.nonfinite++
		return
	}
	s.n++
	if s.n == 1 {
		s.mean, s.minV, s.maxV = x, x, x
		s.m2 = 0
		return
	}
	// Welford's update: numerically stable single-pass moments.
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if x < s.minV {
		s.minV = x
	}
	if x > s.maxV {
		s.maxV = x
	}
}

// N returns the number of finite observations folded in.
func (s Stream) N() int64 { return s.n }

// Nonfinite returns how many NaN/±Inf observations were skipped.
func (s Stream) Nonfinite() int64 { return s.nonfinite }

// Mean returns the running mean (0 for an empty stream).
func (s Stream) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for n < 2).
func (s Stream) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation (0 for n < 2).
func (s Stream) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 for an empty stream).
func (s Stream) Min() float64 { return s.minV }

// Max returns the largest observation (0 for an empty stream).
func (s Stream) Max() float64 { return s.maxV }

// StdErr returns the standard error of the mean (0 for n < 2).
func (s Stream) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// Reset empties the stream for reuse without releasing anything.
func (s *Stream) Reset() { *s = Stream{} }

// Merge folds another stream's observations into s (Chan et al.'s
// parallel moments combination), as if every observation of o had been
// Added to s. Order of observations does not affect the result beyond
// floating-point rounding.
func (s *Stream) Merge(o Stream) {
	s.nonfinite += o.nonfinite
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		nf := s.nonfinite
		*s = o
		s.nonfinite = nf
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	s.m2 += o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	s.mean += d * float64(o.n) / float64(n)
	s.n = n
	if o.minV < s.minV {
		s.minV = o.minV
	}
	if o.maxV > s.maxV {
		s.maxV = o.maxV
	}
}

// Summary converts the stream to the batch Summary form.
func (s Stream) Summary() Summary {
	return Summary{
		N:         int(s.n),
		Mean:      s.Mean(),
		Var:       s.Var(),
		Std:       s.Std(),
		Min:       s.Min(),
		Max:       s.Max(),
		StdErr:    s.StdErr(),
		Nonfinite: int(s.nonfinite),
	}
}

// P2Quantile estimates a fixed quantile in O(1) space with the P²
// algorithm (Jain & Chlamtac 1985): five markers track the running
// quantile by piecewise-parabolic interpolation, so no sample buffer is
// kept. Use NewP2 to construct; Add never allocates. The estimate is
// exact until five observations arrive and approximate afterwards; for
// a deterministic input order the output is deterministic.
type P2Quantile struct {
	p    float64    // target quantile in (0,1)
	n    int64      // observations seen
	q    [5]float64 // marker heights
	pos  [5]float64 // actual marker positions (1-based)
	want [5]float64 // desired marker positions
	inc  [5]float64 // desired-position increments per observation
}

// NewP2 returns a P² estimator for quantile p ∈ (0,1).
func NewP2(p float64) P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: P2 quantile must be in (0,1)")
	}
	return P2Quantile{
		p:    p,
		want: [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5},
		inc:  [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Add folds one observation into the estimator.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		// Insertion-sort the first five observations into the markers.
		i := int(e.n)
		e.q[i] = x
		e.n++
		for j := i; j > 0 && e.q[j-1] > e.q[j]; j-- {
			e.q[j-1], e.q[j] = e.q[j], e.q[j-1]
		}
		if e.n == 5 {
			for k := range e.pos {
				e.pos[k] = float64(k + 1)
			}
		}
		return
	}
	e.n++
	// Locate the cell containing x and clamp the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0], k = x, 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4], k = x, 3
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if q := e.parabolic(i, sign); e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic marker-height prediction.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback when the parabolic prediction leaves the cell.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate (exact for n ≤ 5; 0 for an
// empty estimator).
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		// Exact small-sample quantile over the sorted prefix.
		pos := e.p * float64(e.n-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= int(e.n) {
			return e.q[e.n-1]
		}
		return e.q[lo]*(1-frac) + e.q[lo+1]*frac
	}
	return e.q[2]
}
