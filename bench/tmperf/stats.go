package main

import (
	"context"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile
// for the percentile to be supported by the data.
const minTail = 10

// Dist collects samples of one quantity. The zero value is empty and
// ready to use.
type Dist struct {
	xs     []float64
	sorted bool
}

// Add records one sample.
func (d *Dist) Add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// Pct is a nearest-rank percentile together with the sample count it
// rests on, so a report can say how much data stands behind it.
type Pct struct {
	Value  float64 // 0 when there are no samples
	N      int     // samples
	Beyond int     // samples ranked strictly above the reported one
}

// Supported reports whether at least minTail samples lie beyond the
// reported rank, the rule for quoting a tail percentile.
func (p Pct) Supported() bool { return p.Beyond >= minTail }

// Pct returns the nearest-rank p-th percentile: the smallest sample with
// at least p% of all samples at or below it.
func (d *Dist) Pct(p float64) Pct {
	n := len(d.xs)
	if n == 0 {
		return Pct{}
	}
	d.sort()
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return Pct{Value: d.xs[rank-1], N: n, Beyond: n - rank}
}

// Mean is the arithmetic mean, 0 without samples.
func (d *Dist) Mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs by the method of Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so that spreads computed here agree
// with that tool. One sample is its own quartiles; none gives NaNs.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// openLoop drives operations on an open-loop schedule: operation k is
// due at start + k·every whatever happened to the ones before it, starts
// at its due time or, when its predecessor overran that, at once. Each
// operation is handed its due time so it can time itself from it, which
// charges a stall to every operation it delayed. now and sleep are the
// clock: the real one, or a fake in tests.
type openLoop struct {
	start time.Time
	every time.Duration
	now   func() time.Time
	// sleep waits d or until ctx is done, reporting whether it waited
	// the whole time.
	sleep func(ctx context.Context, d time.Duration) bool
}

func realLoop(start time.Time, every time.Duration) openLoop {
	return openLoop{start: start, every: every, now: time.Now, sleep: sleepCtx}
}

func (l openLoop) due(k int) time.Time { return l.start.Add(time.Duration(k) * l.every) }

// run calls op for k = 0, 1, ... until ctx is done or op returns false.
// started is when op k actually began; started − due is its lateness.
func (l openLoop) run(ctx context.Context, op func(k int, due, started time.Time) bool) {
	for k := 0; ctx.Err() == nil; k++ {
		due := l.due(k)
		if d := due.Sub(l.now()); d > 0 && !l.sleep(ctx, d) {
			return
		}
		if !op(k, due, l.now()) {
			return
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
