package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestPctNearestRankCarriesItsSampleCount(t *testing.T) {
	var d Dist
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i))
	}
	for _, c := range []struct {
		p         float64
		value     float64
		beyond    int
		supported bool
	}{
		{50, 500, 500, true},
		{99, 990, 10, true},
		{99.5, 995, 5, false},
		{100, 1000, 0, false},
	} {
		got := d.Pct(c.p)
		if got.Value != c.value || got.N != 1000 || got.Beyond != c.beyond || got.Supported() != c.supported {
			t.Errorf("p%v = %+v (supported %v), want value %v beyond %d supported %v",
				c.p, got, got.Supported(), c.value, c.beyond, c.supported)
		}
	}
	var few Dist
	for i := 0; i < 999; i++ {
		few.Add(1)
	}
	if few.Pct(99).Supported() {
		t.Errorf("p99 of 999 samples has only %d beyond it, want unsupported", few.Pct(99).Beyond)
	}
	if got := (&Dist{}).Pct(50); got.N != 0 || got.Value != 0 {
		t.Errorf("empty p50 = %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{xs: []float64{1, 2}, q1: 0.75, m: 1.5, q3: 2.25},
		{xs: []float64{3, 1, 2}, q1: 1, m: 2, q3: 3},
		{xs: []float64{1, 2, 3, 4}, q1: 1.25, m: 2.5, q3: 3.75},
		{xs: []float64{7, 1, 3, 9, 5}, q1: 2, m: 5, q3: 8},
		{xs: []float64{2.5, 10, 4, 8, 6, 1, 3.5, 9, 7, 5}, q1: 3.25, m: 5.5, q3: 8.25},
	} {
		q1, m, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if q1, m, q3 := Quartiles([]float64{4}); q1 != 4 || m != 4 || q3 != 4 {
		t.Errorf("one sample: %v %v %v", q1, m, q3)
	}
}

// fakeClock advances only when the loop sleeps or an operation runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) loop(every time.Duration) openLoop {
	return openLoop{
		start: c.now,
		every: every,
		now:   func() time.Time { return c.now },
		sleep: func(_ context.Context, d time.Duration) bool { c.now = c.now.Add(d); return true },
	}
}

func TestOpenLoopChargesAStallToEveryOperationItDelays(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	const every = 10 * time.Millisecond
	var late, latency []time.Duration
	clk.loop(every).run(context.Background(), func(k int, due, started time.Time) bool {
		if k == 1 {
			clk.now = clk.now.Add(35 * time.Millisecond) // op 1 stalls
		}
		late = append(late, started.Sub(due))
		latency = append(latency, clk.now.Sub(due))
		return k < 5
	})
	// Op 1 is due at 10 ms and ends at 45 ms; ops 2–4 are due at 20, 30
	// and 40 ms but cannot start before 45 ms; op 5 is on time again.
	wantLate := []time.Duration{0, 0, 25, 15, 5, 0}
	wantLatency := []time.Duration{0, 35, 25, 15, 5, 0}
	for k := range wantLate {
		if late[k] != wantLate[k]*time.Millisecond || latency[k] != wantLatency[k]*time.Millisecond {
			t.Errorf("op %d: late %v latency %v, want %v and %v", k, late[k], latency[k],
				wantLate[k]*time.Millisecond, wantLatency[k]*time.Millisecond)
		}
	}
}

func TestOpenLoopStopsWithItsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{now: time.Unix(0, 0)}
	n := 0
	clk.loop(time.Millisecond).run(ctx, func(k int, _, _ time.Time) bool {
		n++
		if k == 2 {
			cancel()
		}
		return true
	})
	if n != 3 {
		t.Errorf("ran %d operations after cancelling at the third, want 3", n)
	}
}
