package solver

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// TestFISTAWarmLoopAllocFree pins the workspace contract on the
// iteration loop itself: once a Workspace has sized its momentum,
// gradient and previous-iterate buffers (first call), re-solving with
// the same workspace allocates nothing — the steady-state cost of a
// streaming re-solve is pure arithmetic.
func TestFISTAWarmLoopAllocFree(t *testing.T) {
	const n = 64
	c := linalg.NewVector(n)
	for i := range c {
		c[i] = float64(i%7) + 0.5
	}
	grad := func(dst, x linalg.Vector) {
		for i := range dst {
			dst[i] = 2 * (x[i] - c[i])
		}
	}
	project := func(v linalg.Vector) { v.ClampNonNegative() }
	ws := &Workspace{}
	x := linalg.NewVector(n)
	FISTA(ws, x, grad, 2, project, 30, 0) // size the buffers
	allocs := testing.AllocsPerRun(20, func() {
		x.Zero()
		FISTA(ws, x, grad, 2, project, 30, 0)
	})
	if allocs != 0 {
		t.Errorf("warm FISTA allocated %.0f times per solve, want 0", allocs)
	}
}

// TestLeastSquaresNonnegIterationsDontAllocate separates the fixed
// per-solve cost (the returned estimate is always a fresh clone, plus
// the gradient closure) from the iteration loop: a warm re-solve must
// allocate the same small constant whether it runs 5 iterations or 200,
// proving the loop itself draws everything from the workspace and the
// operator norm comes from the cache rather than a fresh power method.
func TestLeastSquaresNonnegIterationsDontAllocate(t *testing.T) {
	bd := sparse.NewBuilder(12, 8)
	for r := 0; r < 12; r++ {
		for c := r % 2; c < 8; c += 2 {
			bd.Add(r, c, float64((r*3+c)%5)+1)
		}
	}
	a := bd.Build()
	b := linalg.NewVector(a.Rows())
	for i := range b {
		b[i] = float64(i%4) + 1
	}
	x0 := linalg.NewVector(a.Cols())
	ws := &Workspace{}
	LeastSquaresNonneg(ws, a, b, nil, 0, x0, 200, 0) // warm buffers + norm cache
	measure := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			LeastSquaresNonneg(ws, a, b, nil, 0, x0, iters, 0)
		})
	}
	short, long := measure(5), measure(200)
	if short != long {
		t.Errorf("warm re-solve allocations scale with iterations: %v at 5 iters vs %v at 200", short, long)
	}
	if long > 8 {
		t.Errorf("warm re-solve fixed overhead is %.0f allocations, want a small constant (<= 8)", long)
	}
}
