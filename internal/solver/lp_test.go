package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestLPSimpleMaximize(t *testing.T) {
	// max x1 + x2 s.t. x1 + x2 + s = 4, x1 + 3x2 + s2 = 6 → optimum 4.
	a := fromRows([][]float64{
		{1, 1, 1, 0},
		{1, 3, 0, 1},
	})
	b := linalg.Vector{4, 6}
	lp, err := NewLP(a, b)
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	x, obj, err := lp.Maximize(linalg.Vector{1, 1, 0, 0})
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	if math.Abs(obj-4) > 1e-8 {
		t.Fatalf("obj = %v, want 4", obj)
	}
	if math.Abs(x[0]+x[1]-4) > 1e-8 {
		t.Fatalf("x = %v", x)
	}
}

func TestLPMinimize(t *testing.T) {
	// min x1 + 2x2 s.t. x1 + x2 = 3, x >= 0 → x = (3,0), obj 3.
	a := fromRows([][]float64{{1, 1}})
	lp, err := NewLP(a, linalg.Vector{3})
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	x, obj, err := lp.Minimize(linalg.Vector{1, 2})
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if math.Abs(obj-3) > 1e-8 || math.Abs(x[0]-3) > 1e-8 || math.Abs(x[1]) > 1e-8 {
		t.Fatalf("x=%v obj=%v", x, obj)
	}
}

func TestLPInfeasible(t *testing.T) {
	// x1 = 1 and x1 = 2 simultaneously.
	a := fromRows([][]float64{{1}, {1}})
	if _, err := NewLP(a, linalg.Vector{1, 2}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestLPNegativeRHSFeasible(t *testing.T) {
	// -x1 = -2 → x1 = 2.
	a := fromRows([][]float64{{-1}})
	lp, err := NewLP(a, linalg.Vector{-2})
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	x, _, err := lp.Maximize(linalg.Vector{1})
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-8 {
		t.Fatalf("x = %v", x)
	}
}

func TestLPUnbounded(t *testing.T) {
	// max x2 s.t. x1 - x2 = 0: x can grow without bound.
	a := fromRows([][]float64{{1, -1}})
	lp, err := NewLP(a, linalg.Vector{0})
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	if _, _, err := lp.Maximize(linalg.Vector{0, 1}); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestLPRedundantRows(t *testing.T) {
	// Second row duplicates the first; solver must not declare infeasible.
	a := fromRows([][]float64{
		{1, 1},
		{2, 2},
	})
	lp, err := NewLP(a, linalg.Vector{3, 6})
	if err != nil {
		t.Fatalf("NewLP with redundant rows: %v", err)
	}
	x, obj, err := lp.Maximize(linalg.Vector{1, 0})
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	if math.Abs(obj-3) > 1e-8 {
		t.Fatalf("obj = %v want 3 (x=%v)", obj, x)
	}
}

func TestLPWarmStartConsistency(t *testing.T) {
	// Re-optimizing several objectives over one feasible set must match
	// fresh cold solves.
	rng := rand.New(rand.NewSource(42))
	m, n := 8, 20
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(2)) // 0/1 like a routing matrix
	}
	xFeas := linalg.NewVector(n)
	for i := range xFeas {
		xFeas[i] = rng.Float64()
	}
	b := denseMulVec(a, nil, xFeas)

	warm, err := NewLP(a, b)
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	for trial := 0; trial < 10; trial++ {
		c := linalg.NewVector(n)
		c[rng.Intn(n)] = 1
		_, objWarm, err := warm.Maximize(c)
		if err != nil {
			t.Fatalf("warm Maximize: %v", err)
		}
		cold, err := NewLP(a, b)
		if err != nil {
			t.Fatalf("cold NewLP: %v", err)
		}
		_, objCold, err := cold.Maximize(c)
		if err != nil {
			t.Fatalf("cold Maximize: %v", err)
		}
		if math.Abs(objWarm-objCold) > 1e-6*(1+math.Abs(objCold)) {
			t.Fatalf("trial %d: warm obj %v != cold obj %v", trial, objWarm, objCold)
		}
	}
}

func TestLPSolutionFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 6, 15
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(2))
	}
	xFeas := linalg.NewVector(n)
	for i := range xFeas {
		xFeas[i] = rng.Float64()
	}
	b := denseMulVec(a, nil, xFeas)
	lp, err := NewLP(a, b)
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	c := linalg.NewVector(n)
	c[3] = 1
	x, _, err := lp.Maximize(c)
	if err != nil {
		t.Fatalf("Maximize: %v", err)
	}
	ax := denseMulVec(a, nil, x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-6*(1+b[i]) {
			t.Fatalf("constraint %d violated: %v vs %v", i, ax[i], b[i])
		}
	}
	for j, xi := range x {
		if xi < -1e-9 {
			t.Fatalf("x[%d] = %v negative", j, xi)
		}
	}
}

// Property: the maximum of x_p over {Rx=b, x>=0} is at least the value of
// any known feasible point's coordinate, and bounds are ordered.
func TestLPBoundsSandwichTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		m, n := 5, 12
		a := linalg.NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = float64(rng.Intn(2))
		}
		truth := linalg.NewVector(n)
		for i := range truth {
			truth[i] = rng.Float64() * 10
		}
		b := denseMulVec(a, nil, truth)
		lp, err := NewLP(a, b)
		if err != nil {
			t.Fatalf("NewLP: %v", err)
		}
		for p := 0; p < n; p++ {
			c := linalg.NewVector(n)
			c[p] = 1
			up := math.Inf(1) // a column no constraint touches is unbounded
			if _, v, err := lp.Maximize(c); err == nil {
				up = v
			} else if !errors.Is(err, ErrUnbounded) {
				t.Fatalf("Maximize: %v", err)
			}
			_, lo, err := lp.Minimize(c)
			if err != nil {
				t.Fatalf("Minimize: %v", err)
			}
			if lo > truth[p]+1e-6 || up < truth[p]-1e-6 {
				t.Fatalf("trial %d p=%d: bounds [%v,%v] exclude truth %v", trial, p, lo, up, truth[p])
			}
		}
	}
}

func TestLPDegenerateCycling(t *testing.T) {
	// Beale's classic cycling example (needs anti-cycling to terminate).
	// Optimum is -0.05 at x = (0.04, 0, 1, 0).
	a := fromRows([][]float64{
		{0.25, -60, -0.04, 9, 1, 0, 0},
		{0.5, -90, -0.02, 3, 0, 1, 0},
		{0, 0, 1, 0, 0, 0, 1},
	})
	b := linalg.Vector{0, 0, 1}
	lp, err := NewLP(a, b)
	if err != nil {
		t.Fatalf("NewLP: %v", err)
	}
	c := linalg.Vector{-0.75, 150, -0.02, 6, 0, 0, 0}
	_, obj, err := lp.Minimize(c)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if math.Abs(obj-(-0.05)) > 1e-8 {
		t.Fatalf("Beale optimum = %v, want -0.05", obj)
	}
}

func BenchmarkLPWarmVsCold(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m, n := 30, 90
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(2))
	}
	x := linalg.NewVector(n)
	for i := range x {
		x[i] = rng.Float64()
	}
	rhs := denseMulVec(a, nil, x)
	b.Run("warm", func(b *testing.B) {
		lp, err := NewLP(a, rhs)
		if err != nil {
			b.Fatal(err)
		}
		c := linalg.NewVector(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Zero()
			c[i%n] = 1
			if _, _, err := lp.Maximize(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		c := linalg.NewVector(n)
		for i := 0; i < b.N; i++ {
			lp, err := NewLP(a, rhs)
			if err != nil {
				b.Fatal(err)
			}
			c.Zero()
			c[i%n] = 1
			if _, _, err := lp.Maximize(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
