package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// residualMatrix draws a routing-like CSR matrix: some rows empty, the
// rest holding 0/1 path entries, fractional ECMP split weights and
// (in every third row) arbitrary reals.
func residualMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	weights := []float64{1, 1, 1, 0.5, 1.0 / 3, 0.25, 2.0 / 3, 0.125}
	b := NewBuilder(rows, cols)
	for r := 0; r < rows; r++ {
		if rng.Intn(5) == 0 {
			continue // empty row
		}
		for c := 0; c < cols; c++ {
			if rng.Float64() >= 0.3 {
				continue
			}
			v := weights[rng.Intn(len(weights))]
			if r%3 == 2 {
				v = rng.NormFloat64()
			}
			b.Add(r, c, v)
		}
	}
	return b.Build()
}

// sameBits reports whether a and b have identical bits, counting any two
// NaNs as equal: which operand's payload an IEEE add propagates depends on
// the operand order, which the compiler may pick for a commutative add.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// hostile returns v, or with probability 1/16 one of ±0, NaN and ±Inf.
func hostile(rng *rand.Rand, v float64) float64 {
	if rng.Intn(16) != 0 {
		return v
	}
	return []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(5)]
}

// TestResidualGradMatchesThreePass holds ResidualGrad to MulVec →
// linalg.Sub → MulVecT bit for bit, up to NaN payloads: on random
// matrices with empty rows and fractional weights, with rows whose
// residual is exactly zero (b copied from m·x) or −0, and — in every
// other trial — with ±0, NaN and ±Inf sprinkled over x and b.
func TestResidualGradMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := residualMatrix(rng, rows, cols)
		hostileTrial := trial%2 == 1
		x := linalg.NewVector(cols)
		for i := range x {
			x[i] = rng.ExpFloat64()
			if hostileTrial {
				x[i] = hostile(rng, x[i])
			}
		}
		ax := m.MulVec(nil, x)
		b := linalg.NewVector(rows)
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = ax[i] // residual exactly zero
			case 1:
				b[i] = math.Copysign(0, -1)
			default:
				b[i] = rng.ExpFloat64()
			}
			if hostileTrial {
				b[i] = hostile(rng, b[i])
			}
		}
		wantR := linalg.Sub(linalg.NewVector(rows), ax, b)
		wantG := m.MulVecT(nil, wantR)
		r, g := linalg.NewVector(rows), linalg.NewVector(cols)
		for i := range g {
			g[i] = math.NaN() // stale contents must not leak through
		}
		m.ResidualGrad(r, g, x, b)
		for i := range r {
			if !sameBits(r[i], wantR[i]) {
				t.Fatalf("trial %d: r[%d] = %v, three-pass %v", trial, i, r[i], wantR[i])
			}
		}
		for i := range g {
			if !sameBits(g[i], wantG[i]) {
				t.Fatalf("trial %d: g[%d] = %v, three-pass %v", trial, i, g[i], wantG[i])
			}
		}
	}
}

func TestResidualGradShapePanics(t *testing.T) {
	m := residualMatrix(rand.New(rand.NewSource(1)), 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("mis-sized gradient did not panic")
		}
	}()
	m.ResidualGrad(linalg.NewVector(3), linalg.NewVector(3), linalg.NewVector(4), linalg.NewVector(3))
}
