package solver

import (
	"math"

	"repro/internal/linalg"
)

// NNLS solves the non-negative least-squares problem
//
//	minimize ‖A·x − b‖₂²  subject to  x >= 0
//
// with the active-set algorithm of Lawson & Hanson (1974). The returned
// solution satisfies the KKT conditions to within tol: x >= 0, the gradient
// w = Aᵀ(b − A·x) has w_j <= tol on the zero set and |w_j| <= tol on the
// positive set.
func NNLS(a *linalg.Matrix, b linalg.Vector) linalg.Vector {
	n := a.Cols
	x := linalg.NewVector(n)
	passive := make([]bool, n) // true: in passive (positive) set
	w := linalg.NewVector(n)   // gradient Aᵀ(b − A·x)
	resid := b.Clone()         // b − A·x

	var bMax float64 // ‖b‖∞
	for _, v := range b {
		bMax = math.Max(bMax, math.Abs(v))
	}
	tol := 1e-10 * (1 + a.MaxAbs()) * (1 + bMax)
	maxOuter := 3 * n
	for outer := 0; outer < maxOuter; outer++ {
		a.MulVecT(w, resid)
		// Most-violating zero-set coordinate.
		best, bestJ := tol, -1
		for j := 0; j < n; j++ {
			if !passive[j] && w[j] > best {
				best, bestJ = w[j], j
			}
		}
		if bestJ < 0 {
			break // KKT satisfied
		}
		passive[bestJ] = true

		// Inner loop: solve unconstrained LS on the passive set; walk back
		// if any passive coordinate would go negative.
		for {
			z, cols := lsOnPassive(a, b, passive)
			if len(cols) == 0 {
				break
			}
			minZ := math.Inf(1)
			for _, zi := range z {
				if zi < minZ {
					minZ = zi
				}
			}
			if minZ > 0 {
				x.Zero()
				for i, j := range cols {
					x[j] = z[i]
				}
				break
			}
			// Step toward z only as far as feasibility allows.
			alpha := math.Inf(1)
			for i, j := range cols {
				if z[i] <= 0 {
					if d := x[j] - z[i]; d > 0 {
						if r := x[j] / d; r < alpha {
							alpha = r
						}
					}
				}
			}
			if math.IsInf(alpha, 1) {
				alpha = 0
			}
			for i, j := range cols {
				x[j] += alpha * (z[i] - x[j])
				if x[j] <= tol {
					x[j] = 0
					passive[j] = false
				}
			}
		}
		av := a.MulVec(nil, x)
		linalg.Sub(resid, b, av)
	}
	x.ClampNonNegative()
	return x
}

// lsOnPassive solves the least-squares problem restricted to the passive
// columns, returning the solution and the column indices it corresponds to.
func lsOnPassive(a *linalg.Matrix, b linalg.Vector, passive []bool) (linalg.Vector, []int) {
	var cols []int
	for j, p := range passive {
		if p {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return nil, nil
	}
	sub := linalg.NewMatrix(a.Rows, len(cols))
	for i := 0; i < a.Rows; i++ {
		ri := a.Row(i)
		si := sub.Row(i)
		for k, j := range cols {
			si[k] = ri[j]
		}
	}
	return linalg.SolveLeastSquares(sub, b), cols
}
