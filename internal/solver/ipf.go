package solver

import (
	"errors"
	"math"

	"repro/internal/linalg"
)

// IPFResult reports the outcome of an iterative-proportional-fitting run.
type IPFResult struct {
	Iterations int
	Converged  bool
	MaxError   float64 // largest relative constraint violation at exit
}

// KruithofBalance implements Kruithof's classical 1937 projection (also
// known as RAS or biproportional fitting): starting from a prior matrix it
// alternately rescales rows and columns until the row sums match rowSums and
// the column sums match colSums. The marginals must have (approximately)
// equal totals; the prior must be non-negative with at least one positive
// entry in every row and column whose target marginal is positive.
//
// The iterate converges to the matrix that minimizes the KL divergence from
// the prior subject to the marginal constraints (Krupp 1979).
func KruithofBalance(prior *linalg.Matrix, rowSums, colSums linalg.Vector, maxIter int, tol float64) (*linalg.Matrix, IPFResult, error) {
	n, m := prior.Rows, prior.Cols
	if len(rowSums) != n || len(colSums) != m {
		return nil, IPFResult{}, errors.New("solver: KruithofBalance marginal size mismatch")
	}
	x := prior.Clone()
	res := IPFResult{}
	for iter := 0; iter < maxIter; iter++ {
		// Row scaling.
		for i := 0; i < n; i++ {
			row := x.Row(i)
			s := row.Sum()
			switch {
			case s > 0:
				f := rowSums[i] / s
				row.Scale(f)
			case rowSums[i] > tol:
				return nil, res, errors.New("solver: KruithofBalance prior has empty row with positive target")
			}
		}
		// Column scaling.
		for j := 0; j < m; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += x.At(i, j)
			}
			switch {
			case s > 0:
				f := colSums[j] / s
				for i := 0; i < n; i++ {
					x.Set(i, j, x.At(i, j)*f)
				}
			case colSums[j] > tol:
				return nil, res, errors.New("solver: KruithofBalance prior has empty column with positive target")
			}
		}
		res.Iterations = iter + 1
		// Check convergence on row sums (columns are exact right after the
		// column scaling step).
		res.MaxError = 0
		for i := 0; i < n; i++ {
			s := x.Row(i).Sum()
			denom := math.Max(rowSums[i], 1e-30)
			if e := math.Abs(s-rowSums[i]) / denom; e > res.MaxError {
				res.MaxError = e
			}
		}
		if res.MaxError <= tol {
			res.Converged = true
			break
		}
	}
	return x, res, nil
}
