// Package solver provides the mathematical-programming building blocks
// behind the estimation methods of the paper's §4: a two-phase primal
// simplex LP solver with warm starting (the worst-case bound programs of
// §4.3.1), accelerated projected gradient (FISTA) for non-negative
// least squares (Vardi's moment systems, §4.2.2, and the Bayesian
// estimator of eq. 7) and for the constant-fanout problem of §4.2.4, a
// projected-gradient solver for entropy-regularized objectives (eq. 6),
// Euclidean projection onto the probability simplex (the per-source
// fanout constraints), and Kruithof/Krupp iterative proportional fitting
// (§4.2.1).
//
// All solvers are deterministic and depend only on the standard library.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrInfeasible is returned when an LP has no feasible point.
var ErrInfeasible = errors.New("solver: linear program is infeasible")

// ErrUnbounded is returned when an LP objective is unbounded over the
// feasible set.
var ErrUnbounded = errors.New("solver: linear program is unbounded")

// ErrIterations is returned when an iterative solver hits its iteration
// budget before reaching its convergence tolerance.
var ErrIterations = errors.New("solver: iteration limit reached")

const lpTol = 1e-9

// LP solves linear programs over the standard-form feasible set
//
//	{ x >= 0 : A·x = b }.
//
// Construction runs simplex phase 1 once; subsequent Minimize/Maximize calls
// re-optimize from the current basis, which makes sweeps of many objectives
// over one feasible set (the worst-case-bound computation solves 2·P of
// them) dramatically cheaper than solving each LP cold.
type LP struct {
	m, n    int            // active rows, structural columns
	tab     *linalg.Matrix // m × (n+nArt+1) tableau: B⁻¹A | B⁻¹b
	basis   []int          // basis[i] = structural column basic in row i, or artificial (>= n)
	inBasis []bool         // column j currently basic
	nArt    int            // number of artificial columns (phase 1 only)
	rowsOff []bool         // redundant rows discovered in phase 1
	pivots  int            // cumulative pivot count (Bounds.Pivots)
	price   linalg.Vector  // scratch: c_Bᵀ·B⁻¹A for all columns
}

// NewLP builds the feasible set {x >= 0 : A x = b} and finds an initial
// basic feasible solution via phase-1 simplex. Redundant equality rows are
// detected and deactivated. Returns ErrInfeasible if the set is empty.
func NewLP(a *linalg.Matrix, b linalg.Vector) (*LP, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("solver: LP shape mismatch: %d rows vs %d rhs", a.Rows, len(b))
	}
	m, n := a.Rows, a.Cols
	lp := &LP{m: m, n: n, nArt: m, rowsOff: make([]bool, m)}
	// Tableau columns: n structural, m artificial, 1 rhs.
	lp.tab = linalg.NewMatrix(m, n+m+1)
	lp.basis = make([]int, m)
	lp.inBasis = make([]bool, n+m)
	lp.price = linalg.NewVector(n + m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if b[i] < 0 {
			sign = -1
		}
		row := lp.tab.Row(i)
		for j := 0; j < n; j++ {
			row[j] = sign * a.At(i, j)
		}
		row[n+i] = 1
		row[n+m] = sign * b[i]
		lp.basis[i] = n + i // artificial basic
		lp.inBasis[n+i] = true
	}
	if err := lp.phase1(); err != nil {
		return nil, err
	}
	return lp, nil
}

// rhs returns the current right-hand-side (basic variable values) column
// index.
func (lp *LP) rhsCol() int { return lp.n + lp.nArt }

// phase1 minimizes the sum of artificials and then eliminates them.
func (lp *LP) phase1() error {
	cost := make(linalg.Vector, lp.n+lp.nArt)
	for j := lp.n; j < lp.n+lp.nArt; j++ {
		cost[j] = 1
	}
	if _, err := lp.optimize(cost, true); err != nil {
		if errors.Is(err, ErrUnbounded) {
			// Phase-1 objective is bounded below by 0; cannot happen.
			return fmt.Errorf("solver: internal: unbounded phase 1: %w", err)
		}
		return err
	}
	// Feasibility check: all artificials must be zero.
	rhs := lp.rhsCol()
	var artSum float64
	for i := 0; i < lp.m; i++ {
		if lp.rowsOff[i] {
			continue
		}
		if lp.basis[i] >= lp.n {
			artSum += lp.tab.At(i, rhs)
		}
	}
	if artSum > 1e-7 {
		return ErrInfeasible
	}
	// Drive remaining (zero-valued) artificials out of the basis.
	for i := 0; i < lp.m; i++ {
		if lp.rowsOff[i] || lp.basis[i] < lp.n {
			continue
		}
		pivoted := false
		row := lp.tab.Row(i)
		for j := 0; j < lp.n; j++ {
			if math.Abs(row[j]) > 1e-8 {
				lp.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant (all structural coefficients zero).
			lp.rowsOff[i] = true
		}
	}
	return nil
}

// pivot makes column col basic in row prow.
func (lp *LP) pivot(prow, col int) {
	lp.pivots++
	ncols := lp.n + lp.nArt + 1
	p := lp.tab.Row(prow)
	inv := 1 / p[col]
	for j := 0; j < ncols; j++ {
		p[j] *= inv
	}
	p[col] = 1 // kill round-off
	for i := 0; i < lp.m; i++ {
		if i == prow || lp.rowsOff[i] {
			continue
		}
		r := lp.tab.Row(i)
		f := r[col]
		if f == 0 {
			continue
		}
		for j := 0; j < ncols; j++ {
			r[j] -= f * p[j]
		}
		r[col] = 0
	}
	lp.inBasis[lp.basis[prow]] = false
	lp.basis[prow] = col
	lp.inBasis[col] = true
}

// optimize runs primal simplex for cost vector c (length n+nArt) from the
// current basis. When allowArt is false, artificial columns are never
// entered. It uses Dantzig pricing with a Bland fallback against cycling.
func (lp *LP) optimize(cost linalg.Vector, allowArt bool) (float64, error) {
	rhs := lp.rhsCol()
	nCandidate := lp.n
	if allowArt {
		nCandidate = lp.n + lp.nArt
	}
	maxIter := 200 * (lp.m + lp.n + 10)
	staleLimit := 2 * (lp.m + 10)
	lastObj := math.Inf(1)
	stale := 0
	for iter := 0; iter < maxIter; iter++ {
		// Price all columns at once: price_j = c_Bᵀ·(B⁻¹A)_j, accumulated
		// row-sequentially for cache friendliness.
		price := lp.price
		price.Zero()
		for i := 0; i < lp.m; i++ {
			if lp.rowsOff[i] {
				continue
			}
			cb := cost[lp.basis[i]]
			if cb == 0 {
				continue
			}
			linalg.Axpy(cb, lp.tab.Row(i)[:len(price)], price)
		}
		// Reduced costs: r_j = c_j − price_j.
		bland := stale > staleLimit
		enter := -1
		best := -lpTol
		for j := 0; j < nCandidate; j++ {
			if lp.inBasis[j] {
				continue
			}
			r := cost[j] - price[j]
			if bland {
				if r < -lpTol {
					enter = j
					break
				}
			} else if r < best {
				best = r
				enter = j
			}
		}
		if enter < 0 {
			return lp.objective(cost), nil
		}
		// Ratio test.
		leave := -1
		var minRatio float64
		for i := 0; i < lp.m; i++ {
			if lp.rowsOff[i] {
				continue
			}
			a := lp.tab.At(i, enter)
			if a <= lpTol {
				continue
			}
			ratio := lp.tab.At(i, rhs) / a
			if leave < 0 || ratio < minRatio-lpTol ||
				(math.Abs(ratio-minRatio) <= lpTol && lp.basis[i] < lp.basis[leave]) {
				leave = i
				minRatio = ratio
			}
		}
		if leave < 0 {
			return 0, ErrUnbounded
		}
		lp.pivot(leave, enter)
		obj := lp.objective(cost)
		if obj < lastObj-1e-12 {
			lastObj = obj
			stale = 0
		} else {
			stale++
		}
	}
	return 0, fmt.Errorf("solver: simplex iteration limit: %w", ErrIterations)
}

func (lp *LP) objective(cost linalg.Vector) float64 {
	rhs := lp.rhsCol()
	var obj float64
	for i := 0; i < lp.m; i++ {
		if lp.rowsOff[i] {
			continue
		}
		obj += cost[lp.basis[i]] * lp.tab.At(i, rhs)
	}
	return obj
}

// Solution returns the current basic feasible solution (length n).
func (lp *LP) Solution() linalg.Vector {
	x := linalg.NewVector(lp.n)
	rhs := lp.rhsCol()
	for i := 0; i < lp.m; i++ {
		if lp.rowsOff[i] {
			continue
		}
		if j := lp.basis[i]; j < lp.n {
			if v := lp.tab.At(i, rhs); v > 0 {
				x[j] = v
			}
		}
	}
	return x
}

// Pivots returns the cumulative number of simplex pivots performed,
// including phase 1. Useful for measuring warm-start savings.
func (lp *LP) Pivots() int { return lp.pivots }

// Minimize re-optimizes min cᵀx over the feasible set from the current
// basis and returns the optimal point and value.
func (lp *LP) Minimize(c linalg.Vector) (linalg.Vector, float64, error) {
	if len(c) != lp.n {
		return nil, 0, fmt.Errorf("solver: Minimize cost length %d, want %d", len(c), lp.n)
	}
	// Artificial columns get zero cost; they can never re-enter the basis
	// because optimize is called with allowArt=false, and any artificial
	// still basic sits at value zero on a redundant-but-active row.
	cost := make(linalg.Vector, lp.n+lp.nArt)
	copy(cost, c)
	obj, err := lp.optimize(cost, false)
	if err != nil {
		return nil, 0, err
	}
	return lp.Solution(), obj, nil
}

// Maximize re-optimizes max cᵀx over the feasible set from the current
// basis and returns the optimal point and value.
func (lp *LP) Maximize(c linalg.Vector) (linalg.Vector, float64, error) {
	neg := make(linalg.Vector, len(c))
	for i, x := range c {
		neg[i] = -x
	}
	x, obj, err := lp.Minimize(neg)
	return x, -obj, err
}
