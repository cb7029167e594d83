package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/topology"
)

// CaoConfig tunes the Cao et al. estimator.
type CaoConfig struct {
	// Phi and C are the scaling-law constants in Var{s_p} = Phi·λ_p^C.
	// The paper's §5.2.3 fits them from data; Cao et al. treat C as fixed
	// and estimate the rest.
	Phi, C float64
	// SigmaInv2 weights the second-moment equations, as in Vardi.
	SigmaInv2 float64
	// Rounds of the pseudo-EM alternation.
	Rounds  int
	MaxIter int
	Tol     float64
}

// DefaultCaoConfig uses the paper's fitted European scaling constants.
func DefaultCaoConfig() CaoConfig {
	return CaoConfig{Phi: 0.82, C: 1.6, SigmaInv2: 0.01, Rounds: 6, MaxIter: 20000, Tol: 1e-8}
}

// Cao implements (a simplified form of) the time-varying network tomography
// of Cao, Davis, Vander Wiel & Yu (JASA 2000), the generalized-scaling-law
// relative of Vardi's method: demands are modeled as s_p ~ N(λ_p, φ·λ_p^c)
// and λ is found by matching first and second sample moments of the link
// loads. Because the covariance model R·diag(φλ^c)·Rᵀ is nonlinear in λ,
// the estimate is computed by a pseudo-EM alternation (as the authors
// propose for fixed c): given the current λ, the model variances are
// linearized as v_p = φ·λ_p^c, the moment system is solved as a
// non-negative least-squares problem in λ with the variance rows weighted
// by the current linearization point, and the loop repeats.
//
// The paper lists evaluating this method as future work (§6); it is
// included here as an extension.
func Cao(rt *topology.Routing, loads []linalg.Vector, cfg CaoConfig) (linalg.Vector, error) {
	if len(loads) < 2 {
		return nil, fmt.Errorf("core: Cao needs a time series, got %d samples", len(loads))
	}
	if cfg.C <= 0 || cfg.Phi <= 0 {
		return nil, fmt.Errorf("core: Cao needs positive scaling constants, got phi=%v c=%v", cfg.Phi, cfg.C)
	}
	l := rt.R.Rows()
	p := rt.R.Cols()
	tHat := stats.MeanVector(loads)
	cov := stats.CovarianceMatrix(loads)

	// Second-moment structure, reused across rounds: row per unordered link
	// pair (i,j) with support = demands crossing both, each entry carrying
	// the R_ip·R_jp routing coefficient (1 on single-path 0/1 matrices,
	// fractional under ECMP).
	type momentKey = [2]int
	momentRow := map[momentKey]int{}
	next := 0
	var entries []struct {
		row, pair int
		coeff     float64
	}
	// Per-demand link sets and fractions via the transposed routing matrix
	// (O(nnz), not an O(L·P) dense scan — same assembly speedup as Vardi).
	rT := rt.R.T()
	var links []int
	var vals []float64
	for pair := 0; pair < p; pair++ {
		links = links[:0]
		vals = vals[:0]
		rT.Row(pair, func(c int, v float64) {
			links = append(links, c)
			vals = append(vals, v)
		})
		for a := 0; a < len(links); a++ {
			for c := a; c < len(links); c++ {
				key := momentKey{links[a], links[c]}
				row, ok := momentRow[key]
				if !ok {
					row = next
					momentRow[key] = row
					next++
				}
				entries = append(entries, struct {
					row, pair int
					coeff     float64
				}{row, pair, vals[a] * vals[c]})
			}
		}
	}
	rhs2 := linalg.NewVector(next)
	for key, row := range momentRow {
		rhs2[row] = cov.At(key[0], key[1])
	}

	// Initial λ: uniform spread of the mean total.
	lam := linalg.NewVector(p)
	lam.Fill(tHat.Sum() / float64(l) / float64(p) * float64(l))
	w := math.Sqrt(cfg.SigmaInv2)

	// Per-round buffers, allocated once: the builder keeps its entry
	// capacity across Build calls (it truncates rather than releases), and
	// the linearization/right-hand-side vectors are plain overwrites. Only
	// the solved iterate is fresh each round (it becomes the next λ).
	b := sparse.NewBuilder(l+next, p)
	rhs := linalg.NewVector(l + next)
	grad := make([]float64, p)
	vcur := make([]float64, p)
	residRHS := make([]float64, next)
	var ws solver.Workspace
	for round := 0; round < cfg.Rounds; round++ {
		// Linearize: the second-moment row contributes coefficient
		// d v_p / d λ_p = φ·c·λ_p^{c−1} at the current point; the constant
		// part is folded into the right-hand side.
		for li := 0; li < l; li++ {
			rt.R.Row(li, func(cc int, v float64) { b.Add(li, cc, v) })
		}
		copy(rhs[:l], tHat)
		for pair := 0; pair < p; pair++ {
			lp := math.Max(lam[pair], 1e-9)
			vcur[pair] = cfg.Phi * math.Pow(lp, cfg.C)
			grad[pair] = cfg.Phi * cfg.C * math.Pow(lp, cfg.C-1)
		}
		copy(residRHS, rhs2)
		for _, e := range entries {
			b.Add(l+e.row, e.pair, w*e.coeff*grad[e.pair])
			residRHS[e.row] -= e.coeff * (vcur[e.pair] - grad[e.pair]*lam[e.pair])
		}
		for i, v := range residRHS {
			rhs[l+i] = w * v
		}
		sys := b.Build()
		// Each round's linearized system is a new matrix, so the
		// workspace's per-pointer norm cache never matches it.
		nextLam, res := solver.LeastSquaresNonneg(&ws, sys, rhs, nil, 0, lam, cfg.MaxIter, cfg.Tol)
		if !nextLam.AllFinite() {
			return nil, fmt.Errorf("core: Cao diverged at round %d (%d iters)", round, res.Iterations)
		}
		diff := linalg.DiffNorm2(nextLam, lam)
		norm := lam.Norm2() + 1e-30
		lam = nextLam
		if diff/norm < 1e-5 {
			break
		}
	}
	return lam, nil
}
