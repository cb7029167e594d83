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

// VardiConfig tunes Vardi's second-moment estimator (§4.2.2).
type VardiConfig struct {
	// SigmaInv2 is σ⁻² ∈ [0, 1]: the weight on the covariance moment-
	// matching conditions relative to the first moments. 1 expresses full
	// faith in the Poisson assumption; 0 ignores second moments entirely.
	SigmaInv2 float64
}

// DefaultVardiConfig mirrors the paper's Table 1 setting σ⁻² = 0.01.
func DefaultVardiConfig() VardiConfig {
	return VardiConfig{SigmaInv2: 0.01}
}

// Vardi estimates the mean traffic matrix λ from a time series of link-load
// vectors by moment matching under the Poisson assumption: it solves
//
//	minimize ‖R·λ − t̂‖² + σ⁻²·‖R·diag(λ)·Rᵀ − Σ̂‖²   s.t. λ >= 0
//
// where t̂ and Σ̂ are the sample mean and covariance of the loads. The
// covariance conditions contribute one linear equation per unordered link
// pair; the stacked system is solved as a sparse non-negative least-squares
// problem. Following the paper (after [22]) a least-squares fit replaces
// Vardi's original EM on Kullback–Leibler moment distances, because sample
// moments may be negative.
//
// opt.X0 warm-starts the stacked solve (nil spreads the total traffic
// uniformly over the demands); the moment system is solved to a unique
// least-norm fixed point regardless of the start, so a warm start from the
// previous window's estimate only cuts the iteration count. The default
// budget is 30000 iterations at tolerance 1e-9, adequate for the American
// network. The moment assembly (transpose traversal, row indexing, stacked
// system) and the stacked operator's norm are cached in the workspace,
// and the sample moments, right-hand side and solver buffers are drawn
// from it; only the returned estimate is freshly allocated.
func Vardi(rt *topology.Routing, loads []linalg.Vector, cfg VardiConfig, opt SolveOptions) (linalg.Vector, int, error) {
	ws, maxIter, tol := opt.budget(vardiMaxIter)
	if len(loads) < 2 {
		return nil, 0, fmt.Errorf("core: Vardi needs a time series, got %d samples", len(loads))
	}
	l := rt.R.Rows()
	p := rt.R.Cols()
	for i, t := range loads {
		if len(t) != l {
			return nil, 0, fmt.Errorf("core: Vardi sample %d has %d loads, want %d", i, len(t), l)
		}
		if j := nonFinite(t); j >= 0 {
			return nil, 0, fmt.Errorf("core: Vardi sample %d load %d is %v", i, j, t[j])
		}
	}
	x0 := opt.X0
	if x0 != nil && len(x0) != p {
		return nil, 0, fmt.Errorf("core: Vardi warm start has %d demands, want %d", len(x0), p)
	}
	tHat := stats.MeanVectorInto(linalg.Grow(&ws.tHat, l), loads)
	if ws.cov == nil || ws.cov.Rows != l || ws.cov.Cols != l {
		ws.cov = linalg.NewMatrix(l, l)
	}
	cov := stats.CovarianceMatrixInto(ws.cov, linalg.Grow(&ws.covMean, l), linalg.Grow(&ws.covD, l), loads)

	w := 0.0
	if cfg.SigmaInv2 > 0 {
		w = math.Sqrt(cfg.SigmaInv2)
	}
	asm := ws.vardiFor(rt.R, w)
	rhs := linalg.Grow(&ws.rhs, l+len(asm.keys))
	copy(rhs[:l], tHat)
	for row, key := range asm.keys {
		rhs[l+row] = w * cov.At(key[0], key[1])
	}
	if x0 == nil {
		// Neutral start: total traffic spread uniformly over the demands.
		x0 = linalg.Grow(&ws.x0, p)
		x0.Fill(tHat.Sum() / float64(l) / float64(p) * float64(l))
	}
	lam, res := solver.LeastSquaresNonneg(&ws.sw, asm.stacked, rhs, nil, 0, x0, maxIter, tol)
	if !lam.AllFinite() {
		return nil, 0, fmt.Errorf("core: Vardi produced non-finite estimate (%d iters)", res.Iterations)
	}
	return lam, res.Iterations, nil
}

// vardiAssembly is the per-(matrix, weight) part of Vardi's moment system:
// everything except the right-hand side, which depends on the window's
// sample moments and is rebuilt per solve.
type vardiAssembly struct {
	r       *sparse.Matrix // the routing matrix it was built from
	w       float64        // the moment weight √σ⁻²
	keys    [][2]int       // stacked row -> unordered link pair, first-use order
	stacked *sparse.Matrix // [R; w·second], the solve operator
}

// buildVardiAssembly assembles the window-independent part of Vardi's
// stacked moment system for routing matrix r and weight w.
//
// Second-moment rows: for each unordered link pair (i <= j), the model
// says Σ_p R_ip·R_jp·λ_p = Σ̂_ij. A pair p contributes to row (i, j) only
// if its path crosses both links, so we enumerate per-demand link sets —
// read off the transposed routing matrix in O(nnz) rather than by an
// O(L·P) dense scan, which is what keeps assembly sub-second at 100+
// PoPs. The transpose also carries the entry values, so fractional (ECMP)
// routing matrices get their correct R_ip·R_jp coefficients; on 0/1
// single-path matrices the products are exactly 1, identical to the
// classical assembly. Row indices are assigned in the same first-use order
// a dense scan would produce, so the stacked system is bit-identical to
// the classical assembly on 0/1 matrices.
func buildVardiAssembly(r *sparse.Matrix, w float64) *vardiAssembly {
	p := r.Cols()
	rT := r.T() // p×l: row pair -> (link, fraction) in ascending link order
	total := 0
	for pair := 0; pair < p; pair++ {
		k := rT.RowNNZ(pair)
		total += k * (k + 1) / 2
	}
	momentRow := make(map[[2]int]int, total/4) // (i,j) -> stacked row index
	next := 0
	type entry struct {
		row, pair int
		coeff     float64
	}
	entries := make([]entry, 0, total)
	var links []int
	var vals []float64
	for pair := 0; pair < p; pair++ {
		links = links[:0]
		vals = vals[:0]
		rT.Row(pair, func(cc int, v float64) {
			links = append(links, cc)
			vals = append(vals, v)
		})
		for a := 0; a < len(links); a++ {
			for cc := a; cc < len(links); cc++ {
				key := [2]int{links[a], links[cc]}
				row, ok := momentRow[key]
				if !ok {
					row = next
					momentRow[key] = row
					next++
				}
				entries = append(entries, entry{row, pair, vals[a] * vals[cc]})
			}
		}
	}
	keys := make([][2]int, next)
	for key, row := range momentRow {
		keys[row] = key
	}
	b := sparse.NewBuilder(next, p)
	b.Grow(len(entries))
	for _, e := range entries {
		b.Add(e.row, e.pair, e.coeff)
	}
	second := b.Build()
	return &vardiAssembly{r: r, w: w, keys: keys, stacked: sparse.VStack(r, second.Scale(w))}
}
