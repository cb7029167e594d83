package core

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/topology"
)

// FanoutEstimate holds the result of the constant-fanout estimation.
type FanoutEstimate struct {
	// Alpha[p] is the estimated fanout of demand p: the fraction of its
	// source PoP's ingress traffic destined to its destination PoP.
	Alpha linalg.Vector
	// MeanDemand[p] is the estimated average demand over the window:
	// mean_k( te(src(p))[k] · α_p ), clamped at zero.
	MeanDemand linalg.Vector
	// Iterations used by the projected-gradient solve.
	Iterations int
}

// EstimateFanouts solves the paper's constant-fanout problem (§4.2.4, its
// novel method) over a window of link-load measurements:
//
//	minimize Σ_k ‖R·S[k]·α − t[k]‖²
//	subject to Σ_m α_nm = 1 for every source n,  α >= 0
//
// where S[k] = diag(te(src(p))[k]) scales each pair's fanout by its source
// PoP's total ingress traffic during interval k (read off the ingress
// access-link loads). The constraint set is a product of per-source
// simplices; the problem is solved with accelerated projected gradient.
//
// opt.X0 is the starting fanout iterate (nil starts from uniform fanouts).
// The paper's Figs. 4–5 point is precisely that fanouts drift slowly, so
// the previous window's solved alpha is an excellent warm start for the
// next one (internal/stream); the constrained objective's solution set
// does not depend on the start. The per-interval scalings, gradient
// staging, source groups and simplex-projection scratch are drawn from the
// workspace; the returned Alpha and MeanDemand are freshly allocated.
func EstimateFanouts(rt *topology.Routing, loads []linalg.Vector, opt SolveOptions) (*FanoutEstimate, error) {
	ws, maxIter, tol := opt.budget(defaultMaxIter)
	if len(loads) == 0 {
		return nil, fmt.Errorf("core: EstimateFanouts needs at least one sample")
	}
	net := rt.Net
	p := net.NumPairs()
	n := net.NumPoPs()
	k := len(loads)
	if opt.X0 != nil && len(opt.X0) != p {
		return nil, fmt.Errorf("core: fanout warm start has %d entries, want %d", len(opt.X0), p)
	}

	// Per-interval source scalings te(src(p))[k], vectors reused across
	// re-solves (the window length is stable in steady state).
	if cap(ws.scales) >= k {
		ws.scales = ws.scales[:k]
	} else {
		ws.scales = append(ws.scales[:cap(ws.scales)], make([]linalg.Vector, k-cap(ws.scales))...)
	}
	for i, t := range loads {
		if len(t) != rt.R.Rows() {
			return nil, fmt.Errorf("core: sample %d has %d loads, want %d", i, len(t), rt.R.Rows())
		}
		if j := nonFinite(t); j >= 0 {
			return nil, fmt.Errorf("core: EstimateFanouts sample %d load %d is %v", i, j, t[j])
		}
		sc := linalg.Grow(&ws.scales[i], p)
		for pair := 0; pair < p; pair++ {
			src, _ := net.PairFromIndex(pair)
			sc[pair] = t[rt.IngressRow(src)]
		}
	}
	scales := ws.scales
	// Per-source index groups for the simplex projection, rebuilt only
	// when the topology changes.
	if ws.groupsFor != net {
		groups := make([][]int, n)
		for pair := 0; pair < p; pair++ {
			src, _ := net.PairFromIndex(pair)
			groups[src] = append(groups[src], pair)
		}
		ws.groups, ws.groupsFor = groups, net
	}
	groups := ws.groups

	// Gradient of Σ_k ‖R·S_k·α − t_k‖²: Σ_k 2·S_k·Rᵀ·(R·S_k·α − t_k).
	scaled := linalg.Grow(&ws.scaled, p)
	resid := linalg.Grow(&ws.resid, rt.R.Rows())
	back := linalg.Grow(&ws.back, p)
	grad := func(dst, a linalg.Vector) {
		dst.Zero()
		for i := 0; i < k; i++ {
			sc := scales[i]
			for j := range scaled {
				scaled[j] = sc[j] * a[j]
			}
			rt.R.MulVec(resid, scaled)
			linalg.Sub(resid, resid, loads[i])
			rt.R.MulVecT(back, resid)
			for j := range dst {
				dst[j] += 2 * sc[j] * back[j]
			}
		}
	}
	// Lipschitz constant of the summed quadratic: Σ_k ‖R·S_k‖² bounded by
	// ‖R‖²·Σ_k max(S_k)².
	rNorm := ws.sw.OperatorNormSq(rt.R)
	var lip float64
	for i := 0; i < k; i++ {
		mx, _ := scales[i].Max()
		lip += 2 * rNorm * mx * mx
	}
	project := func(a linalg.Vector) {
		for _, g := range groups {
			ws.projectGroupSimplex(a, g)
		}
	}
	var alpha linalg.Vector
	if opt.X0 != nil {
		alpha = opt.X0.Clone()
		project(alpha) // re-project: the caller's iterate may be slightly off the simplex
	} else {
		// Start from uniform fanouts.
		alpha = linalg.NewVector(p)
		alpha.Fill(1 / float64(n-1))
	}
	alpha, res := solver.FISTA(&ws.sw, alpha, grad, lip, project, maxIter, tol)

	// Demand reconstruction: average of S_k·α over the window. A negative
	// ingress load can only come from a measurement error, so the demand
	// it would imply is clamped at zero like every other estimator's.
	mean := linalg.NewVector(p)
	for i := 0; i < k; i++ {
		for j := range mean {
			mean[j] += scales[i][j] * alpha[j]
		}
	}
	mean.Scale(1 / float64(k))
	mean.ClampNonNegative()
	if !alpha.AllFinite() || !mean.AllFinite() {
		return nil, fmt.Errorf("core: EstimateFanouts produced non-finite estimate (%d iters)", res.Iterations)
	}
	return &FanoutEstimate{Alpha: alpha, MeanDemand: mean, Iterations: res.Iterations}, nil
}

// projectGroupSimplex projects the coordinates of a listed in group onto
// the unit simplex, in place, staging them in workspace scratch.
func (ws *Workspace) projectGroupSimplex(a linalg.Vector, group []int) {
	tmp := linalg.Grow(&ws.groupTmp, len(group))
	for i, j := range group {
		tmp[i] = a[j]
	}
	ws.simplexScratch = solver.ProjectSimplexInto(tmp, 1, ws.simplexScratch)
	for i, j := range group {
		a[j] = tmp[i]
	}
}
