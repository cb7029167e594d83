package core

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// MeasuredInstance returns a new Instance whose routing matrix has one
// extra identity row per directly measured demand, with the measured value
// appended to the loads. This is how §5.3.6 combines tomography with direct
// measurements: a measured demand becomes a hard linear constraint
// s_p = measured[p].
func MeasuredInstance(in *Instance, measured map[int]float64) *Instance {
	extra := sparse.NewBuilder(len(measured), in.NumPairs())
	loads := in.Loads.Clone()
	i := 0
	// Deterministic order for reproducibility.
	for pair := 0; pair < in.NumPairs(); pair++ {
		v, ok := measured[pair]
		if !ok {
			continue
		}
		extra.Add(i, pair, 1)
		loads = append(loads, v)
		i++
	}
	stacked := sparse.VStack(in.Rt.R, extra.Build())
	rt := *in.Rt
	rt.R = stacked
	return &Instance{Rt: &rt, Loads: loads}
}

// SelectionStrategy chooses which demands to measure directly.
type SelectionStrategy int

const (
	// GreedyMRE measures, at each step, the demand whose measurement most
	// reduces the MRE — the paper's exhaustive-search procedure (Fig. 16).
	GreedyMRE SelectionStrategy = iota
	// LargestDemand measures demands in decreasing size order — the
	// practical alternative §5.3.6 discusses (methods rank sizes well, so
	// the largest demands are identifiable without ground truth).
	LargestDemand
)

// DirectMeasurementCurve runs the §5.3.6 experiment: starting from the
// base estimator (entropy with the given prior and regularization), demands
// are measured one at a time according to the strategy, and the MRE over
// the large demands (above threshold) is recorded after each addition.
// Returned curve[i] is the MRE with i demands measured (curve[0] = no
// measurements). The candidate set is restricted to demands above the
// threshold for GreedyMRE — measuring a below-threshold demand cannot
// change the numerator of eq. (8) much, and it keeps the exhaustive search
// at the paper's scale.
func DirectMeasurementCurve(in *Instance, truth linalg.Vector, prior linalg.Vector,
	reg float64, threshold float64, steps int, strategy SelectionStrategy) ([]float64, []int, error) {

	// Warm-started entropy solves: successive problems differ by a single
	// extra constraint, so starting from the previous solution cuts the
	// iteration count dramatically. The solve budget is looser than the
	// headline estimators' because the greedy search only compares MREs to
	// about three decimals.
	const searchIter, searchTol = 6000, 1e-7
	var warm linalg.Vector
	estimate := func(measured map[int]float64) (linalg.Vector, error) {
		inst := in
		if len(measured) > 0 {
			inst = MeasuredInstance(in, measured)
		}
		s, _, err := Entropy(inst, prior, reg, SolveOptions{X0: warm, MaxIter: searchIter, Tol: searchTol})
		if err != nil {
			return nil, err
		}
		// Measured demands are known exactly; pin them (the solver drives
		// them to the constraint, pinning removes residual solver error
		// from the curve).
		for p, v := range measured {
			s[p] = v
		}
		return s, nil
	}

	var candidates []int
	for p, v := range truth {
		if v > threshold {
			candidates = append(candidates, p)
		}
	}
	if steps > len(candidates) {
		steps = len(candidates)
	}
	measured := make(map[int]float64)
	curve := make([]float64, 0, steps+1)
	order := make([]int, 0, steps)
	s, err := estimate(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("core: direct-measurement base estimate: %w", err)
	}
	warm = s
	curve = append(curve, MRE(s, truth, threshold))

	// Greedy pruning: the MRE change from measuring demand p is dominated
	// by the removal of p's own relative-error term, so only the
	// maxGreedyCandidates worst-estimated demands need to be tried
	// exhaustively each step. This keeps the search at the paper's scale
	// on the 600-demand American network.
	const maxGreedyCandidates = 16
	for step := 0; step < steps; step++ {
		bestPair, bestMRE := -1, curve[len(curve)-1]+1
		switch strategy {
		case GreedyMRE:
			pool := greedyPool(s, truth, candidates, measured, maxGreedyCandidates)
			for _, cand := range pool {
				measured[cand] = truth[cand]
				est, err := estimate(measured)
				delete(measured, cand)
				if err != nil {
					return nil, nil, err
				}
				if m := MRE(est, truth, threshold); m < bestMRE {
					bestMRE, bestPair = m, cand
				}
			}
		case LargestDemand:
			var bestVal float64
			for _, cand := range candidates {
				if _, done := measured[cand]; done {
					continue
				}
				if truth[cand] > bestVal {
					bestVal, bestPair = truth[cand], cand
				}
			}
		default:
			return nil, nil, fmt.Errorf("core: unknown selection strategy %d", strategy)
		}
		if bestPair < 0 {
			break
		}
		measured[bestPair] = truth[bestPair]
		if s, err = estimate(measured); err != nil {
			return nil, nil, err
		}
		warm = s
		curve = append(curve, MRE(s, truth, threshold))
		order = append(order, bestPair)
	}
	return curve, order, nil
}

// greedyPool returns the unmeasured candidates with the largest current
// relative errors, capped at max.
func greedyPool(est, truth linalg.Vector, candidates []int, measured map[int]float64, max int) []int {
	type scored struct {
		p   int
		rel float64
	}
	var pool []scored
	for _, c := range candidates {
		if _, done := measured[c]; done {
			continue
		}
		rel := est[c] - truth[c]
		if rel < 0 {
			rel = -rel
		}
		pool = append(pool, scored{c, rel / truth[c]})
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].rel > pool[b].rel })
	if len(pool) > max {
		pool = pool[:max]
	}
	out := make([]int, len(pool))
	for i, s := range pool {
		out[i] = s.p
	}
	return out
}
