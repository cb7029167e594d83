package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/solver"
)

// Bounds holds per-demand worst-case bounds (§4.3.1): for each pair p, the
// minimum and maximum of s_p over the polytope {s >= 0 : R·s = t}.
type Bounds struct {
	Lower, Upper linalg.Vector
	// Pivots is the total number of simplex pivots spent, a measure of the
	// warm-start effectiveness.
	Pivots int
}

// Midpoint returns (lower+upper)/2, the paper's worst-case-bound prior
// (Fig. 9), which it found to beat the gravity prior on its data.
func (b *Bounds) Midpoint() linalg.Vector {
	m := linalg.NewVector(len(b.Lower))
	for i := range m {
		m[i] = 0.5 * (b.Lower[i] + b.Upper[i])
	}
	return m
}

// WorstCaseBounds solves the 2·P linear programs
//
//	max / min  s_p   subject to  R·s = t,  s >= 0
//
// sharing a single warm-started simplex instance across all objectives:
// phase 1 runs once and each successive objective re-optimizes from the
// previous optimal basis, which cuts the pivot count by an order of
// magnitude versus a fresh LP per objective (TestWorstCaseBoundsWarmMatchesCold).
func WorstCaseBounds(in *Instance) (*Bounds, error) {
	p := in.NumPairs()
	b := &Bounds{Lower: linalg.NewVector(p), Upper: linalg.NewVector(p)}
	lp, err := solver.NewLP(in.Rt.R.ToDense(), in.Loads)
	if err != nil {
		return nil, fmt.Errorf("core: worst-case bounds: %w", err)
	}
	c := linalg.NewVector(p)
	for pair := 0; pair < p; pair++ {
		c.Zero()
		c[pair] = 1
		_, hi, err := lp.Maximize(c)
		if err != nil {
			if errors.Is(err, solver.ErrUnbounded) {
				hi = math.Inf(1)
			} else {
				return nil, fmt.Errorf("core: upper bound for pair %d: %w", pair, err)
			}
		}
		_, lo, err := lp.Minimize(c)
		if err != nil {
			return nil, fmt.Errorf("core: lower bound for pair %d: %w", pair, err)
		}
		if lo < 0 {
			lo = 0 // numerical dust
		}
		b.Lower[pair], b.Upper[pair] = lo, hi
	}
	b.Pivots = lp.Pivots()
	return b, nil
}
