package core

import (
	"fmt"

	"repro/internal/linalg"
)

// IterativeBayesianConfig tunes IterativeBayesian.
type IterativeBayesianConfig struct {
	Reg       float64         // regularization of each inner MAP solve
	Rounds    int             // maximum prior-refinement rounds
	Tol       float64         // relative-change stopping criterion between rounds
	Snapshots []linalg.Vector // optional: per-round load snapshots; nil reuses the instance loads
}

// DefaultIterativeBayesianConfig mirrors the setting used in the extension
// experiments.
func DefaultIterativeBayesianConfig() IterativeBayesianConfig {
	return IterativeBayesianConfig{Reg: 1000, Rounds: 8, Tol: 1e-4}
}

// IterativeBayesian implements the prior-refinement scheme of Vaton &
// Gravey ("Network tomography: an iterative Bayesian analysis", ITC 2003),
// which the paper cites as a refinement of the Bayesian approach (§2): the
// MAP estimate obtained from one snapshot of link loads becomes the prior
// for the next round, either on fresh snapshots (cfg.Snapshots) or on the
// same measurement until the fixed point is reached.
func IterativeBayesian(in *Instance, prior linalg.Vector, cfg IterativeBayesianConfig) (linalg.Vector, int, error) {
	if cfg.Rounds <= 0 {
		return nil, 0, fmt.Errorf("core: IterativeBayesian needs at least one round")
	}
	cur := prior.Clone()
	ws := new(Workspace) // one workspace for every round's solve
	for round := 0; round < cfg.Rounds; round++ {
		inst := in
		if cfg.Snapshots != nil {
			loads := cfg.Snapshots[round%len(cfg.Snapshots)]
			var err error
			if inst, err = NewInstance(in.Rt, loads); err != nil {
				return nil, round, err
			}
		}
		next, _, err := Bayesian(inst, cur, cfg.Reg, SolveOptions{WS: ws})
		if err != nil {
			return nil, round, err
		}
		diff := linalg.DiffNorm2(next, cur)
		norm := cur.Norm2() + 1e-30
		cur = next
		if diff/norm < cfg.Tol {
			return cur, round + 1, nil
		}
	}
	return cur, cfg.Rounds, nil
}
