package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/runner"
)

// Method is one estimator wired for the cross-family evaluation harness.
type Method struct {
	Name string
	// Run estimates the instance's traffic matrix and reports the solver
	// iterations consumed (0 for closed-form methods).
	Run func(in *Instance) (linalg.Vector, int, error)
}

// Budget bounds the solver work per method. The paper-fidelity defaults
// (a zero core.SolveOptions budget: 20000 iterations, 30000 for Vardi, at
// tolerance 1e-9) converge on the paper-sized networks but are wasteful at
// 10k demands, where the scoring metrics stabilize orders of magnitude
// earlier — the scenario lab trades the last digits of convergence for
// bounded runtime.
type Budget struct {
	EntropyReg  float64
	EntropyIter int
	EntropyTol  float64
	Vardi       core.VardiConfig
	VardiIter   int
	VardiTol    float64
}

// DefaultBudget returns the budget the scale experiment and benchmarks
// use: the paper's regularization strengths with iteration caps sized for
// 100+-PoP instances.
func DefaultBudget() Budget {
	return Budget{
		EntropyReg: 1000, EntropyIter: 12000, EntropyTol: 1e-7,
		Vardi: core.VardiConfig{SigmaInv2: 0.01}, VardiIter: 6000, VardiTol: 1e-7,
	}
}

// ForSize returns the budget with its iteration caps scaled down
// linearly for instances larger than the lab's 100-PoP / 9900-demand
// design point, keeping total solver work (iterations × per-iteration
// cost) roughly constant as the demand count grows. Instances at or
// below the design point keep the caps unchanged, so the paper-adjacent
// grid is unaffected.
func (b Budget) ForSize(pairs int) Budget {
	const refPairs = 9900
	if pairs <= refPairs {
		return b
	}
	scale := float64(refPairs) / float64(pairs)
	if b.EntropyIter = int(float64(b.EntropyIter) * scale); b.EntropyIter < 1 {
		b.EntropyIter = 1
	}
	if b.VardiIter = int(float64(b.VardiIter) * scale); b.VardiIter < 1 {
		b.VardiIter = 1
	}
	return b
}

// Methods returns the cross-family method set under the given budget:
// the gravity model (closed form), the entropy-regularized estimator with
// a gravity prior, and Vardi's second-moment method over the busy-window
// load series. Each solver cell applies the budget through ForSize, so
// oversized instances get proportionally tighter iteration caps.
func Methods(b Budget) []Method {
	return []Method{
		{Name: "gravity", Run: func(in *Instance) (linalg.Vector, int, error) {
			return core.Gravity(in.Inst), 0, nil
		}},
		{Name: "entropy", Run: func(in *Instance) (linalg.Vector, int, error) {
			bb := b.ForSize(in.Inst.NumPairs())
			prior := core.Gravity(in.Inst)
			return core.Entropy(in.Inst, prior, bb.EntropyReg, core.SolveOptions{MaxIter: bb.EntropyIter, Tol: bb.EntropyTol})
		}},
		{Name: "vardi", Run: func(in *Instance) (linalg.Vector, int, error) {
			bb := b.ForSize(in.Inst.NumPairs())
			return core.Vardi(in.Sc.Rt, in.Loads, bb.Vardi, core.SolveOptions{MaxIter: bb.VardiIter, Tol: bb.VardiTol})
		}},
	}
}

// Result scores one (instance, method) cell.
type Result struct {
	Spec   string `json:"spec"`
	Method string `json:"method"`
	// MRE is the paper's mean relative error over the demands carrying
	// 90% of traffic (eq. 8).
	MRE float64 `json:"mre"`
	// RelL1 and RelL2 are ‖ŝ−s‖₁/‖s‖₁ and ‖ŝ−s‖₂/‖s‖₂ over all demands.
	RelL1      float64       `json:"rel_l1"`
	RelL2      float64       `json:"rel_l2"`
	Iterations int           `json:"iterations"`
	Runtime    time.Duration `json:"runtime_ns"`
	// Err is the in-process failure cause. error values marshal to "{}"
	// under encoding/json, so it is excluded from serialization;
	// ErrMessage carries the cause in persisted/reported grids. Use
	// Failed to test either form.
	Err        error  `json:"-"`
	ErrMessage string `json:"error,omitempty"`
}

// Failed reports whether the cell records a method failure, in-process
// (Err) or deserialized (ErrMessage).
func (r *Result) Failed() bool { return r.Err != nil || r.ErrMessage != "" }

// RelL1 returns the relative L1 error ‖est−truth‖₁/‖truth‖₁ (0 when the
// truth is identically zero). Shared kernel: linalg.RelL1, which is
// also the streaming engine's window-drift signal.
func RelL1(est, truth linalg.Vector) float64 {
	return linalg.RelL1(est, truth)
}

// RelL2 returns the relative L2 error ‖est−truth‖₂/‖truth‖₂ (0 when the
// truth is identically zero).
func RelL2(est, truth linalg.Vector) float64 {
	if len(est) != len(truth) {
		panic("scenario: RelL2 length mismatch")
	}
	var num, den float64
	for i, t := range truth {
		d := est[i] - t
		num += d * d
		den += t * t
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// Evaluate scores every method on every instance, fanning the
// instance × method grid out on the pool. Results come back in grid
// order (instances outer, methods inner) regardless of execution order;
// a method failure is recorded in its cell, not fatal to the run.
func Evaluate(ctx context.Context, pool *runner.Pool, instances []*Instance, methods []Method) ([]Result, error) {
	jobs := make([]runner.Job[Result], 0, len(instances)*len(methods))
	for _, in := range instances {
		for _, m := range methods {
			in, m := in, m
			jobs = append(jobs, runner.Job[Result]{
				ID: fmt.Sprintf("%s/%s", in.Spec, m.Name),
				Run: func(ctx context.Context) (Result, error) {
					res := Result{Spec: in.Spec, Method: m.Name}
					t0 := time.Now()
					est, iters, err := m.Run(in)
					res.Runtime = time.Since(t0)
					res.Iterations = iters
					if err != nil {
						res.Err = err
						res.ErrMessage = err.Error()
						return res, nil
					}
					res.MRE = core.MRE(est, in.Truth, in.Thresh)
					res.RelL1 = RelL1(est, in.Truth)
					res.RelL2 = RelL2(est, in.Truth)
					return res, nil
				},
			})
		}
	}
	rs, err := runner.Run(ctx, pool, jobs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = r.Value
	}
	return out, nil
}
