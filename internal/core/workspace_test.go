package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/scenario"
)

// TestWorkspaceReuseBitIdentical pins the workspace contract every
// estimator entry point rests on: a workspace changes where scratch lives,
// never the arithmetic. One long-lived workspace is driven through all
// four methods, cold then warm, across topologies of different size and
// back (europe → america → europe, so every buffer is grown, shrunk and
// regrown and every cached artifact is rebuilt for a new matrix). Every
// call must return exactly the bits of the same call on a fresh workspace
// (SolveOptions.WS nil). A last Vardi leg alternates σ⁻² on one matrix
// (0.01, 1, 0.01): the stacked moment system depends on the weight √σ⁻²
// as well as on the routing matrix, so the workspace's assembly cache
// must rebuild on each change — a cache keyed on the matrix alone would
// solve the σ⁻² = 1 call against the σ⁻² = 0.01 system.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	specs := []string{"scaled:europe", "scaled:america", "scaled:europe"}
	instances := make(map[string]*scenario.Instance)
	for _, spec := range specs {
		if instances[spec] == nil {
			in, err := scenario.Build(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			instances[spec] = in
		}
	}
	const budget = 300
	ws := new(core.Workspace)
	for step, spec := range specs {
		in := instances[spec]
		loads := in.Loads[:6]
		prior := core.Gravity(in.Inst)
		// Each method returns its outputs; the first one is the next
		// call's warm start.
		methods := []struct {
			name  string
			solve func(opt core.SolveOptions) ([]linalg.Vector, error)
		}{
			{"entropy", func(opt core.SolveOptions) ([]linalg.Vector, error) {
				x, _, err := core.Entropy(in.Inst, prior, 1000, opt)
				return []linalg.Vector{x}, err
			}},
			{"bayesian", func(opt core.SolveOptions) ([]linalg.Vector, error) {
				x, _, err := core.Bayesian(in.Inst, prior, 1000, opt)
				return []linalg.Vector{x}, err
			}},
			{"vardi", func(opt core.SolveOptions) ([]linalg.Vector, error) {
				x, _, err := core.Vardi(in.Sc.Rt, loads, core.DefaultVardiConfig(), opt)
				return []linalg.Vector{x}, err
			}},
			{"fanout", func(opt core.SolveOptions) ([]linalg.Vector, error) {
				fe, err := core.EstimateFanouts(in.Sc.Rt, loads, opt)
				if err != nil {
					return nil, err
				}
				return []linalg.Vector{fe.Alpha, fe.MeanDemand}, nil
			}},
		}
		for _, m := range methods {
			var x0 linalg.Vector // cold first, then warm from the cold result
			for _, phase := range []string{"cold", "warm"} {
				tag := fmt.Sprintf("%s#%d/%s/%s", spec, step, m.name, phase)
				got, err := m.solve(core.SolveOptions{WS: ws, X0: x0, MaxIter: budget})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, err := m.solve(core.SolveOptions{X0: x0, MaxIter: budget})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for i := range want {
					sameBits(t, tag, got[i], want[i])
				}
				x0 = want[0]
			}
		}
	}

	in := instances["scaled:europe"]
	loads := in.Loads[:6]
	var prev linalg.Vector
	for i, s2 := range []float64{0.01, 1, 0.01} {
		tag := fmt.Sprintf("vardi-weight#%d/sigma-inv2=%v", i, s2)
		cfg := core.VardiConfig{SigmaInv2: s2}
		got, _, err := core.Vardi(in.Sc.Rt, loads, cfg, core.SolveOptions{WS: ws, MaxIter: budget})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want, _, err := core.Vardi(in.Sc.Rt, loads, cfg, core.SolveOptions{MaxIter: budget})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sameBits(t, tag, got, want)
		if prev != nil && linalg.DiffNorm2(want, prev) == 0 {
			t.Fatalf("%s: same estimate as the previous weight; the leg cannot tell the weights apart", tag)
		}
		prev = want
	}
}

// sameBits fails unless got and want are the same length and equal bit
// for bit (math.Float64bits, so NaN payloads and signed zeros count).
func sameBits(t *testing.T, tag string, got, want linalg.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %v (bits %#x), fresh workspace gives %v (bits %#x)",
				tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
