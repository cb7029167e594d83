package solver_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/solver"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// bayesianNNLS solves core.Bayesian's MAP problem exactly with
// Lawson–Hanson NNLS on the stacked system
// [R; σ⁻¹·I]·s = [t; σ⁻¹·prior], with reg = σ².
func bayesianNNLS(in *core.Instance, prior linalg.Vector, reg float64) linalg.Vector {
	l, p := in.Rt.R.Rows(), in.Rt.R.Cols()
	w := 1 / math.Sqrt(reg)
	a := linalg.NewMatrix(l+p, p)
	copy(a.Data[:l*p], in.Rt.R.ToDense().Data)
	b := linalg.NewVector(l + p)
	copy(b[:l], in.Loads)
	for i := 0; i < p; i++ {
		a.Set(l+i, i, w)
		b[l+i] = w * prior[i]
	}
	return solver.NNLS(a, b)
}

// TestBayesianNNLSAgreesWithFISTA checks core.Bayesian's FISTA solve
// against the exact NNLS optimum on the European busy window.
func TestBayesianNNLSAgreesWithFISTA(t *testing.T) {
	rt, err := topology.Europe(1).Route()
	if err != nil {
		t.Fatal(err)
	}
	series, err := traffic.Generate(traffic.Europe(1))
	if err != nil {
		t.Fatal(err)
	}
	truth := series.MeanDemand(series.BusyWindow(50), 50)
	inst, err := core.NewInstance(rt, rt.LinkLoads(truth))
	if err != nil {
		t.Fatal(err)
	}
	prior := core.Gravity(inst)
	exact := bayesianNNLS(inst, prior, 100)
	approx, _, err := core.Bayesian(inst, prior, 100, core.SolveOptions{})
	if err != nil {
		t.Fatalf("Bayesian: %v", err)
	}
	// Compare objectives — the quadratic is strongly convex so both should
	// reach the same optimum.
	obj := func(s linalg.Vector) float64 {
		r := linalg.Sub(linalg.NewVector(len(inst.Loads)), rt.LinkLoads(s), inst.Loads)
		d := linalg.Sub(linalg.NewVector(len(s)), s, prior)
		return r.Norm2()*r.Norm2() + d.Norm2()*d.Norm2()/100
	}
	oe, oa := obj(exact), obj(approx)
	if oa > oe*(1+1e-3)+1e-6 {
		t.Fatalf("FISTA objective %v worse than NNLS %v", oa, oe)
	}
}
