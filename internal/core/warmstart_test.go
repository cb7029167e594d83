// Warm-start equivalence and efficiency tests: every estimator started from
// SolveOptions.X0 (Entropy, Bayesian, Vardi, EstimateFanouts) must reach
// the same fixed point as their cold-started counterparts on the same
// window — the objectives are convex, so the start only changes the path
// — and, for the solvers the streaming engine leans on (entropy,
// fanout), a warm start taken from the solution of an adjacent
// (one-interval-shifted) window must consume measurably fewer
// iterations. This is the property internal/stream's re-solve pipeline
// rests on.
package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
)

// warmWindows builds two overlapping busy-window instances of the
// European scenario, one interval apart — the steady-state drift a
// streaming engine sees between consecutive re-solves.
func warmWindows(t *testing.T) (in0, in1 *core.Instance, sc *netsim.Scenario, loads0, loads1 []linalg.Vector) {
	t.Helper()
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 6
	start := sc.BusyWindow(k)
	if start+k+1 > len(sc.Series.Demands) {
		start--
	}
	loads0 = sc.LoadSeries(start, k)
	loads1 = sc.LoadSeries(start+1, k)
	mean := func(loads []linalg.Vector) linalg.Vector {
		m := linalg.NewVector(len(loads[0]))
		for _, l := range loads {
			linalg.Axpy(1, l, m)
		}
		m.Scale(1 / float64(len(loads)))
		return m
	}
	if in0, err = core.NewInstance(sc.Rt, mean(loads0)); err != nil {
		t.Fatal(err)
	}
	if in1, err = core.NewInstance(sc.Rt, mean(loads1)); err != nil {
		t.Fatal(err)
	}
	return in0, in1, sc, loads0, loads1
}

// relL1 returns ‖a − b‖₁ / ‖b‖₁.
func relL1(a, b linalg.Vector) float64 {
	var num, den float64
	for i := range a {
		num += math.Abs(a[i] - b[i])
		den += math.Abs(b[i])
	}
	return num / den
}

// TestEntropyWarmStartEquivalentAndFaster pins both halves of the warm
// start contract for the entropy solver at the streaming tolerance:
// same fixed point (within the solver's sublinear tail — the KL-prox
// iteration crawls along the routing matrix's nullspace, so two starts
// park within a couple percent of each other, far closer than the
// estimates are to the truth), and at least 2x fewer iterations when
// started from the adjacent window's solution. This is the ratio the
// BenchmarkStreamResolveCold/Warm CI gate tracks.
func TestEntropyWarmStartEquivalentAndFaster(t *testing.T) {
	in0, in1, _, _, _ := warmWindows(t)
	const reg, maxIter, tol = 1000, 20000, 1e-6
	prev, _, err := core.Entropy(in0, core.Gravity(in0), reg, core.SolveOptions{MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	prior1 := core.Gravity(in1)
	cold, coldIters, err := core.Entropy(in1, prior1, reg, core.SolveOptions{MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmIters, err := core.Entropy(in1, prior1, reg, core.SolveOptions{X0: prev, MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if d := relL1(warm, cold); d > 0.05 {
		t.Fatalf("warm and cold entropy solves disagree: rel L1 %g", d)
	}
	if warmIters*2 > coldIters {
		t.Fatalf("warm start consumed %d iterations vs %d cold — want at least 2x fewer", warmIters, coldIters)
	}
}

// TestBayesianWarmStartEquivalent checks Bayesian's warm-start equivalence:
// the strongly convex MAP problem lands on the same estimate from any
// start. No iteration assertion — FISTA's momentum makes warm-start
// iteration counts a wash (see Bayesian's doc comment), which is exactly why
// the streaming engine's headline warm-start ratio is measured on the
// entropy solver.
func TestBayesianWarmStartEquivalent(t *testing.T) {
	in0, in1, _, _, _ := warmWindows(t)
	const reg, maxIter, tol = 1000, 20000, 1e-9
	prev, prevIters, err := core.Bayesian(in0, core.Gravity(in0), reg, core.SolveOptions{MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if prevIters <= 0 {
		t.Fatalf("iteration count not reported (%d)", prevIters)
	}
	prior1 := core.Gravity(in1)
	cold, _, err := core.Bayesian(in1, prior1, reg, core.SolveOptions{MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := core.Bayesian(in1, prior1, reg, core.SolveOptions{X0: prev, MaxIter: maxIter, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if d := relL1(warm, cold); d > 1e-4 {
		t.Fatalf("warm and cold Bayesian solves disagree: rel L1 %g", d)
	}
}

// TestVardiWarmStartEquivalent checks a warm-started Vardi against the neutral
// start on the shifted window: same estimate within solver tolerance,
// and no more iterations from the adjacent solution than from the
// neutral spread.
func TestVardiWarmStartEquivalent(t *testing.T) {
	_, _, sc, loads0, loads1 := warmWindows(t)
	cfg := core.DefaultVardiConfig()
	prev, _, err := core.Vardi(sc.Rt, loads0, cfg, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldIters, err := core.Vardi(sc.Rt, loads1, cfg, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmIters, err := core.Vardi(sc.Rt, loads1, cfg, core.SolveOptions{X0: prev})
	if err != nil {
		t.Fatal(err)
	}
	if d := relL1(warm, cold); d > 1e-3 {
		t.Fatalf("warm and cold Vardi solves disagree: rel L1 %g", d)
	}
	if warmIters > coldIters {
		t.Fatalf("warm start consumed %d iterations vs %d cold — want no more", warmIters, coldIters)
	}
	if _, _, err := core.Vardi(sc.Rt, loads1, cfg, core.SolveOptions{X0: linalg.NewVector(3)}); err == nil {
		t.Fatal("mis-sized warm start accepted")
	}
}

// TestFanoutWarmStartEquivalent checks EstimateFanouts: warm-started
// from the previous window's alpha it must land on the same fanouts and
// demands with fewer FISTA iterations (the slowly-drifting-fanout
// premise of the paper's Figs. 4–5).
func TestFanoutWarmStartEquivalent(t *testing.T) {
	_, _, sc, loads0, loads1 := warmWindows(t)
	prev, err := core.EstimateFanouts(sc.Rt, loads0, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.EstimateFanouts(sc.Rt, loads1, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.EstimateFanouts(sc.Rt, loads1, core.SolveOptions{X0: prev.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	if d := relL1(warm.Alpha, cold.Alpha); d > 1e-4 {
		t.Fatalf("warm and cold fanout solves disagree: rel L1 %g", d)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start consumed %d iterations vs %d cold — want fewer", warm.Iterations, cold.Iterations)
	}
	if _, err := core.EstimateFanouts(sc.Rt, loads1, core.SolveOptions{X0: linalg.NewVector(2)}); err == nil {
		t.Fatal("mis-sized fanout warm start accepted")
	}
}
