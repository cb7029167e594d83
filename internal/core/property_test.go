// Property-based invariant tests: every estimator is run on a family of
// seeded random instances (generated backbones of several sizes) and
// checked against the invariants its derivation promises — non-negative
// finite estimates, consistency with the observations it uses, gravity's
// scale equivariance, fanout rows on the unit simplex, worst-case bounds
// that bracket the truth. Unlike the golden experiment outputs these hold
// for *every* instance, so they catch regressions the two paper networks
// happen to miss.
package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// instances yields the seeded random test universe: three backbone sizes
// times two seeds. Kept small so the full estimator battery stays fast
// under -race.
func instances(t *testing.T) []*scenario.Instance {
	t.Helper()
	var out []*scenario.Instance
	for _, spec := range []string{"scaled:6", "scaled:9", "scaled:12"} {
		for _, seed := range []int64{1, 2} {
			in, err := scenario.Build(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec, seed, err)
			}
			out = append(out, in)
		}
	}
	return out
}

func checkNonNegFinite(t *testing.T, tag string, v linalg.Vector) {
	t.Helper()
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s: entry %d is %v", tag, i, x)
		}
		if x < 0 {
			t.Fatalf("%s: entry %d is negative (%v)", tag, i, x)
		}
	}
}

// relLinkErr measures how consistent an estimate is with the measured
// loads: ‖R·ŝ − t‖₂ / ‖t‖₂.
func relLinkErr(in *scenario.Instance, est linalg.Vector) float64 {
	pred := in.Sc.Rt.LinkLoads(est)
	var num, den float64
	for i, tl := range in.Inst.Loads {
		d := pred[i] - tl
		num += d * d
		den += tl * tl
	}
	return math.Sqrt(num / den)
}

// TestPropertyGravity: non-negative, reproduces the measured total, and
// is scale-equivariant — scaling every load by c scales the estimate by
// exactly c (the gravity formula is 1-homogeneous after normalization).
func TestPropertyGravity(t *testing.T) {
	for _, in := range instances(t) {
		g := core.Gravity(in.Inst)
		checkNonNegFinite(t, in.Spec+"/gravity", g)
		if got, want := g.Sum(), in.Inst.TotalTraffic(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: gravity total %v != measured total %v", in.Spec, got, want)
		}
		const c = 3.25
		scaled := in.Inst.Loads.Clone()
		scaled.Scale(c)
		instScaled, err := core.NewInstance(in.Sc.Rt, scaled)
		if err != nil {
			t.Fatal(err)
		}
		gs := core.Gravity(instScaled)
		for i := range g {
			if math.Abs(gs[i]-c*g[i]) > 1e-9*(1+c*g[i]) {
				t.Fatalf("%s: gravity not scale-equivariant at %d: %v vs %v", in.Spec, i, gs[i], c*g[i])
			}
		}
	}
}

// TestPropertyFanoutRows: every fanout interpretation — the gravity
// fanouts, the generator's ground-truth fanouts and the constant-fanout
// estimate — puts each source's row on the unit simplex.
func TestPropertyFanoutRows(t *testing.T) {
	for _, in := range instances(t) {
		net := in.Sc.Net
		n := net.NumPoPs()
		rowSums := func(a linalg.Vector) []float64 {
			sums := make([]float64, n)
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if dst != src {
						sums[src] += a[net.PairIndex(src, dst)]
					}
				}
			}
			return sums
		}
		gf := traffic.FanoutsOf(n, core.Gravity(in.Inst))
		checkNonNegFinite(t, in.Spec+"/gravity-fanouts", gf)
		for src, s := range rowSums(gf) {
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("%s: gravity fanout row %d sums to %v", in.Spec, src, s)
			}
		}
		tf := traffic.FanoutsOf(n, in.Truth)
		for src, s := range rowSums(tf) {
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("%s: truth fanout row %d sums to %v", in.Spec, src, s)
			}
		}
		// The simplex projection runs every iteration, so the row-sum
		// invariant holds at any budget — no need for full convergence.
		est, err := core.EstimateFanouts(in.Sc.Rt, in.Loads[:10], core.SolveOptions{MaxIter: 2000})
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/fanout-estimate", est.Alpha)
		checkNonNegFinite(t, in.Spec+"/fanout-demand", est.MeanDemand)
		for src, s := range rowSums(est.Alpha) {
			if math.Abs(s-1) > 1e-6 {
				t.Fatalf("%s: estimated fanout row %d sums to %v", in.Spec, src, s)
			}
		}
	}
}

// TestPropertyRegularized: the entropy and Bayesian estimates are
// non-negative and, on a clean consistent instance with the paper's
// regularization, reproduce the measured link loads to within a few
// percent — the defining property separating them from the pure prior.
func TestPropertyRegularized(t *testing.T) {
	for _, in := range instances(t) {
		prior := core.Gravity(in.Inst)
		ent, _, err := core.Entropy(in.Inst, prior, 1000, core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/entropy", ent)
		if e := relLinkErr(in, ent); e > 0.05 {
			t.Fatalf("%s: entropy link-load error %.4f > 5%%", in.Spec, e)
		}
		bay, _, err := core.Bayesian(in.Inst, prior, 1000, core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/bayes", bay)
		if e := relLinkErr(in, bay); e > 0.05 {
			t.Fatalf("%s: bayes link-load error %.4f > 5%%", in.Spec, e)
		}
		// Both must fit the interior observations better than the prior
		// they started from (gravity ignores interior links entirely).
		if pe := relLinkErr(in, prior); relLinkErr(in, ent) > pe || relLinkErr(in, bay) > pe {
			t.Fatalf("%s: regularized estimate fits loads worse than its prior", in.Spec)
		}
	}
}

// TestPropertyKruithof: the projection reproduces the ingress/egress
// marginal totals it balances against.
func TestPropertyKruithof(t *testing.T) {
	for _, in := range instances(t) {
		prior := core.Gravity(in.Inst)
		est, err := core.Kruithof(in.Inst, prior)
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/kruithof", est)
		net := in.Sc.Net
		te := in.Inst.IngressTotals()
		tx := in.Inst.EgressTotals()
		n := net.NumPoPs()
		for src := 0; src < n; src++ {
			var row float64
			for dst := 0; dst < n; dst++ {
				if dst != src {
					row += est[net.PairIndex(src, dst)]
				}
			}
			if math.Abs(row-te[src]) > 1e-6*(1+te[src]) {
				t.Fatalf("%s: kruithof row %d total %v, want te %v", in.Spec, src, row, te[src])
			}
		}
		for dst := 0; dst < n; dst++ {
			var col float64
			for src := 0; src < n; src++ {
				if src != dst {
					col += est[net.PairIndex(src, dst)]
				}
			}
			if math.Abs(col-tx[dst]) > 1e-6*(1+tx[dst]) {
				t.Fatalf("%s: kruithof col %d total %v, want tx %v", in.Spec, dst, col, tx[dst])
			}
		}
	}
}

// TestPropertyVardi: the second-moment estimate is non-negative and
// finite under the paper's configuration, and with the covariance weight
// σ⁻² set to zero the method degenerates to non-negative least squares on
// the mean loads — which must fit a consistent system tightly. (Under the
// full configuration the misestimated covariance rows legitimately pull
// the first moments off, the paper's own diagnosis in Fig. 12, so no
// tight moment-fit invariant exists there.)
func TestPropertyVardi(t *testing.T) {
	for _, in := range instances(t) {
		lam, iters, err := core.Vardi(in.Sc.Rt, in.Loads, core.DefaultVardiConfig(), core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		if iters <= 0 {
			t.Fatalf("%s: Vardi reported %d iterations", in.Spec, iters)
		}
		checkNonNegFinite(t, in.Spec+"/vardi", lam)

		first, _, err := core.Vardi(in.Sc.Rt, in.Loads, core.VardiConfig{SigmaInv2: 0}, core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/vardi-firstmoment", first)
		pred := in.Sc.Rt.LinkLoads(first)
		mean := linalg.NewVector(len(in.Loads[0]))
		for _, l := range in.Loads {
			linalg.Axpy(1, l, mean)
		}
		mean.Scale(1 / float64(len(in.Loads)))
		var num, den float64
		for i := range mean {
			d := pred[i] - mean[i]
			num += d * d
			den += mean[i] * mean[i]
		}
		if e := math.Sqrt(num / den); e > 0.02 {
			t.Fatalf("%s: first-moment-only Vardi link error %.4f > 2%%", in.Spec, e)
		}
	}
}

// TestPropertyWorstCaseBounds: on a consistent instance the truth is a
// feasible point of {s >= 0 : Rs = t}, so the per-demand LP bounds must
// bracket it; the midpoint prior inherits the bracket.
func TestPropertyWorstCaseBounds(t *testing.T) {
	for _, in := range instances(t) {
		b, err := core.WorstCaseBounds(in.Inst)
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/wcb-lower", b.Lower)
		tol := 1e-6 * (1 + in.Truth.Sum())
		mid := b.Midpoint()
		for p := range in.Truth {
			if b.Lower[p] > in.Truth[p]+tol {
				t.Fatalf("%s: lower bound %v above truth %v (pair %d)", in.Spec, b.Lower[p], in.Truth[p], p)
			}
			if b.Upper[p] < in.Truth[p]-tol {
				t.Fatalf("%s: upper bound %v below truth %v (pair %d)", in.Spec, b.Upper[p], in.Truth[p], p)
			}
			if mid[p] < b.Lower[p]-tol || mid[p] > b.Upper[p]+tol {
				t.Fatalf("%s: midpoint outside bounds (pair %d)", in.Spec, p)
			}
		}
	}
}

// TestPropertyCitedMethods: the Vaton iterative-Bayesian refinement and
// Cao's scaling-law tomography obey the shared invariants too.
func TestPropertyCitedMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("cited-method property battery is slow under -race")
	}
	for _, in := range instances(t) {
		prior := core.Gravity(in.Inst)
		iter, rounds, err := core.IterativeBayesian(in.Inst, prior, core.DefaultIterativeBayesianConfig())
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		if rounds < 1 {
			t.Fatalf("%s: IterativeBayesian ran %d rounds", in.Spec, rounds)
		}
		checkNonNegFinite(t, in.Spec+"/iterative-bayes", iter)
		cao, err := core.Cao(in.Sc.Rt, in.Loads, core.DefaultCaoConfig())
		if err != nil {
			t.Fatalf("%s: %v", in.Spec, err)
		}
		checkNonNegFinite(t, in.Spec+"/cao", cao)
	}
}
