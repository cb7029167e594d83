package solver_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// oracleProblem is one entropy problem of the bit-identity matrix: a
// routing matrix, the loads to fit, the gravity prior of those loads, and
// a warm start taken from the converged estimate of a neighbouring load
// vector (the previous interval, or the first busy interval of a
// scenario-lab instance) the way the streaming engine carries one.
type oracleProblem struct {
	name         string
	a            *sparse.Matrix
	loads, prior linalg.Vector
	warmLoads    linalg.Vector
}

// oracleProblems builds Europe seeds 1–3 at three consecutive intervals
// and one instance of every scenario family. In -short mode it keeps one
// Europe interval and scaled:20.
func oracleProblems(t *testing.T) []oracleProblem {
	t.Helper()
	var out []oracleProblem
	seeds, intervals := []int64{1, 2, 3}, 3
	if testing.Short() {
		seeds, intervals = []int64{1}, 1
	}
	for _, seed := range seeds {
		sc, err := netsim.BuildEurope(seed)
		if err != nil {
			t.Fatal(err)
		}
		start := sc.BusyWindow(intervals + 1)
		for k := 1; k <= intervals; k++ {
			out = append(out, newOracleProblem(t, fmt.Sprintf("europe/seed%d/interval%d", seed, start+k),
				sc, sc.LinkLoads(start+k), sc.LinkLoads(start+k-1)))
		}
	}
	specs := []string{"scaled:20", "scaled:europe", "failure:europe", "ecmp:europe", "quantized:europe", "noisy:europe"}
	if testing.Short() {
		specs = specs[:1]
	}
	for _, spec := range specs {
		in, err := scenario.Build(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, newOracleProblem(t, spec, in.Sc, in.Inst.Loads, in.Loads[0]))
	}
	return out
}

func newOracleProblem(t *testing.T, name string, sc *netsim.Scenario, loads, warmLoads linalg.Vector) oracleProblem {
	t.Helper()
	in, err := core.NewInstance(sc.Rt, loads)
	if err != nil {
		t.Fatal(err)
	}
	return oracleProblem{name: name, a: sc.Rt.R, loads: loads, prior: core.Gravity(in), warmLoads: warmLoads}
}

// TestEntropyRegularizedMatchesReference holds EntropyRegularized to the
// three-pass reference solver bit for bit — every iterate coordinate,
// the iteration count and the Converged flag — across the instance
// matrix above, reg ∈ {1, 10, 100, 1000, 1e4}, cold and warm starts,
// and a capped (50) as well as a converging (3000) budget. At 3000
// iterations reg 1 and 10 still run out of budget, and reg >= 100
// converges on every instance but ecmp's cold start. -short keeps reg 10
// and 1000.
func TestEntropyRegularizedMatchesReference(t *testing.T) {
	const tol = 1e-6
	regs := []float64{1, 10, 100, 1000, 1e4}
	if testing.Short() {
		regs = []float64{10, 1000}
	}
	for _, pr := range oracleProblems(t) {
		for _, reg := range regs {
			tau := 1 / reg
			warm, _ := solver.EntropyRegularizedRef(nil, pr.a, pr.warmLoads, pr.prior, tau, nil, 3000, tol)
			for _, x0 := range []linalg.Vector{nil, warm} {
				for _, budget := range []int{50, 3000} {
					name := fmt.Sprintf("%s/reg=%g/warm=%t/budget=%d", pr.name, reg, x0 != nil, budget)
					want, wantRes := solver.EntropyRegularizedRef(nil, pr.a, pr.loads, pr.prior, tau, x0, budget, tol)
					got, gotRes := solver.EntropyRegularized(nil, pr.a, pr.loads, pr.prior, tau, x0, budget, tol)
					if gotRes != wantRes {
						t.Fatalf("%s: result %+v, reference %+v", name, gotRes, wantRes)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: x[%d] = %v (%#x), reference %v (%#x)", name, i,
								got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestEntropyRegularizedHostileMatchesReference extends the bit-identity
// check to inputs no scenario produces: priors that are zero, negative,
// NaN or +Inf, NaN and ±Inf loads, and warm starts holding them, on a
// small routing-like matrix. Non-finite results must match the reference
// up to NaN payloads.
func TestEntropyRegularizedHostileMatchesReference(t *testing.T) {
	bd := sparse.NewBuilder(5, 8)
	for r := 0; r < 5; r++ {
		for c := r % 2; c < 8; c += 1 + r%3 {
			bd.Add(r, c, []float64{1, 0.5, 1.0 / 3}[(r+c)%3])
		}
	}
	a := bd.Build()
	nan, inf := math.NaN(), math.Inf(1)
	base := func() linalg.Vector { return linalg.Vector{3, 1, 0.2, 5, 2, 0.7, 4, 1.5} }
	loads := a.MulVec(nil, base())
	for k, tc := range []struct{ prior, loads, x0 linalg.Vector }{
		{prior: linalg.Vector{3, 0, 0.2, -1, 2, 0.7, 4, 1.5}},
		{prior: linalg.Vector{3, 1, nan, 5, 2, 0.7, 4, 1.5}},
		{prior: linalg.Vector{3, 1, 0.2, 5, inf, 0.7, 4, 1.5}},
		{prior: base(), loads: linalg.Vector{nan, 1, 2, 3, 4}},
		{prior: base(), loads: linalg.Vector{1, inf, 2, 3, -inf}},
		{prior: base(), x0: linalg.Vector{3, nan, 0.2, inf, 2, -1, 4, 1.5}},
		// A +Inf load on the row through every column, a finite warm start
		// and a NaN prior: z is +Inf at the NaN-prior coordinate, where
		// klProx returns +Inf only because math.Max puts +Inf ahead of
		// NaN. (A cold start or a +Inf warm start there makes z NaN.)
		{prior: linalg.Vector{3, 1, nan, 5, 2, 0.7, 4, 1.5}, loads: linalg.Vector{inf, 1, 2, 3, 4}, x0: base()},
	} {
		b := tc.loads
		if b == nil {
			b = loads
		}
		for _, reg := range []float64{1, 1000} {
			want, wantRes := solver.EntropyRegularizedRef(nil, a, b, tc.prior, 1/reg, tc.x0, 200, 1e-9)
			got, gotRes := solver.EntropyRegularized(nil, a, b, tc.prior, 1/reg, tc.x0, 200, 1e-9)
			if gotRes != wantRes {
				t.Fatalf("case %d reg %g: result %+v, reference %+v", k, reg, gotRes, wantRes)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("case %d reg %g: x[%d] = %v, reference %v", k, reg, i, got[i], want[i])
				}
			}
		}
	}
}
