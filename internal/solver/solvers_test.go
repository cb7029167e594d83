package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// DenseOp adapts a dense *linalg.Matrix to the LinOp interface.
type DenseOp struct{ M *linalg.Matrix }

// fromRows builds a dense matrix from equal-length rows.
func fromRows(rows [][]float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// denseMulVec computes dst = m·x and returns dst, allocating it when nil.
func denseMulVec(m *linalg.Matrix, dst, x linalg.Vector) linalg.Vector {
	if dst == nil {
		dst = linalg.NewVector(m.Rows)
	}
	for i := range dst {
		dst[i] = linalg.Dot(m.Row(i), x)
	}
	return dst
}

// denseMulVecT computes dst = mᵀ·x and returns dst, allocating it when nil.
func denseMulVecT(m *linalg.Matrix, dst, x linalg.Vector) linalg.Vector {
	if dst == nil {
		dst = linalg.NewVector(m.Cols)
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		linalg.Axpy(x[i], m.Row(i), dst)
	}
	return dst
}

// MulVec computes dst = M·x.
func (o DenseOp) MulVec(dst, x linalg.Vector) linalg.Vector { return denseMulVec(o.M, dst, x) }

// MulVecT computes dst = Mᵀ·x.
func (o DenseOp) MulVecT(dst, x linalg.Vector) linalg.Vector { return denseMulVecT(o.M, dst, x) }

// Rows returns the row count.
func (o DenseOp) Rows() int { return o.M.Rows }

// Cols returns the column count.
func (o DenseOp) Cols() int { return o.M.Cols }

// sparseOf stores a dense matrix in CSR form, the operator type
// EntropyRegularized takes.
func sparseOf(m *linalg.Matrix) *sparse.Matrix {
	b := sparse.NewBuilder(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			b.Add(r, c, m.At(r, c))
		}
	}
	return b.Build()
}

func randDense(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNNLSUnconstrainedInterior(t *testing.T) {
	// If the unconstrained LS solution is positive, NNLS must find it.
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 12, 4)
	xTrue := linalg.Vector{1, 2, 0.5, 3}
	b := denseMulVec(a, nil, xTrue)
	x := NNLS(a, b)
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestNNLSActiveConstraint(t *testing.T) {
	// Known textbook case: unconstrained optimum has a negative coordinate,
	// NNLS must clamp it to zero and satisfy KKT.
	a := fromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	b := linalg.Vector{-1, 2, 1}
	x := NNLS(a, b)
	if x[0] != 0 {
		t.Fatalf("x[0] = %v, want 0", x[0])
	}
	if x[1] <= 0 {
		t.Fatalf("x[1] = %v, want > 0", x[1])
	}
	checkNNLSKKT(t, a, b, x)
}

func checkNNLSKKT(t *testing.T, a *linalg.Matrix, b, x linalg.Vector) {
	t.Helper()
	r := linalg.Sub(linalg.NewVector(len(b)), b, denseMulVec(a, nil, x))
	w := denseMulVecT(a, nil, r) // gradient of -0.5‖Ax-b‖² wrt x
	for j := range x {
		if x[j] < 0 {
			t.Fatalf("x[%d] = %v negative", j, x[j])
		}
		if x[j] > 1e-8 && math.Abs(w[j]) > 1e-5 {
			t.Fatalf("KKT stationarity violated at %d: w=%v x=%v", j, w[j], x[j])
		}
		if x[j] <= 1e-8 && w[j] > 1e-5 {
			t.Fatalf("KKT sign violated at %d: w=%v", j, w[j])
		}
	}
}

// Property: NNLS satisfies the KKT conditions on random instances.
func TestNNLSKKTQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		m, n := 5+rng.Intn(15), 2+rng.Intn(8)
		a := randDense(rng, m, n)
		b := linalg.NewVector(m)
		for i := range b {
			b[i] = rng.NormFloat64() * 3
		}
		x := NNLS(a, b)
		checkNNLSKKT(t, a, b, x)
	}
}

func TestProjectSimplexBasic(t *testing.T) {
	v := []float64{0.5, 0.5}
	ProjectSimplexInto(v, 1, nil)
	if math.Abs(v[0]-0.5) > 1e-12 || math.Abs(v[1]-0.5) > 1e-12 {
		t.Fatalf("interior point moved: %v", v)
	}
	v = []float64{2, 0}
	ProjectSimplexInto(v, 1, nil)
	if math.Abs(v[0]-1) > 1e-12 || v[1] != 0 {
		t.Fatalf("projection = %v", v)
	}
}

func TestProjectSimplexNegativeRadius(t *testing.T) {
	v := []float64{1, 2}
	ProjectSimplexInto(v, 0, nil)
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("radius 0 should zero the vector: %v", v)
	}
}

// Property: projection lands on the simplex and is idempotent.
func TestProjectSimplexPropertiesQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e10 {
				return true
			}
		}
		v := append([]float64(nil), raw...)
		ProjectSimplexInto(v, 1, nil)
		var sum float64
		for _, x := range v {
			if x < 0 {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		w := append([]float64(nil), v...)
		ProjectSimplexInto(w, 1, nil)
		for i := range v {
			if math.Abs(w[i]-v[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the projection is the nearest simplex point (checked against
// random feasible candidates).
func TestProjectSimplexOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 2
		}
		p := append([]float64(nil), v...)
		ProjectSimplexInto(p, 1, nil)
		distP := 0.0
		for i := range v {
			distP += (p[i] - v[i]) * (p[i] - v[i])
		}
		// Random candidate on the simplex.
		cand := make([]float64, n)
		var s float64
		for i := range cand {
			cand[i] = rng.Float64()
			s += cand[i]
		}
		for i := range cand {
			cand[i] /= s
		}
		distC := 0.0
		for i := range v {
			distC += (cand[i] - v[i]) * (cand[i] - v[i])
		}
		if distP > distC+1e-9 {
			t.Fatalf("projection farther than candidate: %v > %v", distP, distC)
		}
	}
}

func TestOperatorNormSqDiagonal(t *testing.T) {
	d := linalg.NewMatrix(3, 3)
	d.Set(0, 0, 3)
	d.Set(1, 1, 1)
	d.Set(2, 2, 2)
	got := new(Workspace).OperatorNormSq(DenseOp{d})
	if got < 9 || got > 9*1.1 {
		t.Fatalf("OperatorNormSq = %v, want ≈ 9", got)
	}
}

func TestLeastSquaresNonnegMatchesNNLS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		m, n := 10, 6
		a := randDense(rng, m, n)
		b := linalg.NewVector(m)
		for i := range b {
			b[i] = rng.NormFloat64() * 2
		}
		exact := NNLS(a, b)
		approx, res := LeastSquaresNonneg(nil, DenseOp{a}, b, nil, 0, nil, 20000, 1e-10)
		if !res.Converged {
			t.Fatalf("FISTA did not converge")
		}
		// Compare objective values (solutions may differ in a null space).
		fe := linalg.Sub(linalg.NewVector(m), denseMulVec(a, nil, exact), b).Norm2()
		fa := linalg.Sub(linalg.NewVector(m), denseMulVec(a, nil, approx), b).Norm2()
		if fa > fe+1e-5*(1+fe) {
			t.Fatalf("trial %d: FISTA objective %v worse than NNLS %v", trial, fa, fe)
		}
	}
}

func TestLeastSquaresNonnegDamped(t *testing.T) {
	// With huge damping the solution must stick to the prior.
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 8, 5)
	prior := linalg.Vector{1, 2, 3, 4, 5}
	b := linalg.NewVector(8)
	x, _ := LeastSquaresNonneg(nil, DenseOp{a}, b, prior, 1e9, nil, 5000, 1e-12)
	for i := range prior {
		if math.Abs(x[i]-prior[i]) > 1e-3 {
			t.Fatalf("x[%d] = %v, want ≈ prior %v", i, x[i], prior[i])
		}
	}
}

// TestNonFiniteStepNeverConverges: a +Inf load drives the first step to
// +Inf on a 2×3 routing. Both solvers must stop there unconverged; the
// relative-change test alone would accept Inf <= tol²·(Inf+1e-30).
func TestNonFiniteStepNeverConverges(t *testing.T) {
	a := fromRows([][]float64{{1, 1, 0}, {0, 1, 1}})
	b := linalg.Vector{math.Inf(1), 2}
	prior := linalg.Vector{1, 1, 1}
	for _, tc := range []struct {
		name  string
		solve func() FISTAResult
	}{
		{"entropy", func() FISTAResult {
			_, res := EntropyRegularized(nil, sparseOf(a), b, prior, 1, nil, 100, 1e-9)
			return res
		}},
		{"fista", func() FISTAResult {
			_, res := LeastSquaresNonneg(nil, sparseOf(a), b, prior, 1, nil, 100, 1e-9)
			return res
		}},
	} {
		if res := tc.solve(); res.Converged || res.Iterations != 1 {
			t.Errorf("%s: %+v, want 1 iteration, not converged", tc.name, res)
		}
	}
}

func TestEntropyRegularizedRecoversConsistent(t *testing.T) {
	// Consistent system, weak regularization: solution should nearly
	// satisfy Ax = b.
	rng := rand.New(rand.NewSource(6))
	m, n := 6, 10
	a := linalg.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(2))
	}
	xTrue := linalg.NewVector(n)
	for i := range xTrue {
		xTrue[i] = 0.5 + rng.Float64()
	}
	b := denseMulVec(a, nil, xTrue)
	prior := linalg.NewVector(n)
	prior.Fill(1)
	x, _ := EntropyRegularized(nil, sparseOf(a), b, prior, 1e-6, nil, 50000, 1e-12)
	r := linalg.Sub(linalg.NewVector(m), denseMulVec(a, nil, x), b)
	if r.Norm2() > 1e-3*b.Norm2() {
		t.Fatalf("residual too large: %v", r.Norm2())
	}
}

func TestEntropyRegularizedStrongPriorSticks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 4, 6)
	for i := range a.Data {
		a.Data[i] = math.Abs(a.Data[i])
	}
	prior := linalg.Vector{1, 2, 3, 1, 2, 3}
	b := linalg.NewVector(4)
	b.Fill(100)
	x, _ := EntropyRegularized(nil, sparseOf(a), b, prior, 1e9, nil, 5000, 1e-12)
	for i := range prior {
		if math.Abs(x[i]-prior[i]) > 0.05*prior[i] {
			t.Fatalf("x[%d] = %v strayed from prior %v", i, x[i], prior[i])
		}
	}
}

func TestEntropyZeroPriorPinsCoordinate(t *testing.T) {
	a := fromRows([][]float64{{1, 1}})
	prior := linalg.Vector{0, 1}
	x, _ := EntropyRegularized(nil, sparseOf(a), linalg.Vector{5}, prior, 0.01, nil, 2000, 1e-12)
	if x[0] != 0 {
		t.Fatalf("coordinate with zero prior must stay zero, got %v", x[0])
	}
	// Exact optimum of (x−5)² + 0.01·x·log x is ≈ 5 − 0.005·log 5.
	if math.Abs(x[1]-5) > 0.02 {
		t.Fatalf("x[1] = %v, want ≈ 5", x[1])
	}
}

func TestKLProxProperties(t *testing.T) {
	// The prox must satisfy its optimality condition u + eta·log(u/p) = z.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		z := rng.NormFloat64() * 5
		p := math.Exp(rng.NormFloat64())
		eta := math.Exp(rng.NormFloat64())
		u := klProx(z, p, eta)
		if u <= 0 {
			t.Fatalf("prox not positive: %v", u)
		}
		g := u + eta*math.Log(u/p) - z
		if math.Abs(g) > 1e-6*(1+math.Abs(z)) {
			t.Fatalf("optimality residual %v at z=%v p=%v eta=%v", g, z, p, eta)
		}
	}
}

func TestKLProxNonpositiveInput(t *testing.T) {
	// The z <= 0 regime is the hot path on heavy-tailed instances (most
	// demands are near zero, so the gradient step drives z negative).
	// The tight bracket [0, p·exp(z/eta)] must still satisfy optimality…
	for _, tc := range []struct{ z, p, eta float64 }{
		{0, 1000, 1e-6},
		{-1e-3, 3, 0.2},
		{-0.5, 3, 0.2},
		{-5, 0.01, 2},
	} {
		u := klProx(tc.z, tc.p, tc.eta)
		if u <= 0 {
			t.Fatalf("z=%v p=%v eta=%v: prox %v not positive", tc.z, tc.p, tc.eta, u)
		}
		g := u + tc.eta*math.Log(u/tc.p) - tc.z
		if math.Abs(g) > 1e-6*(1+math.Abs(tc.z)) {
			t.Fatalf("z=%v p=%v eta=%v: optimality residual %v (u=%v)", tc.z, tc.p, tc.eta, g, u)
		}
	}
	// …and when the upper bound p·exp(z/eta) underflows, the solution is
	// exactly zero at double precision (previously these coordinates each
	// burned the full 60-iteration bisection budget). With eta = 1e-6 a z
	// of just −0.001 already puts the optimum at ~p·e^(−1000) ≈ 10^−431.
	for _, tc := range []struct{ z, p, eta float64 }{
		{-1e-3, 1000, 1e-6},
		{-1, 1000, 1e-6},
		{-800, 1, 1},
	} {
		if u := klProx(tc.z, tc.p, tc.eta); u != 0 {
			t.Fatalf("z=%v p=%v eta=%v: underflow prox = %v, want 0", tc.z, tc.p, tc.eta, u)
		}
	}
}

func TestKruithofBalanceMatchesMarginals(t *testing.T) {
	prior := fromRows([][]float64{
		{1, 1, 1},
		{1, 1, 1},
		{1, 1, 1},
	})
	rows := linalg.Vector{6, 3, 1}
	cols := linalg.Vector{4, 4, 2}
	x, res, err := KruithofBalance(prior, rows, cols, 500, 1e-10)
	if err != nil {
		t.Fatalf("KruithofBalance: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i := 0; i < 3; i++ {
		if math.Abs(x.Row(i).Sum()-rows[i]) > 1e-6 {
			t.Fatalf("row %d sum %v, want %v", i, x.Row(i).Sum(), rows[i])
		}
	}
	for j := 0; j < 3; j++ {
		var sum float64
		for i := 0; i < 3; i++ {
			sum += x.At(i, j)
		}
		if math.Abs(sum-cols[j]) > 1e-6 {
			t.Fatalf("col %d sum %v", j, sum)
		}
	}
}

func TestKruithofBalancePreservesZeros(t *testing.T) {
	prior := fromRows([][]float64{
		{0, 1},
		{1, 1},
	})
	x, _, err := KruithofBalance(prior, linalg.Vector{1, 2}, linalg.Vector{1.5, 1.5}, 500, 1e-10)
	if err != nil {
		t.Fatalf("KruithofBalance: %v", err)
	}
	if x.At(0, 0) != 0 {
		t.Fatalf("zero of prior not preserved: %v", x.At(0, 0))
	}
}

func TestKruithofBalanceEmptyRowError(t *testing.T) {
	prior := fromRows([][]float64{
		{0, 0},
		{1, 1},
	})
	if _, _, err := KruithofBalance(prior, linalg.Vector{1, 1}, linalg.Vector{1, 1}, 100, 1e-9); err == nil {
		t.Fatal("expected error for empty prior row with positive target")
	}
}

func BenchmarkNNLS(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := randDense(rng, 72, 132)
	x := linalg.NewVector(132)
	for i := range x {
		x[i] = math.Abs(rng.NormFloat64())
	}
	rhs := denseMulVec(a, nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNLS(a, rhs)
	}
}

func BenchmarkFISTANonneg(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 72, 132)
	x := linalg.NewVector(132)
	for i := range x {
		x[i] = math.Abs(rng.NormFloat64())
	}
	rhs := denseMulVec(a, nil, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LeastSquaresNonneg(nil, DenseOp{a}, rhs, nil, 0, nil, 2000, 1e-8)
	}
}
