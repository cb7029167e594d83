package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestDot(t *testing.T) {
	u := Vector{1, 2, 3}
	v := Vector{4, 5, 6}
	if got := Dot(u, v); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestAxpy(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{10, 20, 30}
	Axpy(2, x, y)
	want := Vector{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestAddSub: Sub undoes an addition, (u+v) − v = u, also when dst
// aliases an operand.
func TestAddSub(t *testing.T) {
	u := Vector{1, 2}
	v := Vector{3, 5}
	sum := Vector{4, 7}
	if dst := Sub(NewVector(2), sum, v); dst[0] != u[0] || dst[1] != u[1] {
		t.Fatalf("Sub = %v, want %v", dst, u)
	}
	Sub(sum, sum, u)
	if sum[0] != v[0] || sum[1] != v[1] {
		t.Fatalf("aliased Sub = %v, want %v", sum, v)
	}
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm2(); !almostEqual(got, 5, tol) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	v := Vector{1e200, 1e200}
	want := 1e200 * math.Sqrt(2)
	if got := v.Norm2(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-guard failed: %v want %v", got, want)
	}
}

func TestMinMaxSum(t *testing.T) {
	v := Vector{2, -1, 5, 3}
	if mx, i := v.Max(); mx != 5 || i != 2 {
		t.Errorf("Max = %v,%d", mx, i)
	}
	if s := v.Sum(); s != 9 {
		t.Errorf("Sum = %v", s)
	}
}

func TestClampNonNegative(t *testing.T) {
	v := Vector{-1, 0, 2, -3}
	v.ClampNonNegative()
	for i, x := range v {
		if x < 0 {
			t.Fatalf("element %d still negative: %v", i, x)
		}
	}
	if v[2] != 2 {
		t.Fatalf("positive element modified")
	}
}

func TestAllFinite(t *testing.T) {
	if !(Vector{1, 2}).AllFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).AllFinite() {
		t.Error("NaN not detected")
	}
	if (Vector{math.Inf(1)}).AllFinite() {
		t.Error("Inf not detected")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	r := m.Row(0)
	r[2] = 9
	if m.At(0, 2) != 9 {
		t.Fatal("Row is not a view")
	}
	c := m.Col(2)
	if c[0] != 9 || c[1] != 0 {
		t.Fatalf("Col = %v", c)
	}
}

func TestMatrixFromRowsAndTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMulVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 7, 5)
	x := randomVector(rng, 5)
	y := m.MulVec(nil, x)
	for i := 0; i < m.Rows; i++ {
		var want float64
		for j := 0; j < m.Cols; j++ {
			want += m.At(i, j) * x[j]
		}
		if !almostEqual(y[i], want, tol) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestMulVecTEqualsTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 6, 4)
	x := randomVector(rng, 6)
	got := m.MulVecT(nil, x)
	want := m.T().MulVec(nil, x)
	for i := range want {
		if !almostEqual(got[i], want[i], tol) {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 4, 4)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	p := Mul(m, id)
	for i := range m.Data {
		if !almostEqual(p.Data[i], m.Data[i], tol) {
			t.Fatal("M*I != M")
		}
	}
}

func TestMulAtA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 8, 5)
	got := MulAtA(m)
	want := Mul(m.T(), m)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], tol) {
			t.Fatalf("MulAtA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 6, 6)
	spd := MulAtA(a)
	for i := 0; i < 6; i++ {
		spd.Add(i, i, 1)
	}
	xTrue := randomVector(rng, 6)
	b := spd.MulVec(nil, xTrue)
	ch, err := NewCholesky(spd)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	x := ch.Solve(b)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-7) {
			t.Fatalf("Cholesky solve x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestQRSolveSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 5, 5)
	xTrue := randomVector(rng, 5)
	b := a.MulVec(nil, xTrue)
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-7) {
			t.Fatalf("QR solve x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestQRLeastSquaresResidualOrthogonal(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 10, 4)
	b := randomVector(rng, 10)
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	r := Sub(NewVector(10), a.MulVec(nil, x), b)
	for j, v := range a.MulVecT(nil, r) {
		if math.Abs(v) > 1e-8 {
			t.Fatalf("residual not orthogonal: (Aᵀr)[%d] = %v", j, v)
		}
	}
}

func TestQRRankDeficientReturnsError(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	f, err := NewQR(a)
	if err != nil {
		t.Fatalf("NewQR: %v", err)
	}
	if _, err := f.Solve(Vector{1, 2, 3}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient system")
	}
}

func TestSolveLeastSquaresFallback(t *testing.T) {
	// Rank-deficient: fallback must still return a finite minimizer.
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := Vector{2, 4, 6}
	x := SolveLeastSquares(a, b)
	if !x.AllFinite() {
		t.Fatal("fallback produced non-finite solution")
	}
	r := Sub(NewVector(3), a.MulVec(nil, x), b)
	if r.Norm2() > 1e-4 {
		t.Fatalf("fallback residual too large: %v", r.Norm2())
	}
}

// Property: for any vectors, Dot(u,v) == Dot(v,u) and |Dot| <= |u||v|.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		u, v := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		d1, d2 := Dot(u, v), Dot(v, u)
		if d1 != d2 {
			return false
		}
		return math.Abs(d1) <= u.Norm2()*v.Norm2()*(1+1e-9)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		tt := m.T().T()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				t.Fatal("(Mᵀ)ᵀ != M")
			}
		}
	}
}

// Property: Cholesky solve of A=LLᵀ reproduces b.
func TestCholeskyRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n+2, n)
		spd := MulAtA(a)
		for i := 0; i < n; i++ {
			spd.Add(i, i, 0.5)
		}
		ch, err := NewCholesky(spd)
		if err != nil {
			t.Fatalf("NewCholesky: %v", err)
		}
		x := randomVector(rng, n)
		b := spd.MulVec(nil, x)
		got := ch.Solve(b)
		back := spd.MulVec(nil, got)
		for i := range b {
			if !almostEqual(back[i], b[i], 1e-6) {
				t.Fatalf("round trip failed: %v vs %v", back[i], b[i])
			}
		}
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randomMatrix(rng, 284, 600)
	x := randomVector(rng, 600)
	dst := NewVector(284)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func BenchmarkCholesky(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 140, 120)
	spd := MulAtA(a)
	for i := 0; i < 120; i++ {
		spd.Add(i, i, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(spd); err != nil {
			b.Fatal(err)
		}
	}
}
