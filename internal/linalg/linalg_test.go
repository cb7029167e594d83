package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
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
	m.Set(0, 1, 7)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v", m.At(0, 1))
	}
	r := m.Row(0)
	r[2] = 9
	if m.At(0, 2) != 9 {
		t.Fatal("Row is not a view")
	}
	c := m.Clone()
	c.Set(0, 2, 1)
	if m.At(0, 2) != 9 || c.At(0, 2) != 1 {
		t.Fatal("Clone shares storage with its source")
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
