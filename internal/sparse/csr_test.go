package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func randomSparse(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	b := NewBuilder(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				b.Add(r, c, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestBuilderAndAt(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(2, 3, 5)
	b.Add(0, 1, 3) // duplicate: summed
	b.Add(1, 0, 0) // zero: dropped
	m := b.Build()
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(2, 3); got != 5 {
		t.Fatalf("At(2,3) = %v, want 5", got)
	}
	if got := m.At(1, 0); got != 0 {
		t.Fatalf("At(1,0) = %v, want 0", got)
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Grow(100)
	if cap(b.entries) < 100 {
		t.Fatalf("Grow(100) left capacity %d", cap(b.entries))
	}
	b.Add(0, 0, 1)
	b.Add(2, 1, 2)
	b.Grow(-5) // no-op
	b.Grow(1)  // already have room: no reallocation needed
	b.Add(1, 2, 3)
	m := b.Build()
	if m.NNZ() != 3 || m.At(0, 0) != 1 || m.At(2, 1) != 2 || m.At(1, 2) != 3 {
		t.Fatalf("entries lost across Grow: nnz=%d", m.NNZ())
	}
	// Grow after entries exist must preserve them when reallocating.
	b2 := NewBuilder(2, 2)
	b2.Add(0, 0, 7)
	b2.Grow(50)
	b2.Add(1, 1, 8)
	m2 := b2.Build()
	if m2.At(0, 0) != 7 || m2.At(1, 1) != 8 {
		t.Fatal("Grow reallocation dropped entries")
	}
}

func TestBuilderBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := linalg.NewMatrix(6, 9)
	b := NewBuilder(6, 9)
	for i := range d.Data {
		if rng.Float64() < 0.3 {
			d.Data[i] = rng.NormFloat64()
			b.Add(i/9, i%9, d.Data[i])
		}
	}
	back := b.Build().ToDense()
	for i := range d.Data {
		if d.Data[i] != back.Data[i] {
			t.Fatal("dense round trip mismatch")
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomSparse(rng, 15, 11, 0.25)
	d := m.ToDense()
	x := linalg.NewVector(11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulVec(nil, x)
	want := linalg.NewVector(15)
	for i := range want {
		want[i] = linalg.Dot(d.Row(i), x)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulVecTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSparse(rng, 15, 11, 0.25)
	d := m.ToDense()
	x := linalg.NewVector(15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := m.MulVecT(nil, x)
	want := linalg.NewVector(11)
	for i := range x {
		linalg.Axpy(x[i], d.Row(i), want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomSparse(rng, 7, 13, 0.2)
	mt := m.T()
	if mt.Rows() != 13 || mt.Cols() != 7 {
		t.Fatalf("T shape %dx%d", mt.Rows(), mt.Cols())
	}
	for r := 0; r < m.Rows(); r++ {
		m.Row(r, func(c int, v float64) {
			if mt.At(c, r) != v {
				t.Fatalf("T mismatch at %d,%d", r, c)
			}
		})
	}
}

func TestScale(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Add(0, 0, 2)
	b.Add(0, 1, -3)
	m := b.Build().Scale(0.5)
	if m.At(0, 0) != 1 || m.At(0, 1) != -1.5 {
		t.Fatal("Scale wrong")
	}
}

func TestVStack(t *testing.T) {
	b1 := NewBuilder(2, 3)
	b1.Add(0, 0, 1)
	b1.Add(1, 2, 2)
	b2 := NewBuilder(1, 3)
	b2.Add(0, 1, 7)
	s := VStack(b1.Build(), b2.Build())
	if s.Rows() != 3 || s.Cols() != 3 {
		t.Fatalf("shape %dx%d", s.Rows(), s.Cols())
	}
	if s.At(0, 0) != 1 || s.At(1, 2) != 2 || s.At(2, 1) != 7 {
		t.Fatal("VStack wrong content")
	}
}

func TestRowNNZ(t *testing.T) {
	b := NewBuilder(2, 4)
	b.Add(0, 0, 1)
	b.Add(0, 3, 1)
	m := b.Build()
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 {
		t.Fatal("RowNNZ wrong")
	}
}

// Property: (mᵀ)ᵀ equals m for random sparse matrices.
func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := randomSparse(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		tt := m.T().T()
		if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
			t.Fatal("shape/nnz mismatch after double transpose")
		}
		for r := 0; r < m.Rows(); r++ {
			m.Row(r, func(c int, v float64) {
				if tt.At(r, c) != v {
					t.Fatal("value mismatch after double transpose")
				}
			})
		}
	}
}

// Property: yᵀ(Mx) == (Mᵀy)ᵀx (adjoint identity).
func TestAdjointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomSparse(rng, rows, cols, 0.3)
		x := linalg.NewVector(cols)
		y := linalg.NewVector(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		lhs := linalg.Dot(y, m.MulVec(nil, x))
		rhs := linalg.Dot(m.MulVecT(nil, y), x)
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

func BenchmarkSparseMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	m := randomSparse(rng, 284, 600, 0.05)
	x := linalg.NewVector(600)
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := linalg.NewVector(284)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}
