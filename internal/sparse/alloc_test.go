package sparse_test

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// TestTripletFromOutside pins the exported construction surface: an
// external package (here sparse_test) must be able to build matrices
// from []sparse.Triplet literals — the bulk-construction path callers
// outside the package use when they assemble entries themselves instead
// of driving a Builder.
func TestTripletFromOutside(t *testing.T) {
	ts := []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 2, Val: 3},
		{Row: 1, Col: 1, Val: 2},
	}
	m := sparse.NewFromTriplets(2, 3, ts)
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("got %dx%d with %d nnz, want 2x3 with 3", m.Rows(), m.Cols(), m.NNZ())
	}
	if got := m.At(0, 2); got != 3 {
		t.Fatalf("At(0,2) = %v, want 3", got)
	}
	if got := m.At(1, 1); got != 2 {
		t.Fatalf("At(1,1) = %v, want 2", got)
	}
}

func benchMatrix(tb testing.TB) *sparse.Matrix {
	tb.Helper()
	b := sparse.NewBuilder(6, 8)
	for r := 0; r < 6; r++ {
		for c := r % 3; c < 8; c += 3 {
			b.Add(r, c, float64(r+c+1))
		}
	}
	return b.Build()
}

// TestMulVecReusedDstAllocFree pins the buffer-reuse contract of the
// multiply kernels: with a correctly sized dst, MulVec and MulVecT are
// the zero-allocation inner loop every iterative solver spins on.
func TestMulVecReusedDstAllocFree(t *testing.T) {
	m := benchMatrix(t)
	x := linalg.NewVector(m.Cols())
	for i := range x {
		x[i] = float64(i + 1)
	}
	y := linalg.NewVector(m.Rows())
	if allocs := testing.AllocsPerRun(100, func() { m.MulVec(y, x) }); allocs != 0 {
		t.Errorf("MulVec with reused dst allocated %.0f times per run, want 0", allocs)
	}
	xt := linalg.NewVector(m.Cols())
	if allocs := testing.AllocsPerRun(100, func() { m.MulVecT(xt, y) }); allocs != 0 {
		t.Errorf("MulVecT with reused dst allocated %.0f times per run, want 0", allocs)
	}
}

// TestResidualGradAllocFree pins the same contract on the fused
// residual/gradient kernel the entropy solver iterates on.
func TestResidualGradAllocFree(t *testing.T) {
	m := benchMatrix(t)
	x := linalg.NewVector(m.Cols())
	for i := range x {
		x[i] = float64(i + 1)
	}
	b := linalg.NewVector(m.Rows())
	r, g := linalg.NewVector(m.Rows()), linalg.NewVector(m.Cols())
	if allocs := testing.AllocsPerRun(100, func() { m.ResidualGrad(r, g, x, b) }); allocs != 0 {
		t.Errorf("ResidualGrad with reused buffers allocated %.0f times per run, want 0", allocs)
	}
}
