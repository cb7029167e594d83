package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Add increments element (i, j) by x.
func (m *Matrix) Add(i, j int, x float64) { m.Data[i*m.Cols+j] += x }

// Row returns row i as a mutable slice view.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Col copies column j into a new vector.
func (m *Matrix) Col(j int) Vector {
	v := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		v[i] = m.At(i, j)
	}
	return v
}

// Clone returns an independent deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, x := range ri {
			t.Data[j*t.Cols+i] = x
		}
	}
	return t
}

// MulVec computes dst = m * x and returns dst. If dst is nil a new vector is
// allocated. dst must not alias x.
func (m *Matrix) MulVec(dst, x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	if dst == nil {
		dst = NewVector(m.Rows)
	} else if len(dst) != m.Rows {
		panic("linalg: MulVec bad dst length")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}

// MulVecT computes dst = mᵀ * x and returns dst. If dst is nil a new vector
// is allocated. dst must not alias x.
func (m *Matrix) MulVecT(dst, x Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecT shape mismatch %dx%d^T * %d", m.Rows, m.Cols, len(x)))
	}
	if dst == nil {
		dst = NewVector(m.Cols)
	} else if len(dst) != m.Cols {
		panic("linalg: MulVecT bad dst length")
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
	return dst
}

// Mul computes a * b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ci := c.Row(i)
		ai := a.Row(i)
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			Axpy(aik, b.Row(k), ci)
		}
	}
	return c
}

// MulAtA computes mᵀ·m (the Gram matrix) exploiting symmetry.
func MulAtA(m *Matrix) *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			gi := g.Row(i)
			for j := i; j < len(row); j++ {
				gi[j] += xi * row[j]
			}
		}
	}
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < i; j++ {
			g.Set(i, j, g.At(j, i))
		}
	}
	return g
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, x := range m.Data {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n"
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf(" %9.4g", m.At(i, j))
			}
		}
	}
	return s
}
