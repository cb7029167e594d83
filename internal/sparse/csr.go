// Package sparse implements compressed sparse row (CSR) matrices.
//
// Routing matrices are extremely sparse 0/1 matrices (a demand crosses only
// the links on its path), and the second-moment systems used by Vardi's
// method blow up to L(L+1)/2 rows; CSR keeps both the memory footprint and
// the matrix-vector products proportional to the number of nonzeros.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
)

// Matrix is an immutable CSR matrix. Construct one with a Builder or from
// triplets via NewFromTriplets.
type Matrix struct {
	rows, cols int
	rowPtr     []int     // len rows+1
	colIdx     []int     // len nnz
	val        []float64 // len nnz
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// Builder accumulates entries row by row to build a CSR matrix. Entries may
// be added to any row in any order; duplicates within a row are summed.
//
// A Builder may be reused across assemblies: Build truncates the entry
// buffer without releasing its capacity, so a Grow-sized Builder driving a
// repeated assembly loop (the Vardi/Cao second-moment systems) appends
// into the same backing array every round instead of reallocating it.
type Builder struct {
	rows, cols int
	entries    []Triplet
}

// Triplet is one (row, col, value) coordinate entry, the exchange format
// of NewFromTriplets and the Builder's internal accumulation record.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Grow preallocates capacity for n additional entries, so large assemblies
// (the second-moment systems of the Vardi and Cao estimators reach
// hundreds of thousands of entries on 100-PoP backbones) append without
// repeated reallocation.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(b.entries) - len(b.entries); free < n {
		grown := make([]Triplet, len(b.entries), len(b.entries)+n)
		copy(grown, b.entries)
		b.entries = grown
	}
}

// Add accumulates v at position (r, c). Zero values are dropped.
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds for %dx%d", r, c, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, Triplet{r, c, v})
}

// Build finalizes the matrix. The Builder may be reused afterwards and
// starts empty, but keeps its accumulated (and Grow-preallocated)
// capacity — safe because NewFromTriplets copies the entries into fresh
// CSR arrays, so the next assembly cannot alias the built matrix.
func (b *Builder) Build() *Matrix {
	m := NewFromTriplets(b.rows, b.cols, b.entries)
	b.entries = b.entries[:0]
	return m
}

// NewFromTriplets builds a CSR matrix from (row, col, value) triplets,
// summing duplicates. The triplet slice is sorted in place (by row, then
// column) as a side effect; its contents are copied, never retained.
func NewFromTriplets(rows, cols int, ts []Triplet) *Matrix {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Row != ts[j].Row {
			return ts[i].Row < ts[j].Row
		}
		return ts[i].Col < ts[j].Col
	})
	m := &Matrix{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i + 1
		v := ts[i].Val
		for j < len(ts) && ts[j].Row == ts[i].Row && ts[j].Col == ts[i].Col {
			v += ts[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, ts[i].Col)
			m.val = append(m.val, v)
			m.rowPtr[ts[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// ToDense converts m to a dense matrix.
func (m *Matrix) ToDense() *linalg.Matrix {
	d := linalg.NewMatrix(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			d.Set(r, m.colIdx[k], m.val[k])
		}
	}
	return d
}

// At returns element (r, c) (O(log nnz-in-row)).
func (m *Matrix) At(r, c int) float64 {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], c)
	if k < hi && m.colIdx[k] == c {
		return m.val[k]
	}
	return 0
}

// Equal reports whether m and o have the same shape and exactly the
// same stored entries (CSR normal form makes this a linear comparison).
// It is how a routing hot-swap detects that the "new" matrix is the one
// already installed and degrades to a no-op.
func (m *Matrix) Equal(o *Matrix) bool {
	if m == o {
		return true
	}
	if m == nil || o == nil || m.rows != o.rows || m.cols != o.cols || len(m.val) != len(o.val) {
		return false
	}
	for r := 0; r <= m.rows; r++ {
		if m.rowPtr[r] != o.rowPtr[r] {
			return false
		}
	}
	for k := range m.val {
		if m.colIdx[k] != o.colIdx[k] || m.val[k] != o.val[k] {
			return false
		}
	}
	return true
}

// Row calls fn(col, val) for each stored entry in row r, in column order.
func (m *Matrix) Row(r int, fn func(c int, v float64)) {
	for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// RowNNZ returns the number of stored entries in row r.
func (m *Matrix) RowNNZ(r int) int { return m.rowPtr[r+1] - m.rowPtr[r] }

// MulVec computes dst = m·x. If dst is nil a new vector is allocated.
// dst must not alias x.
func (m *Matrix) MulVec(dst, x linalg.Vector) linalg.Vector {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch %dx%d * %d", m.rows, m.cols, len(x)))
	}
	if dst == nil {
		dst = linalg.NewVector(m.rows)
	} else if len(dst) != m.rows {
		panic("sparse: MulVec bad dst length")
	}
	for r := 0; r < m.rows; r++ {
		var s float64
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		dst[r] = s
	}
	return dst
}

// MulVecT computes dst = mᵀ·x. If dst is nil a new vector is allocated.
// dst must not alias x.
func (m *Matrix) MulVecT(dst, x linalg.Vector) linalg.Vector {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT shape mismatch %dx%d^T * %d", m.rows, m.cols, len(x)))
	}
	if dst == nil {
		dst = linalg.NewVector(m.cols)
	} else if len(dst) != m.cols {
		panic("sparse: MulVecT bad dst length")
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			dst[m.colIdx[k]] += m.val[k] * xr
		}
	}
	return dst
}

// ResidualGrad sets r = m·x − b and g = mᵀ·r in one pass over the rows,
// the gradient half of a least-squares step (up to the factor 2). Each
// row's residual is summed in column order, and scattered into g as soon
// as it is known; rows whose residual is exactly zero scatter nothing,
// as MulVecT skips them. The arithmetic and its order are those of
// MulVec, linalg.Sub and MulVecT in sequence, so r and g are
// bit-identical to that three-pass form while the matrix is read once.
// r and g must not alias each other, x or b.
func (m *Matrix) ResidualGrad(r, g, x, b linalg.Vector) {
	if len(x) != m.cols || len(g) != m.cols || len(r) != m.rows || len(b) != m.rows {
		panic(fmt.Sprintf("sparse: ResidualGrad shape mismatch %dx%d with x %d, b %d, r %d, g %d", m.rows, m.cols, len(x), len(b), len(r), len(g)))
	}
	for i := range g {
		g[i] = 0
	}
	for row := range r {
		lo, hi := m.rowPtr[row], m.rowPtr[row+1]
		cols, vals := m.colIdx[lo:hi], m.val[lo:hi]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		s -= b[row]
		r[row] = s
		if s == 0 {
			continue
		}
		for k, c := range cols {
			g[c] += vals[k] * s
		}
	}
}

// reshape points dst at a rows×cols layout with nnz stored entries,
// reusing dst's backing arrays when their capacity suffices. A nil dst
// allocates a fresh matrix. The returned matrix's arrays are NOT zeroed.
func reshape(dst *Matrix, rows, cols, nnz int) *Matrix {
	if dst == nil {
		dst = &Matrix{}
	}
	dst.rows, dst.cols = rows, cols
	if cap(dst.rowPtr) >= rows+1 {
		dst.rowPtr = dst.rowPtr[:rows+1]
	} else {
		dst.rowPtr = make([]int, rows+1)
	}
	if cap(dst.colIdx) >= nnz {
		dst.colIdx = dst.colIdx[:nnz]
	} else {
		dst.colIdx = make([]int, nnz)
	}
	if cap(dst.val) >= nnz {
		dst.val = dst.val[:nnz]
	} else {
		dst.val = make([]float64, nnz)
	}
	return dst
}

// T returns the transpose as a new CSR matrix.
func (m *Matrix) T() *Matrix { return m.TInto(nil) }

// TInto writes the transpose of m into dst, reusing dst's backing arrays
// when they are large enough (nil dst allocates). dst must not be m. The
// entries come out identical to T()'s — per transposed row in ascending
// column order — so repeated re-assemblies (the Vardi/Cao second-moment
// caches) can hold one reusable transpose buffer.
func (m *Matrix) TInto(dst *Matrix) *Matrix {
	if dst == m {
		panic("sparse: TInto dst must not alias the receiver")
	}
	dst = reshape(dst, m.cols, m.rows, len(m.val))
	for i := range dst.rowPtr {
		dst.rowPtr[i] = 0
	}
	for _, c := range m.colIdx {
		dst.rowPtr[c+1]++
	}
	for r := 0; r < dst.rows; r++ {
		dst.rowPtr[r+1] += dst.rowPtr[r]
	}
	// next[c] tracks the insertion cursor of transposed row c; walking m's
	// rows in order lands each transposed row's entries in ascending
	// original-row (= new column) order, matching the builder-based layout.
	next := dst.rowPtr
	cursor := make([]int, dst.rows)
	copy(cursor, next[:dst.rows])
	for r := 0; r < m.rows; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			c := m.colIdx[k]
			dst.colIdx[cursor[c]] = r
			dst.val[cursor[c]] = m.val[k]
			cursor[c]++
		}
	}
	return dst
}

// Scale returns a new matrix with every entry multiplied by a.
func (m *Matrix) Scale(a float64) *Matrix { return m.ScaleInto(nil, a) }

// ScaleInto writes a copy of m with every entry multiplied by a into
// dst, reusing dst's backing arrays when they are large enough (nil dst
// allocates). dst may be m itself for an in-place scale.
func (m *Matrix) ScaleInto(dst *Matrix, a float64) *Matrix {
	if dst == m {
		for i := range m.val {
			m.val[i] *= a
		}
		return m
	}
	dst = reshape(dst, m.rows, m.cols, len(m.val))
	copy(dst.rowPtr, m.rowPtr)
	copy(dst.colIdx, m.colIdx)
	for i, v := range m.val {
		dst.val[i] = v * a
	}
	return dst
}

// VStack stacks matrices vertically. All must share the same column count.
func VStack(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("sparse: VStack of nothing")
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic("sparse: VStack column mismatch")
		}
		rows += m.rows
	}
	b := NewBuilder(rows, cols)
	off := 0
	for _, m := range ms {
		for r := 0; r < m.rows; r++ {
			for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
				b.Add(off+r, m.colIdx[k], m.val[k])
			}
		}
		off += m.rows
	}
	return b.Build()
}
