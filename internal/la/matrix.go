// Package la implements the dense linear algebra needed by network
// tomography: matrices, vectors, Cholesky/QR factorizations,
// least-squares solves, and numerical rank.
//
// The Go standard library has no matrix support, so everything here is
// built from scratch. Matrices are dense, row-major, float64. Sizes in
// this project are modest (hundreds of paths × hundreds of links), so
// simple cache-friendly dense algorithms are the right tool; no attempt
// is made at blocking or SIMD.
package la

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned when matrix or vector dimensions do not conform.
var ErrShape = errors.New("la: dimension mismatch")

// ErrSingular is returned when a factorization encounters a singular
// (or numerically singular) matrix.
var ErrSingular = errors.New("la: singular matrix")

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite.
var ErrNotSPD = errors.New("la: matrix not symmetric positive definite")

// Matrix is a dense, row-major matrix of float64.
//
// The zero value is an empty 0×0 matrix. Use NewMatrix or NewMatrixFrom
// to create one with content.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns an r×c zero matrix.
// It panics if r or c is negative, matching the behaviour of make.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: NewMatrix with negative dimension %d×%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is
// copied, so the caller keeps ownership of data.
func NewMatrixFrom(r, c int, data []float64) (*Matrix, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("la: NewMatrixFrom %d×%d needs %d values, got %d: %w",
			r, c, r*c, len(data), ErrShape)
	}
	m := NewMatrix(r, c)
	copy(m.data, data)
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i as a vector.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("la: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	out := make(Vector, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j as a vector.
func (m *Matrix) Col(j int) Vector {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: col %d out of range for %d×%d matrix", j, m.rows, m.cols))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v Vector) error {
	if len(v) != m.cols {
		return fmt.Errorf("la: SetRow needs %d values, got %d: %w", m.cols, len(v), ErrShape)
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
	return nil
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("la: Mul %d×%d by %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := NewMatrix(m.rows, b.cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows.
	for i := 0; i < m.rows; i++ {
		mRow := m.data[i*m.cols : (i+1)*m.cols]
		outRow := out.data[i*out.cols : (i+1)*out.cols]
		for k := 0; k < m.cols; k++ {
			a := mRow[k]
			if a == 0 {
				continue
			}
			bRow := b.data[k*b.cols : (k+1)*b.cols]
			for j := range outRow {
				outRow[j] += a * bRow[j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v Vector) (Vector, error) {
	out := make(Vector, m.rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes m·v into dst (length rows), for per-round callers
// that reuse one output buffer.
func (m *Matrix) MulVecInto(dst, v Vector) error {
	if m.cols != len(v) {
		return fmt.Errorf("la: MulVec %d×%d by vector of length %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("la: MulVecInto dst length %d, want %d: %w", len(dst), m.rows, ErrShape)
	}
	for i := range dst {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
	return nil
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("la: Add %d×%d and %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("la: Sub %d×%d and %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Equal reports whether m and b have the same shape and every pair of
// elements differs by at most tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute value of any element, or 0 for an
// empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d×%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4g", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
