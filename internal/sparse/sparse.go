// Package sparse implements the compressed-sparse-row (CSR) substrate
// that lets the tomography stack scale past the dense ceiling: routing
// matrices are 0/1 with a handful of nonzeros per path, so at ISP scale
// (10⁵ links) the dense P×L matrix, the L×L Gram matrix, and the dense
// estimation operator T = (RᵀR)⁻¹Rᵀ are all unaffordable, while the CSR
// form costs O(nnz) and a fill-reducing sparse Cholesky factor of RᵀR
// stays within a small multiple of it.
//
// Determinism contract: every kernel in this package accumulates in a
// fixed order (row-major over the stored nonzeros, input order for
// duplicate-triplet assembly), uses no maps in numeric paths, and runs
// single-threaded, so results are bit-identical across runs, platforms,
// and GOMAXPROCS. The solvers inherit that: the Cholesky ordering is a
// function of the pattern alone, and CGLS on the same matrix, right-hand
// side and options runs the same iterate sequence.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/la"
)

// ErrBadTriplet is returned by FromTriplets for out-of-bounds or
// non-finite entries. Malformed input is an error, never a panic: the
// constructor is fuzzed on that contract.
var ErrBadTriplet = errors.New("sparse: bad triplet")

// Triplet is one (row, col, value) coordinate entry, the assembly
// currency of FromTriplets.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is an immutable compressed-sparse-row matrix of float64. Within
// each row the stored column indices are strictly increasing, so every
// traversal — matvecs, digests, Dense — visits nonzeros in a canonical
// row-major order. Construct with FromTriplets or FromDense; the zero
// value is an empty 0×0 matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int // len rows+1; row i occupies [rowPtr[i], rowPtr[i+1])
	colIdx     []int // len nnz, strictly increasing within each row
	val        []float64
}

// FromTriplets assembles an r×c CSR matrix from coordinate entries.
// Triplets may arrive in any order; duplicates of the same (row, col)
// are summed in input order (standard finite-element assembly
// semantics) and entries whose final value is exactly zero are dropped,
// so the result is a canonical minimal representation. Out-of-bounds
// coordinates, negative dimensions, and NaN/Inf values are rejected
// with ErrBadTriplet.
func FromTriplets(r, c int, ts []Triplet) (*CSR, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("sparse: FromTriplets %d×%d: negative dimension: %w", r, c, ErrBadTriplet)
	}
	for i, t := range ts {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			return nil, fmt.Errorf("sparse: triplet %d at (%d,%d) outside %d×%d: %w",
				i, t.Row, t.Col, r, c, ErrBadTriplet)
		}
		if math.IsNaN(t.Val) || math.IsInf(t.Val, 0) {
			return nil, fmt.Errorf("sparse: triplet %d at (%d,%d) has non-finite value %g: %w",
				i, t.Row, t.Col, t.Val, ErrBadTriplet)
		}
	}
	// Stable sort by (row, col) keeps duplicate groups in input order,
	// so their summation order — and thus the rounded result — is
	// deterministic for a given input sequence.
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{rows: r, cols: c, rowPtr: make([]int, r+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.val = append(m.val, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < r; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m, nil
}

// FromDense converts a dense matrix to CSR, keeping every nonzero.
func FromDense(d *la.Matrix) *CSR {
	r, c := d.Rows(), d.Cols()
	m := &CSR{rows: r, cols: c, rowPtr: make([]int, r+1)}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if v := d.At(i, j); v != 0 {
				m.colIdx = append(m.colIdx, j)
				m.val = append(m.val, v)
			}
		}
		m.rowPtr[i+1] = len(m.colIdx)
	}
	return m
}

// AppendRow returns a copy of m with one more row, holding 1 at each
// of the distinct columns cols (in any order) — the routing row of one
// more measurement path. The receiver is unchanged.
func (m *CSR) AppendRow(cols []int) (*CSR, error) {
	row := slices.Clone(cols)
	slices.Sort(row)
	for k, j := range row {
		if j < 0 || j >= m.cols || k > 0 && row[k-1] == j {
			return nil, fmt.Errorf("sparse: AppendRow column %d out of range or repeated in a %d-column matrix: %w",
				j, m.cols, ErrBadTriplet)
		}
	}
	ones := make([]float64, len(row))
	for k := range ones {
		ones[k] = 1
	}
	return &CSR{
		rows: m.rows + 1, cols: m.cols,
		rowPtr: append(slices.Clip(m.rowPtr), len(m.colIdx)+len(row)),
		colIdx: append(slices.Clip(m.colIdx), row...),
		val:    append(slices.Clip(m.val), ones...),
	}, nil
}

// RemoveRow returns a copy of m without row i, which must be in range.
// The receiver is unchanged.
func (m *CSR) RemoveRow(i int) *CSR {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	rowPtr := slices.Clone(m.rowPtr[:m.rows])
	for k := i + 1; k < m.rows; k++ {
		rowPtr[k] = m.rowPtr[k+1] - (hi - lo)
	}
	return &CSR{
		rows: m.rows - 1, cols: m.cols, rowPtr: rowPtr,
		colIdx: slices.Concat(m.colIdx[:lo], m.colIdx[hi:]),
		val:    slices.Concat(m.val[:lo], m.val[hi:]),
	}
}

// Dense materializes the matrix as dense storage — for tests, digests
// of small systems, and the dense-oracle comparisons only. Callers on
// the scaling path must never invoke it.
func (m *CSR) Dense() *la.Matrix {
	d := la.NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.val[k])
		}
	}
	return d
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.colIdx) }

// At returns the element at (i, j), using binary search within the row.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// Row calls f for each stored nonzero (col, val) of row i, in
// increasing column order.
func (m *CSR) Row(i int, f func(j int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		f(m.colIdx[k], m.val[k])
	}
}

// MulVec returns A·x. Accumulation is row-major over stored nonzeros.
func (m *CSR) MulVec(x la.Vector) (la.Vector, error) {
	out := make(la.Vector, m.rows)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes A·x into dst (length rows), in MulVec's
// summation order, for per-round callers that reuse one output buffer.
func (m *CSR) MulVecInto(dst, x la.Vector) error {
	if len(x) != m.cols {
		return fmt.Errorf("sparse: MulVec %d×%d by vector of length %d: %w",
			m.rows, m.cols, len(x), la.ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("sparse: MulVecInto dst length %d, want %d: %w",
			len(dst), m.rows, la.ErrShape)
	}
	for i := range dst {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		vals := m.val[lo:hi]
		var s float64
		for q, j := range m.colIdx[lo:hi] {
			s += vals[q] * x[j]
		}
		dst[i] = s
	}
	return nil
}

// MulVecT returns Aᵀ·y without forming the transpose: the stored
// nonzeros are scattered into the output in row-major order, which is a
// fixed summation order per output element.
func (m *CSR) MulVecT(y la.Vector) (la.Vector, error) {
	out := make(la.Vector, m.cols)
	if err := m.MulVecTInto(out, y); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecTInto computes Aᵀ·y into dst (length cols, zeroed here), so
// per-round callers — the forensics suspicion ledger projects every
// streamed round's residual through Rᵀ — can reuse one output buffer
// instead of allocating a links-length vector per round. Same fixed
// summation order as MulVecT.
func (m *CSR) MulVecTInto(dst, y la.Vector) error {
	if len(y) != m.rows {
		return fmt.Errorf("sparse: MulVecT %d×%d by vector of length %d: %w",
			m.rows, m.cols, len(y), la.ErrShape)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("sparse: MulVecTInto dst length %d, want %d: %w",
			len(dst), m.cols, la.ErrShape)
	}
	clear(dst)
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		vals := m.val[lo:hi]
		for q, j := range m.colIdx[lo:hi] {
			dst[j] += vals[q] * yi
		}
	}
	return nil
}
