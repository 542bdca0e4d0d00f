package sparse

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// pivotRelTol is the rank screen of the factorization. Eliminating
// column k subtracts from its Gram diagonal ‖a_k‖² the part of a_k
// already spanned by the columns eliminated before it; a pivot
// L_kk² ≤ pivotRelTol·‖a_k‖² means cancellation has consumed all but
// 1e-8 of the column, so a_k is numerically in their span and AᵀA is
// singular. Measured against the column's own norm the test is
// invariant under column scaling, and its 1e-8 sits seven orders of
// magnitude above the rounding noise of an exactly dependent column
// (a few ulps of ‖a_k‖²), where a ratio against the largest pivot
// would not.
const pivotRelTol = 1e-8

// Cholesky is the sparse Cholesky factor of the Gram matrix AᵀA of a
// full-column-rank matrix A under a fill-reducing symmetric
// permutation: P·AᵀA·Pᵀ = L·Lᵀ. It is built in four stages — an
// approximate-minimum-degree ordering on a quotient graph, a symbolic
// pass (elimination tree and column counts), an up-looking numeric
// factorization, and two triangular solves per right-hand side. AᵀA
// exists only as its sparse upper triangle while a factor is computed,
// and nothing dense is ever formed: a factor's storage is O(nnz(L)).
//
// A Cholesky is immutable and safe for concurrent use.
type Cholesky struct {
	perm []int   // perm[k] is the column of A eliminated k-th
	lp   []int32 // CSC column pointers of L (column k: elimination step k)
	li   []int32 // rows as columns of A; each column's diagonal comes first
	lx   []float64
}

// FactorCholesky orders, analyses and factors AᵀA. It fails with
// ErrIllConditioned when A lacks full column rank: a zero column, fewer
// rows than columns, or a pivot under the relative tolerance — the
// factorization is its own rank screen.
func FactorCholesky(a *CSR) (*Cholesky, error) {
	if a.cols == 0 {
		return nil, fmt.Errorf("sparse: FactorCholesky of %d×%d matrix: %w", a.rows, a.cols, la.ErrShape)
	}
	return factor(a, amdOrder(a))
}

// Refactor factors the Gram matrix of b under the receiver's ordering,
// rerunning only the symbolic and numeric passes. It is the cheap route
// for a matrix that differs from the factored one by a few rows — a
// measurement path added or removed — whose fill a fresh ordering would
// barely change.
func (c *Cholesky) Refactor(b *CSR) (*Cholesky, error) {
	if b.cols != len(c.perm) {
		return nil, fmt.Errorf("sparse: Refactor of a %d-column matrix with a %d-column ordering: %w",
			b.cols, len(c.perm), la.ErrShape)
	}
	return factor(b, c.perm)
}

// Dim returns the order of the factored Gram matrix (A's column count).
func (c *Cholesky) Dim() int { return len(c.perm) }

// NNZ returns the number of stored entries of L, diagonal included.
func (c *Cholesky) NNZ() int { return len(c.li) }

// Solve overwrites b with x, the solution of AᵀA·x = b: a forward
// solve with L and a back solve with Lᵀ, both taken in elimination
// order directly on b's indices, so no permuted copy is made.
func (c *Cholesky) Solve(b la.Vector) error {
	n := len(c.perm)
	if len(b) != n {
		return fmt.Errorf("sparse: Cholesky.Solve rhs length %d, want %d: %w", len(b), n, la.ErrShape)
	}
	for k, j := range c.perm {
		lo, hi := c.lp[k], c.lp[k+1]
		bj := b[j] / c.lx[lo]
		b[j] = bj
		lx := c.lx[lo+1 : hi]
		for q, i := range c.li[lo+1 : hi] {
			b[i] -= lx[q] * bj
		}
	}
	for k := n - 1; k >= 0; k-- {
		lo, hi := c.lp[k], c.lp[k+1]
		j := c.perm[k]
		s := b[j]
		lx := c.lx[lo+1 : hi]
		for q, i := range c.li[lo+1 : hi] {
			s -= lx[q] * b[i]
		}
		b[j] = s / c.lx[lo]
	}
	return nil
}

// colIndex returns the column-major pattern of m: column j holds rows
// ri[cp[j]:cp[j+1]], increasing.
func (m *CSR) colIndex() (cp, ri []int) {
	cp = make([]int, m.cols+1)
	for _, j := range m.colIdx {
		cp[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		cp[j+1] += cp[j]
	}
	next := append([]int(nil), cp[:m.cols]...)
	ri = make([]int, len(m.colIdx))
	for i := 0; i < m.rows; i++ {
		for _, j := range m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]] {
			ri[next[j]] = i
			next[j]++
		}
	}
	return cp, ri
}

// factor runs the symbolic and numeric passes of AᵀA under perm.
// Indices are int32 internally, half the memory traffic of int; a
// factor whose C or L would exceed 2³¹ entries is refused.
func factor(a *CSR, perm []int) (*Cholesky, error) {
	n := a.cols
	if a.rows < n {
		return nil, fmt.Errorf("%w: %d rows cannot have rank %d", ErrIllConditioned, a.rows, n)
	}
	pinv := make([]int32, n)
	for k, j := range perm {
		pinv[j] = int32(k)
	}

	// C = P·AᵀA·Pᵀ: its diagonal, kept in x until the numeric pass
	// consumes it, and its strict upper triangle in compressed columns
	// (rows i < k of column k). Every pair of entries in a row of A adds
	// one product to C, scattered by column; a single-entry row — a
	// one-hop probe — touches only the diagonal. Repeated rows in a
	// column are left unsummed; the numeric pass accumulates them.
	pc := make([]int32, len(a.colIdx)) // permuted column of each entry
	x := make([]float64, n)
	ucp := make([]int32, n+1)
	var multi []int // rows with at least two entries
	for r, lo := 0, 0; r < a.rows; r++ {
		hi := a.rowPtr[r+1]
		for q := lo; q < hi; q++ {
			k, v := pinv[a.colIdx[q]], a.val[q]
			pc[q] = k
			x[k] += v * v
		}
		if hi-lo > 1 {
			multi = append(multi, r)
			row := pc[lo:hi]
			for q, k := range row {
				for _, i := range row[:q] {
					ucp[max(i, k)+1]++
				}
			}
		}
		lo = hi
	}
	if err := prefixSum(ucp, 0); err != nil {
		return nil, err
	}
	uri := make([]int32, ucp[n])
	ucx := make([]float64, ucp[n])
	next := append([]int32(nil), ucp[:n]...)
	for _, r := range multi {
		lo, hi := a.rowPtr[r], a.rowPtr[r+1]
		row, vals := pc[lo:hi], a.val[lo:hi]
		for q, k := range row {
			for qi, i := range row[:q] {
				i, k := min(i, k), max(i, k)
				uri[next[k]], ucx[next[k]] = i, vals[qi]*vals[q]
				next[k]++
			}
		}
	}

	// Elimination tree (path-compressed ancestors) and, in the same
	// sweep, the symbolic pass: row k of L is the union of the etree
	// paths from the entries of column k of C up to k, all of whose
	// parent links exist once column k has been linked in. Walking them
	// counts each column of L. A walk from i < k climbs to k, so it
	// stops there or at a node flagged with k+1 (n+k+1 in the numeric
	// pass), and neither pass has to clear the flags. ancestor holds
	// k+1 (0: none yet); a root's parent is never read.
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	flag := make([]int32, n)
	lp := make([]int32, n+1)
	for k := int32(0); k < int32(n); k++ {
		for _, i := range uri[ucp[k]:ucp[k+1]] {
			for j := i; j < k; {
				up := ancestor[j]
				ancestor[j] = k + 1
				if up == 0 {
					parent[j] = k
					break
				}
				j = up - 1
			}
			for ; i < k && flag[i] != k+1; i = parent[i] {
				lp[i+1]++
				flag[i] = k + 1
			}
		}
	}
	if err := prefixSum(lp, 1); err != nil { // + the diagonal
		return nil, err
	}

	// Numeric pass, up-looking: row k of L from one sparse triangular
	// solve against the rows computed so far, its pattern walked again
	// and stacked in topological order (descendants first).
	li := make([]int32, lp[n])
	lx := make([]float64, lp[n])
	stack := pinv   // free once C is built
	next = ancestor // free once the tree is built
	for k := int32(0); k < int32(n); k++ {
		seen := int32(n) + k + 1
		top := n
		for p := ucp[k]; p < ucp[k+1]; p++ {
			i := uri[p]
			x[i] += ucx[p]
			end := top
			for ; i < k && flag[i] != seen; i = parent[i] {
				top--
				stack[top] = i
				flag[i] = seen
			}
			// Reverse the path just pushed so its deepest node comes
			// first.
			for lo, hi := top, end-1; lo < hi; lo, hi = lo+1, hi-1 {
				stack[lo], stack[hi] = stack[hi], stack[lo]
			}
		}
		diag := x[k]
		if diag == 0 {
			return nil, fmt.Errorf("%w: column %d is empty", ErrIllConditioned, perm[k])
		}
		d := diag
		x[k] = 0
		for _, i := range stack[top:] {
			lki := x[i] / lx[lp[i]]
			x[i] = 0
			for p := lp[i] + 1; p < next[i]; p++ {
				x[li[p]] -= lx[p] * lki
			}
			d -= lki * lki
			li[next[i]], lx[next[i]] = k, lki
			next[i]++
		}
		if !(d > pivotRelTol*diag) {
			return nil, fmt.Errorf("%w: column %d keeps a squared pivot of %.3g of its Gram diagonal %g",
				ErrIllConditioned, perm[k], d, diag)
		}
		// The diagonal leads column k; the rows below it follow as
		// later steps reach k.
		li[lp[k]], lx[lp[k]] = k, math.Sqrt(d)
		next[k] = lp[k] + 1
	}
	for p, i := range li {
		li[p] = int32(perm[i])
	}
	return &Cholesky{perm: perm, lp: lp, li: li, lx: lx}, nil
}

// prefixSum turns per-column counts c[1:] (each plus extra) into
// column pointers, refusing a total past the int32 index range.
func prefixSum(c []int32, extra int) error {
	sum := 0
	for k := 1; k < len(c); k++ {
		sum += int(c[k]) + extra
		if sum > math.MaxInt32 {
			return fmt.Errorf("sparse: factor of %d columns needs more than 2³¹ entries: %w", len(c)-1, la.ErrShape)
		}
		c[k] = int32(sum)
	}
	return nil
}

// amdOrder returns an approximate-minimum-degree elimination order for
// AᵀA, computed on a quotient graph that starts from A itself: every
// row of A is an element (a clique of AᵀA), so AᵀA is never formed.
// Eliminating variable p merges the elements around p into a new
// element L_p and absorbs them; any other element whose variables all
// lie in L_p is absorbed too. A variable's degree is then bounded, as
// in Amestoy, Davis and Duff's AMD, by
//
//	min(n_left − 1, d_old + |L_p| − 1, |L_p| − 1 + Σ_{e ≠ p} |L_e \ L_p|)
//
// and the next pivot is taken from the lowest nonempty degree bucket.
// Ties go to the most recently inserted variable, so the order is a
// deterministic function of A's pattern.
func amdOrder(a *CSR) []int {
	n, m := a.cols, a.rows
	cp, ri := a.colIndex()
	// Elements 0..m-1 are the rows of A; element m+p is L_p.
	vars := make([][]int, m+n)
	for r := 0; r < m; r++ {
		vars[r] = a.colIdx[a.rowPtr[r]:a.rowPtr[r+1]]
	}
	elems := make([][]int, n)
	for j := 0; j < n; j++ {
		elems[j] = append([]int(nil), ri[cp[j]:cp[j+1]]...)
	}
	dead := make([]bool, m+n)

	// Exact initial degrees, one marker sweep per variable.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		mark[j] = j
		for _, e := range elems[j] {
			for _, i := range vars[e] {
				if mark[i] != j {
					mark[i] = j
					deg[j]++
				}
			}
		}
	}

	// Degree buckets as doubly linked lists.
	head := make([]int, n+1)
	for d := range head {
		head[d] = -1
	}
	next, prev := make([]int, n), make([]int, n)
	insert := func(i int) {
		d := deg[i]
		prev[i], next[i] = -1, head[d]
		if head[d] != -1 {
			prev[head[d]] = i
		}
		head[d] = i
	}
	remove := func(i int) {
		if prev[i] != -1 {
			next[prev[i]] = next[i]
		} else {
			head[deg[i]] = next[i]
		}
		if next[i] != -1 {
			prev[next[i]] = prev[i]
		}
	}
	for j := 0; j < n; j++ {
		insert(j)
	}

	stamp := n // marks above n never collide with the initial sweep
	wmark := make([]int, m+n)
	w := make([]int, m+n)
	order := make([]int, 0, n)
	mindeg := 0
	for k := 0; k < n; k++ {
		for head[mindeg] == -1 {
			mindeg++
		}
		p := head[mindeg]
		remove(p)
		order = append(order, p)

		// L_p: the union of p's elements, which are absorbed into it.
		stamp++
		mark[p] = stamp
		var lp []int
		for _, e := range elems[p] {
			if dead[e] {
				continue
			}
			for _, i := range vars[e] {
				if mark[i] != stamp {
					mark[i] = stamp
					lp = append(lp, i)
				}
			}
			dead[e] = true
			vars[e] = nil
		}
		elems[p] = nil
		ep := m + p
		vars[ep] = lp

		// w[e] = |L_e \ L_p| for every live element touching L_p.
		for _, i := range lp {
			remove(i)
			for _, e := range elems[i] {
				if dead[e] {
					continue
				}
				if wmark[e] != stamp {
					wmark[e] = stamp
					w[e] = len(vars[e])
				}
				w[e]--
			}
		}

		nleft := n - k - 1
		for _, i := range lp {
			ext := 0
			kept := elems[i][:0]
			for _, e := range elems[i] {
				if dead[e] {
					continue
				}
				if w[e] == 0 { // L_e ⊆ L_p: aggressive absorption
					dead[e] = true
					vars[e] = nil
					continue
				}
				ext += w[e]
				kept = append(kept, e)
			}
			elems[i] = append(kept, ep)
			d := min(nleft-1, deg[i]+len(lp)-1, len(lp)-1+ext)
			deg[i] = max(d, 0)
			insert(i)
			mindeg = min(mindeg, deg[i])
		}
	}
	return order
}
