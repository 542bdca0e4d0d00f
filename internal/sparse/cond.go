package sparse

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// rankRelTol is the relative gap σmin/σmax below which CondEst declares
// the matrix numerically rank-deficient. It matches the scale at which
// dense Cholesky on the Gram matrix starts failing ErrNotSPD, so the
// dense and sparse paths classify the same systems as unidentifiable.
const rankRelTol = 1e-8

// CondEst estimates the extreme singular values of a matrix-free: σmax
// by power iteration on the opaque Gram operator AᵀA, σmin by inverse
// power iteration whose inner solves are plain CG on the same operator.
// Nothing dense is ever formed. maxIter bounds the matvec budget of
// each phase; 0 selects a default that resolves the estimates to a few
// percent, which is all rank classification needs.
//
// The starting vector is a fixed splitmix64 stream, so the estimate is
// deterministic yet generically non-orthogonal to any particular
// eigenvector — a structured start (all-ones) would be blind to null
// vectors like e_i − e_j from duplicated columns.
//
// On a numerically rank-deficient matrix the inner CG breaks down or
// the inverse iterates blow up; both are reported as σmin = 0 rather
// than an error, leaving the rank verdict to the caller (compare
// against σmax, e.g. with RankDeficient).
func CondEst(a *CSR, maxIter int) (sigMax, sigMin float64, err error) {
	n := a.cols
	if n == 0 || a.rows == 0 {
		return 0, 0, fmt.Errorf("sparse: CondEst on %d×%d matrix", a.rows, a.cols)
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	g := a.Gram()

	// σmax² = λmax(AᵀA) by power iteration.
	v := seedVector(n)
	normalize(v)
	var lamMax float64
	for k := 0; k < maxIter; k++ {
		gv, aerr := g.Apply(v)
		if aerr != nil {
			return 0, 0, aerr
		}
		lam := dot(v, gv)
		nrm := gv.Norm2()
		if nrm == 0 {
			return 0, 0, nil // zero matrix
		}
		scale(gv, 1/nrm)
		v = gv
		if k > 0 && math.Abs(lam-lamMax) <= 1e-4*math.Abs(lam) {
			lamMax = lam
			break
		}
		lamMax = lam
	}
	if lamMax <= 0 {
		return 0, 0, nil
	}
	sigMax = math.Sqrt(lamMax)

	// σmin² = λmin(AᵀA) by inverse power iteration: q ← normalize(z)
	// where AᵀA·z = q, each solve by CG. A breakdown (search direction
	// annihilated by A) or an exploding iterate certifies a null
	// direction, i.e. σmin ≈ 0.
	q := seedVector(n)
	normalize(q)
	lamMin := lamMax
	for outer := 0; outer < 3; outer++ {
		z, ok, cerr := cgGram(g, q, lamMax, maxIter)
		if cerr != nil {
			return 0, 0, cerr
		}
		if !ok {
			return sigMax, 0, nil
		}
		znorm := z.Norm2()
		if znorm == 0 || !isFinite(znorm) {
			return sigMax, 0, nil
		}
		scale(z, 1/znorm)
		gz, aerr := g.Apply(z)
		if aerr != nil {
			return 0, 0, aerr
		}
		lamMin = dot(z, gz)
		if lamMin <= rankRelTol*rankRelTol*lamMax {
			return sigMax, 0, nil
		}
		q = z
	}
	if lamMin < 0 {
		lamMin = 0
	}
	return sigMax, math.Sqrt(lamMin), nil
}

// RankDeficient reports whether the estimated spectrum certifies
// numerical rank deficiency: σmax = 0 (zero matrix) or
// σmin ≤ rankRelTol·σmax.
func RankDeficient(sigMax, sigMin float64) bool {
	return sigMax == 0 || sigMin <= rankRelTol*sigMax
}

// cgGram solves AᵀA·z = q by plain conjugate gradients on the opaque
// Gram operator. ok=false reports a breakdown: a search direction p
// with ‖Ap‖² vanishing relative to λmax·‖p‖², which certifies a null
// direction of A. lamMax scales the breakdown test.
func cgGram(g *Gram, q la.Vector, lamMax float64, maxIter int) (z la.Vector, ok bool, err error) {
	n := g.Dim()
	z = make(la.Vector, n)
	r := q.Clone()
	p := q.Clone()
	rs := dot(r, r)
	rs0 := rs
	if rs0 == 0 {
		return z, true, nil
	}
	for k := 0; k < maxIter; k++ {
		gp, aerr := g.Apply(p)
		if aerr != nil {
			return nil, false, aerr
		}
		pgp := dot(p, gp)
		pp := dot(p, p)
		if pgp <= 1e-14*lamMax*pp {
			return nil, false, nil // null direction: σmin ≈ 0
		}
		alpha := rs / pgp
		for i := range z {
			z[i] += alpha * p[i]
		}
		for i := range r {
			r[i] -= alpha * gp[i]
		}
		rsNew := dot(r, r)
		if rsNew <= 1e-20*rs0 {
			return z, true, nil
		}
		beta := rsNew / rs
		rs = rsNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return z, true, nil
}

// seedVector returns a deterministic pseudo-random vector in [-1, 1)ⁿ
// from a fixed splitmix64 stream.
func seedVector(n int) la.Vector {
	v := make(la.Vector, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range v {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v[i] = 2*float64(z>>11)/(1<<53) - 1
	}
	return v
}

func normalize(v la.Vector) {
	if n := v.Norm2(); n > 0 {
		scale(v, 1/n)
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func scale(v la.Vector, s float64) {
	for i := range v {
		v[i] *= s
	}
}
