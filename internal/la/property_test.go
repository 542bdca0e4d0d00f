package la

import (
	"errors"
	"math/rand"
	"testing"
)

// randomSystem draws an m×n matrix with U[-1,1] entries plus a small
// diagonal boost so it is comfortably full column rank, and a random
// right-hand side.
func randomSystem(rng *rand.Rand, m, n int) (*Matrix, Vector) {
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := 2*rng.Float64() - 1
			if i == j {
				v += 2
			}
			a.Set(i, j, v)
		}
	}
	b := make(Vector, m)
	for i := range b {
		b[i] = 10 * (2*rng.Float64() - 1)
	}
	return a, b
}

// Property: on random full-rank overdetermined systems, the three
// least-squares routes — QR, normal equations through Cholesky, and the
// SVD pseudoinverse — must agree on the same minimizer, and its residual
// must be orthogonal to the column space (Aᵀ(b − Ax̂) = 0).
func TestLeastSquaresSolverAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{4, 3}, {6, 4}, {8, 8}, {12, 5}, {20, 10}, {15, 15}}
	for trial := 0; trial < 40; trial++ {
		m, n := shapes[trial%len(shapes)][0], shapes[trial%len(shapes)][1]
		a, b := randomSystem(rng, m, n)

		qr, err := FactorQR(a)
		if err != nil {
			t.Fatalf("trial %d: FactorQR: %v", trial, err)
		}
		if !qr.FullRank(0) {
			t.Fatalf("trial %d: %d×%d system unexpectedly rank-deficient", trial, m, n)
		}
		xQR, err := qr.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: QR solve: %v", trial, err)
		}

		nf, err := FactorNormal(a)
		if err != nil {
			t.Fatalf("trial %d: FactorNormal: %v", trial, err)
		}
		xNE, err := nf.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: normal-equation solve: %v", trial, err)
		}

		svd, err := FactorSVD(a)
		if err != nil {
			t.Fatalf("trial %d: FactorSVD: %v", trial, err)
		}
		xSVD, err := svd.PseudoInverseApply(b, 0)
		if err != nil {
			t.Fatalf("trial %d: pseudoinverse apply: %v", trial, err)
		}

		// The boosted diagonal keeps the condition number modest, so a
		// fixed tolerance covers the cross-route float drift.
		tol := 1e-8 * (1 + xQR.Norm2())
		if !xQR.Equal(xNE, tol) {
			t.Errorf("trial %d (%d×%d): QR and normal-equation solutions differ: %v vs %v", trial, m, n, xQR, xNE)
		}
		if !xQR.Equal(xSVD, tol) {
			t.Errorf("trial %d (%d×%d): QR and SVD solutions differ: %v vs %v", trial, m, n, xQR, xSVD)
		}

		ax, err := a.MulVec(xQR)
		if err != nil {
			t.Fatalf("trial %d: A·x: %v", trial, err)
		}
		r, err := b.Sub(ax)
		if err != nil {
			t.Fatalf("trial %d: residual: %v", trial, err)
		}
		atr, err := a.T().MulVec(r)
		if err != nil {
			t.Fatalf("trial %d: Aᵀr: %v", trial, err)
		}
		if atr.NormInf() > 1e-7*(1+b.Norm2()) {
			t.Errorf("trial %d (%d×%d): residual not orthogonal to range(A): ‖Aᵀr‖∞ = %g", trial, m, n, atr.NormInf())
		}
	}
}

// Property: duplicating a column drops the rank by exactly one, and
// every factorization notices — QR loses full rank, SVD and the
// Householder rank count agree on n−1, and the normal equations stop
// being SPD.
func TestRankDeficientDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := 5 + rng.Intn(8)
		n := 3 + rng.Intn(m-2)
		a, _ := randomSystem(rng, m, n)
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		for i := 0; i < m; i++ {
			a.Set(i, dst, a.At(i, src))
		}

		if got := Rank(a); got != n-1 {
			t.Errorf("trial %d (%d×%d, col %d=col %d): Rank = %d, want %d", trial, m, n, dst, src, got, n-1)
		}
		qr, err := FactorQR(a)
		if err != nil {
			t.Fatalf("trial %d: FactorQR: %v", trial, err)
		}
		if qr.FullRank(0) {
			t.Errorf("trial %d (%d×%d): QR reports full rank with duplicated column", trial, m, n)
		}
		svd, err := FactorSVD(a)
		if err != nil {
			t.Fatalf("trial %d: FactorSVD: %v", trial, err)
		}
		if got := svd.Rank(0); got != n-1 {
			t.Errorf("trial %d (%d×%d): SVD rank = %d, want %d", trial, m, n, got, n-1)
		}
		if _, err := FactorNormal(a); !errors.Is(err, ErrNotSPD) {
			t.Errorf("trial %d (%d×%d): FactorNormal err = %v, want ErrNotSPD", trial, m, n, err)
		}
	}
}
