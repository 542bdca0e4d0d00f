package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// qrSolve is the independent dense oracle: Householder QR least squares.
func qrSolve(t *testing.T, d *la.Matrix, y la.Vector) la.Vector {
	t.Helper()
	q, err := la.FactorQR(d)
	if err != nil {
		t.Fatalf("QR oracle: %v", err)
	}
	x, err := q.Solve(y)
	if err != nil {
		t.Fatalf("QR oracle solve: %v", err)
	}
	return x
}

// choleskyLeastSquares solves min‖A·x − y‖ through the factor.
func choleskyLeastSquares(c *Cholesky, a *CSR, y la.Vector) (la.Vector, error) {
	x, err := a.MulVecT(y)
	if err != nil {
		return nil, err
	}
	return x, c.Solve(x)
}

func TestCholeskyAgreesWithDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		rows := 10 + rng.Intn(30)
		cols := 2 + rng.Intn(8)
		a, d := randomTall(rng, rows, cols)
		y := make(la.Vector, rows)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		c, err := FactorCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := choleskyLeastSquares(c, a, y)
		if err != nil {
			t.Fatal(err)
		}
		if want := qrSolve(t, d, y); !got.Equal(want, 1e-10*(1+want.NormInf())) {
			t.Fatalf("trial %d: cholesky %v, QR %v", trial, got, want)
		}
	}
}

// TestCholeskyRankMatchesSVD: on full-rank matrices the factorization
// succeeds and the product of its pivots is √det(AᵀA) = ∏σᵢ.
func TestCholeskyRankMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		rows := 8 + rng.Intn(12)
		cols := 3 + rng.Intn(5)
		a, d := randomTall(rng, rows, cols)
		svd, err := la.FactorSVD(d)
		if err != nil {
			t.Fatal(err)
		}
		if svd.Rank(0) != cols {
			t.Fatalf("trial %d: fixture not full rank", trial)
		}
		c, err := FactorCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: full-rank matrix rejected: %v", trial, err)
		}
		logDet, logSig := 0.0, 0.0
		for k := 0; k < c.Dim(); k++ {
			logDet += math.Log(c.lx[c.lp[k]])
		}
		for _, s := range svd.Sigma {
			logSig += math.Log(s)
		}
		if math.Abs(logDet-logSig) > 1e-9*(1+math.Abs(logSig)) {
			t.Fatalf("trial %d: log ∏L_kk = %g, log ∏σ = %g", trial, logDet, logSig)
		}
	}
}

func TestCholeskyFlagsDegenerateMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	flagged := func(t *testing.T, d *la.Matrix) {
		t.Helper()
		if _, err := FactorCholesky(FromDense(d)); !errors.Is(err, ErrIllConditioned) {
			t.Fatalf("err = %v, want ErrIllConditioned", err)
		}
	}
	t.Run("duplicate column", func(t *testing.T) {
		d := la.NewMatrix(10, 4)
		for i := 0; i < 10; i++ {
			v := rng.NormFloat64()
			d.Set(i, 0, v)
			d.Set(i, 3, v)
			d.Set(i, 1, rng.NormFloat64())
			d.Set(i, 2, rng.NormFloat64())
		}
		flagged(t, d)
	})
	t.Run("zero column", func(t *testing.T) {
		d := la.NewMatrix(6, 3)
		for i := 0; i < 6; i++ {
			d.Set(i, 0, rng.NormFloat64())
			d.Set(i, 2, rng.NormFloat64())
		}
		flagged(t, d)
	})
	t.Run("column sum dependency", func(t *testing.T) {
		// col2 = col0 + col1: a dependency no single-column screen sees.
		d := la.NewMatrix(12, 3)
		for i := 0; i < 12; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			d.Set(i, 0, a)
			d.Set(i, 1, b)
			d.Set(i, 2, a+b)
		}
		flagged(t, d)
	})
	t.Run("zero matrix", func(t *testing.T) {
		flagged(t, la.NewMatrix(4, 3))
	})
	t.Run("wide", func(t *testing.T) {
		d := la.NewMatrix(2, 3)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				d.Set(i, j, float64(1+i+j*j))
			}
		}
		flagged(t, d)
	})
}

// A refactor under the reused ordering must equal a fresh factorization
// of the same matrix bit for bit, and after a row append it must still
// solve the new least-squares problem.
func TestCholeskyRefactorReusesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, d := randomTall(rng, 30, 12)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	same, err := c.Refactor(a)
	if err != nil {
		t.Fatal(err)
	}
	for p := range c.lx {
		if c.li[p] != same.li[p] || c.lx[p] != same.lx[p] {
			t.Fatal("refactor of the same matrix is not bit-identical")
		}
	}
	grown := la.NewMatrix(31, 12)
	for i := 0; i < 30; i++ {
		if err := grown.SetRow(i, d.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	grown.Set(30, 3, 1)
	grown.Set(30, 7, 1)
	b := FromDense(grown)
	rc, err := c.Refactor(b)
	if err != nil {
		t.Fatal(err)
	}
	y := make(la.Vector, 31)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got, err := choleskyLeastSquares(rc, b, y)
	if err != nil {
		t.Fatal(err)
	}
	if want := qrSolve(t, grown, y); !got.Equal(want, 1e-10*(1+want.NormInf())) {
		t.Fatalf("refactored solve %v, QR %v", got, want)
	}
	if _, err := c.Refactor(FromDense(la.NewMatrix(31, 5))); !errors.Is(err, la.ErrShape) {
		t.Fatalf("refactor with the wrong column count: err = %v, want ErrShape", err)
	}
	if err := c.Solve(make(la.Vector, 3)); !errors.Is(err, la.ErrShape) {
		t.Fatalf("short rhs: err = %v, want ErrShape", err)
	}
}

// decodeFuzzRouting turns fuzz bytes into a 0/1 routing matrix of up to
// 12×10: two shape bytes, then one bit per entry in row-major order
// (missing bits are zero).
func decodeFuzzRouting(data []byte) *la.Matrix {
	if len(data) < 2 {
		return nil
	}
	rows, cols := 1+int(data[0]%12), 1+int(data[1]%10)
	d := la.NewMatrix(rows, cols)
	bits := data[2:]
	for k := 0; k < rows*cols && k/8 < len(bits); k++ {
		if bits[k/8]>>(k%8)&1 == 1 {
			d.Set(k/cols, k%cols, 1)
		}
	}
	return d
}

// FuzzSparseCholesky holds the factorization's rank verdict against the
// SVD and its least-squares solution against Householder QR, on small
// 0/1 routing matrices — the shape tomography feeds it.
func FuzzSparseCholesky(f *testing.F) {
	f.Add([]byte{2, 1, 0x0f})                   // 3×2, one duplicate column
	f.Add([]byte{4, 3, 0xff, 0x0f})             // 5×4 with an all-ones block
	f.Add([]byte{5, 4, 0x21, 0x84, 0x10, 0x42}) // 6×5, identity-like
	f.Add([]byte{11, 9, 0xa5, 0x5a, 0xc3, 0x3c, 0x99, 0x66, 0xf0, 0x0f, 0x81, 0x18, 0x7e, 0xe7, 0x24, 0x42, 0xbd})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeFuzzRouting(data)
		if d == nil {
			return
		}
		a := FromDense(d)
		want := false
		if svd, err := la.FactorSVD(d); err == nil {
			want = svd.Rank(0) == d.Cols()
		}
		c, err := FactorCholesky(a)
		if err != nil && !errors.Is(err, ErrIllConditioned) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if got := err == nil; got != want {
			t.Fatalf("%d×%d: cholesky full rank = %v (%v), SVD says %v", d.Rows(), d.Cols(), got, err, want)
		}
		if err != nil {
			return
		}
		y := make(la.Vector, d.Rows())
		for i := range y {
			y[i] = float64(i%5) - 1.5 + 0.25*float64(i)
		}
		got, err := choleskyLeastSquares(c, a, y)
		if err != nil {
			t.Fatal(err)
		}
		if want := qrSolve(t, d, y); !got.Equal(want, 1e-8*(1+want.NormInf())) {
			t.Fatalf("cholesky %v, QR %v", got, want)
		}
	})
}
