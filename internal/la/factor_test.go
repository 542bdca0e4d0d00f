package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskySolve(t *testing.T) {
	// A = BᵀB + I is SPD for any B.
	rng := rand.New(rand.NewSource(7))
	b := randomMatrix(rng, 5, 4)
	gram, _ := b.T().Mul(b)
	spd, _ := gram.Add(Identity(4))
	chol, err := FactorCholesky(spd)
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	x := Vector{1, -2, 3, -4}
	rhs, _ := spd.MulVec(x)
	got, err := chol.Solve(rhs)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !got.Equal(x, 1e-8) {
		t.Errorf("Cholesky solve = %v, want %v", got, x)
	}
	// L·Lᵀ should reconstruct A.
	l := chol.L()
	llt, _ := l.Mul(l.T())
	if !llt.Equal(spd, 1e-8) {
		t.Errorf("L·Lᵀ does not reconstruct A")
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a, _ := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if _, err := FactorCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if _, err := FactorCholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square: err = %v, want ErrShape", err)
	}
}

func TestCholeskySolveRHSLength(t *testing.T) {
	chol, err := FactorCholesky(Identity(3))
	if err != nil {
		t.Fatalf("FactorCholesky: %v", err)
	}
	if _, err := chol.Solve(Vector{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square, full-rank system: least squares equals exact solve.
	a, _ := NewMatrixFrom(2, 2, []float64{1, 1, 1, -1})
	x, err := LeastSquares(a, Vector{3, 1})
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if !x.Equal(Vector{2, 1}, 1e-10) {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = c to {1, 2, 3}: least-squares constant is the mean, 2.
	a, _ := NewMatrixFrom(3, 1, []float64{1, 1, 1})
	x, err := LeastSquares(a, Vector{1, 2, 3})
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(x[0]-2) > 1e-12 {
		t.Errorf("x = %v, want [2]", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: residual r = b − A·x is orthogonal to the column space,
	// i.e. Aᵀ·r ≈ 0. The defining property of least squares.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + 1 + rng.Intn(5)
		a := randomMatrix(rng, m, n)
		b := randomVector(rng, m)
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		ax, _ := a.MulVec(x)
		r, _ := b.Sub(ax)
		atr, _ := a.T().MulVec(r)
		return atr.NormInf() < 1e-8*(1+b.Norm2())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	a, _ := NewMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6})
	if _, err := LeastSquares(a, Vector{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorQRWideRejected(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRSolveRHSLength(t *testing.T) {
	f, err := FactorQR(Identity(3))
	if err != nil {
		t.Fatalf("FactorQR: %v", err)
	}
	if _, err := f.Solve(Vector{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		name string
		r, c int
		data []float64
		want int
	}{
		{"identity", 3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}, 3},
		{"zero", 2, 2, []float64{0, 0, 0, 0}, 0},
		{"rank1", 2, 2, []float64{1, 2, 2, 4}, 1},
		{"wide full", 2, 3, []float64{1, 0, 0, 0, 1, 0}, 2},
		{"tall rank2", 3, 2, []float64{1, 0, 0, 1, 1, 1}, 2},
		{"dependent rows", 3, 3, []float64{1, 2, 3, 4, 5, 6, 5, 7, 9}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := NewMatrixFrom(tt.r, tt.c, tt.data)
			if err != nil {
				t.Fatal(err)
			}
			if got := Rank(m); got != tt.want {
				t.Errorf("Rank = %d, want %d", got, tt.want)
			}
		})
	}
	if got := Rank(NewMatrix(0, 5)); got != 0 {
		t.Errorf("Rank of empty = %d, want 0", got)
	}
}

func TestRankBoundsProperty(t *testing.T) {
	// Property: 0 ≤ rank(A) ≤ min(rows, cols), and rank(A) == rank(Aᵀ).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(rng, r, c)
		k := Rank(a)
		if k < 0 || k > r || k > c {
			return false
		}
		return Rank(a.T()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalEquationOperator(t *testing.T) {
	// T·R must be the identity on link space: tomography of clean
	// measurements recovers the exact link metrics.
	r, _ := NewMatrixFrom(4, 3, []float64{
		1, 1, 0,
		0, 1, 1,
		1, 0, 1,
		1, 1, 1,
	})
	tOp, err := NormalEquationOperator(r)
	if err != nil {
		t.Fatalf("NormalEquationOperator: %v", err)
	}
	tr, _ := tOp.Mul(r)
	if !tr.Equal(Identity(3), 1e-9) {
		t.Errorf("T·R = %v, want identity", tr)
	}
	x := Vector{5, 10, 15}
	y, _ := r.MulVec(x)
	xhat, _ := tOp.MulVec(y)
	if !xhat.Equal(x, 1e-9) {
		t.Errorf("x̂ = %v, want %v", xhat, x)
	}
}

func TestNormalEquationOperatorRankDeficient(t *testing.T) {
	// Two identical columns: links indistinguishable, RᵀR singular.
	r, _ := NewMatrixFrom(3, 2, []float64{1, 1, 0, 0, 1, 1})
	if _, err := NormalEquationOperator(r); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestNormalFactorSolveMatchesOperator(t *testing.T) {
	// Property: the factored back-substitution solve and the dense
	// operator matvec produce the same estimate.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + 2 + rng.Intn(4)
		a := randomMatrix(rng, m, n)
		y := randomVector(rng, m)
		nf, err := FactorNormal(a)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		x1, err := nf.Solve(y)
		if err != nil {
			return false
		}
		tOp, err := nf.Operator()
		if err != nil {
			return false
		}
		x2, _ := tOp.MulVec(y)
		return x1.Equal(x2, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalFactorDims(t *testing.T) {
	a, _ := NewMatrixFrom(4, 3, []float64{
		1, 1, 0,
		0, 1, 1,
		1, 0, 1,
		1, 1, 1,
	})
	nf, err := FactorNormal(a)
	if err != nil {
		t.Fatalf("FactorNormal: %v", err)
	}
	if nf.Rows() != 4 || nf.Cols() != 3 {
		t.Errorf("dims = %d×%d, want 4×3", nf.Rows(), nf.Cols())
	}
	if _, err := nf.Solve(Vector{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs: err = %v, want ErrShape", err)
	}
}

func TestNormalFactorRankDeficient(t *testing.T) {
	a, _ := NewMatrixFrom(3, 2, []float64{1, 1, 0, 0, 1, 1})
	if _, err := FactorNormal(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestQRMatchesNormalEquations(t *testing.T) {
	// Property: QR least squares and the normal-equation operator agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + 2 + rng.Intn(4)
		a := randomMatrix(rng, m, n)
		b := randomVector(rng, m)
		x1, err1 := LeastSquares(a, b)
		tOp, err2 := NormalEquationOperator(a)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // both reject rank deficiency
		}
		x2, _ := tOp.MulVec(b)
		return x1.Equal(x2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
