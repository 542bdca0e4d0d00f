package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSVDDiagonal(t *testing.T) {
	a, _ := NewMatrixFrom(3, 3, []float64{
		3, 0, 0,
		0, 7, 0,
		0, 0, 2,
	})
	s, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{7, 3, 2}
	if !s.Sigma.Equal(want, 1e-10) {
		t.Errorf("Σ = %v, want %v", s.Sigma, want)
	}
	if math.Abs(s.Condition()-3.5) > 1e-9 {
		t.Errorf("κ = %g, want 3.5", s.Condition())
	}
	if s.Rank(0) != 3 {
		t.Errorf("rank = %d", s.Rank(0))
	}
}

func TestSVDWideRejected(t *testing.T) {
	if _, err := FactorSVD(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v", err)
	}
}

func TestSVDReconstructionProperty(t *testing.T) {
	// Property: U·Σ·Vᵀ == A, UᵀU == I, VᵀV == I, Σ sorted descending.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(5)
		a := randomMatrix(rng, m, n)
		s, err := FactorSVD(a)
		if err != nil {
			return false
		}
		for i := 1; i < len(s.Sigma); i++ {
			if s.Sigma[i] > s.Sigma[i-1]+1e-12 {
				return false
			}
		}
		// Rebuild A.
		sig := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			sig.Set(i, i, s.Sigma[i])
		}
		us, _ := s.U.Mul(sig)
		rec, _ := us.Mul(s.V.T())
		if !rec.Equal(a, 1e-8) {
			return false
		}
		utu, _ := s.U.T().Mul(s.U)
		vtv, _ := s.V.T().Mul(s.V)
		return utu.Equal(Identity(n), 1e-8) && vtv.Equal(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSVDRankDetectsDeficiency(t *testing.T) {
	// Rank-1 matrix: one nonzero singular value.
	a, _ := NewMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6})
	s, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank(0) != 1 {
		t.Errorf("rank = %d, want 1", s.Rank(0))
	}
	if !math.IsInf(s.Condition(), 1) {
		t.Errorf("κ = %g, want +Inf", s.Condition())
	}
}

func TestSVDMatchesRankAndCondition(t *testing.T) {
	// Property: SVD rank agrees with Gaussian-elimination Rank, and the
	// condition number is +Inf exactly when the draw is rank-deficient.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := n + rng.Intn(4)
		a := randomMatrix(rng, m, n)
		s, err := FactorSVD(a)
		if err != nil {
			return false
		}
		if s.Rank(0) != Rank(a) {
			return false
		}
		return math.IsInf(s.Condition(), 1) == (s.Sigma[n-1] == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConditionBoundsProperty(t *testing.T) {
	// Property: κ ≥ 1, and σ₁ bounds the gain ‖A·x‖ ≤ σ₁‖x‖ for random x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := n + rng.Intn(4)
		a := randomMatrix(rng, m, n)
		s, err := FactorSVD(a)
		if err != nil {
			return false
		}
		if s.Condition() < 1-1e-12 {
			return false
		}
		for k := 0; k < 5; k++ {
			x := randomVector(rng, n)
			ax, _ := a.MulVec(x)
			if ax.Norm2() > s.Sigma[0]*x.Norm2()*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPseudoInverseApplyFullRank(t *testing.T) {
	// Full-rank: pseudo-inverse solution equals least squares.
	rng := rand.New(rand.NewSource(8))
	a := randomMatrix(rng, 6, 3)
	b := randomVector(rng, 6)
	s, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := s.PseudoInverseApply(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x1.Equal(x2, 1e-7) {
		t.Errorf("A⁺b = %v, least squares = %v", x1, x2)
	}
	if _, err := s.PseudoInverseApply(Vector{1}, 0); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs: err = %v", err)
	}
}

func TestPseudoInverseApplyDeficient(t *testing.T) {
	// Rank-deficient: A⁺b is the minimum-norm solution; A·x reproduces
	// the projection of b onto range(A). For the rank-1 matrix below and
	// consistent b, A·x == b exactly.
	a, _ := NewMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6})
	x := Vector{1, 1} // b = A·x = (3, 6, 9)
	b, _ := a.MulVec(x)
	s, err := FactorSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.PseudoInverseApply(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	ax, _ := a.MulVec(got)
	if !ax.Equal(b, 1e-8) {
		t.Errorf("A·(A⁺b) = %v, want %v", ax, b)
	}
	// Minimum norm: ‖A⁺b‖ ≤ ‖x‖ for any preimage x.
	if got.Norm2() > x.Norm2()+1e-9 {
		t.Errorf("‖A⁺b‖ = %g exceeds a known preimage %g", got.Norm2(), x.Norm2())
	}
}
