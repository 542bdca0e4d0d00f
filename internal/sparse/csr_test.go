package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

func mustFromTriplets(t *testing.T, r, c int, ts []Triplet) *CSR {
	t.Helper()
	m, err := FromTriplets(r, c, ts)
	if err != nil {
		t.Fatalf("FromTriplets: %v", err)
	}
	return m
}

func TestFromTripletsCanonicalizes(t *testing.T) {
	// Out of order, duplicated, and cancelling entries.
	m := mustFromTriplets(t, 3, 4, []Triplet{
		{Row: 2, Col: 3, Val: 5},
		{Row: 0, Col: 1, Val: 2},
		{Row: 0, Col: 1, Val: 3}, // dup: sums to 5
		{Row: 1, Col: 2, Val: 7},
		{Row: 1, Col: 2, Val: -7}, // dup: cancels to 0, dropped
		{Row: 0, Col: 0, Val: 1},
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %g, want 5 (summed duplicates)", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %g, want 0 (cancelled duplicates dropped)", got)
	}
	if got := m.At(2, 3); got != 5 {
		t.Errorf("At(2,3) = %g, want 5", got)
	}
	// Column order within rows must be strictly increasing.
	for i := 0; i < m.Rows(); i++ {
		prev := -1
		m.Row(i, func(j int, _ float64) {
			if j <= prev {
				t.Errorf("row %d columns not strictly increasing: %d after %d", i, j, prev)
			}
			prev = j
		})
	}
}

func TestFromTripletsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		r, c int
		ts   []Triplet
	}{
		{"negative rows", -1, 2, nil},
		{"negative cols", 2, -1, nil},
		{"row out of range", 2, 2, []Triplet{{Row: 2, Col: 0, Val: 1}}},
		{"negative row", 2, 2, []Triplet{{Row: -1, Col: 0, Val: 1}}},
		{"col out of range", 2, 2, []Triplet{{Row: 0, Col: 2, Val: 1}}},
		{"negative col", 2, 2, []Triplet{{Row: 0, Col: -3, Val: 1}}},
		{"NaN", 2, 2, []Triplet{{Row: 0, Col: 0, Val: math.NaN()}}},
		{"Inf", 2, 2, []Triplet{{Row: 0, Col: 0, Val: math.Inf(1)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromTriplets(tc.r, tc.c, tc.ts); !errors.Is(err, ErrBadTriplet) {
				t.Fatalf("err = %v, want ErrBadTriplet", err)
			}
		})
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		d := la.NewMatrix(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.3 {
					d.Set(i, j, rng.NormFloat64())
				}
			}
		}
		m := FromDense(d)
		if !m.Dense().Equal(d, 0) {
			t.Fatalf("trial %d: FromDense/Dense round trip not exact", trial)
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if m.At(i, j) != d.At(i, j) {
					t.Fatalf("trial %d: At(%d,%d) = %g, dense %g", trial, i, j, m.At(i, j), d.At(i, j))
				}
			}
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		d := la.NewMatrix(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < 0.4 {
					d.Set(i, j, rng.NormFloat64())
				}
			}
		}
		m := FromDense(d)
		x := make(la.Vector, c)
		y := make(la.Vector, r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		sx, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		dx, err := d.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sx.Equal(dx, 1e-12) {
			t.Fatalf("trial %d: MulVec disagrees with dense", trial)
		}
		sy, err := m.MulVecT(y)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := d.T().MulVec(y)
		if err != nil {
			t.Fatal(err)
		}
		if !sy.Equal(dy, 1e-12) {
			t.Fatalf("trial %d: MulVecT disagrees with dense transpose", trial)
		}
	}
}

func TestMulVecShapeErrors(t *testing.T) {
	m := mustFromTriplets(t, 2, 3, []Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := m.MulVec(make(la.Vector, 2)); !errors.Is(err, la.ErrShape) {
		t.Errorf("MulVec wrong length: err = %v, want ErrShape", err)
	}
	if _, err := m.MulVecT(make(la.Vector, 3)); !errors.Is(err, la.ErrShape) {
		t.Errorf("MulVecT wrong length: err = %v, want ErrShape", err)
	}
}

// TestGramMatchesExplicit checks the sparse Cholesky factor against the
// explicitly formed Gram matrix: L, with rows and columns labelled by
// the columns of A they eliminate, must satisfy L·Lᵀ = AᵀA.
func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, d := randomTall(rng, 9, 6)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	gram, err := d.T().Mul(d)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Dim()
	l := la.NewMatrix(n, n)
	for k := 0; k < n; k++ {
		for p := c.lp[k]; p < c.lp[k+1]; p++ {
			l.Set(int(c.li[p]), c.perm[k], c.lx[p])
		}
	}
	llt, err := l.Mul(l.T())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := llt.At(i, j), gram.At(i, j); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("(L·Lᵀ)[%d][%d] = %g, (AᵀA) = %g", i, j, got, want)
			}
		}
	}
}

func TestMulVecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := la.NewMatrix(20, 15)
	for i := 0; i < 20; i++ {
		for j := 0; j < 15; j++ {
			if rng.Float64() < 0.3 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	m := FromDense(d)
	x := make(la.Vector, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	first, err := m.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		again, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d: MulVec not bit-identical at %d", k, i)
			}
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := mustFromTriplets(t, 0, 0, nil)
	if m.Rows() != 0 || m.Cols() != 0 || m.NNZ() != 0 {
		t.Fatalf("empty matrix misreports shape: %d×%d nnz %d", m.Rows(), m.Cols(), m.NNZ())
	}
	out, err := m.MulVec(la.Vector{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty MulVec: %v %v", out, err)
	}
}
