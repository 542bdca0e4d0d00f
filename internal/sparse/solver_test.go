package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// randomTall builds a random full-rank-with-overwhelming-probability
// tall sparse-ish matrix and a dense mirror.
func randomTall(rng *rand.Rand, rows, cols int) (*CSR, *la.Matrix) {
	d := la.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.5 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	// Guarantee full column rank: add identity rows scaled by 1 over
	// the first cols rows (rows ≥ cols in all callers).
	for j := 0; j < cols; j++ {
		d.Set(j, j, d.At(j, j)+1)
	}
	return FromDense(d), d
}

func solveDense(t *testing.T, d *la.Matrix, b la.Vector) la.Vector {
	t.Helper()
	fac, err := la.FactorNormal(d)
	if err != nil {
		t.Fatalf("dense oracle factor: %v", err)
	}
	x, err := fac.Solve(b)
	if err != nil {
		t.Fatalf("dense oracle solve: %v", err)
	}
	return x
}

func TestCGLSAgreesWithDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		rows := 5 + rng.Intn(20)
		cols := 2 + rng.Intn(rows-2)
		a, d := randomTall(rng, rows, cols)
		b := make(la.Vector, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := solveDense(t, d, b)
		res, err := CGLS(a, b, Options{})
		if err != nil {
			t.Fatalf("trial %d (%d×%d): CGLS: %v", trial, rows, cols, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: converged not set", trial)
		}
		if !res.X.Equal(want, 1e-7) {
			t.Fatalf("trial %d (%d×%d): CGLS %v vs dense %v", trial, rows, cols, res.X, want)
		}
	}
}

func TestSolversAgreeOnConsistentSystem(t *testing.T) {
	// For b = A·x* with full-rank A the unique least-squares solution
	// is x*; CGLS must recover it to tolerance.
	rng := rand.New(rand.NewSource(23))
	a, _ := randomTall(rng, 40, 15)
	xstar := make(la.Vector, 15)
	for i := range xstar {
		xstar[i] = rng.Float64()
	}
	b, err := a.MulVec(xstar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CGLS(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.X.Equal(xstar, 1e-7) {
		t.Fatal("CGLS did not recover the consistent solution")
	}
	if res.ResidualNorm > 1e-7 {
		t.Fatalf("CGLS residual %g on a consistent system", res.ResidualNorm)
	}
}

func TestSolversReportNonConvergence(t *testing.T) {
	// An ill-conditioned dense-ish system with a starvation budget: the
	// solver must say so, not return silently garbage.
	rng := rand.New(rand.NewSource(24))
	d := la.NewMatrix(30, 20)
	for i := 0; i < 30; i++ {
		for j := 0; j < 20; j++ {
			d.Set(i, j, rng.NormFloat64()*math.Pow(10, -float64(j)/3))
		}
	}
	a := FromDense(d)
	b := make(la.Vector, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := CGLS(a, b, Options{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if res == nil || res.Iterations != 2 {
		t.Fatalf("partial result missing or wrong iteration count: %+v", res)
	}
	if res.Converged {
		t.Fatal("Converged true alongside ErrNotConverged")
	}
}

func TestCGLSZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a, _ := randomTall(rng, 10, 4)
	res, err := CGLS(a, make(la.Vector, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS should converge instantly: %+v", res)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatalf("zero RHS produced nonzero solution %v", res.X)
		}
	}
}

func TestSolversRejectWrongRHSLength(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a, _ := randomTall(rng, 10, 4)
	if _, err := CGLS(a, make(la.Vector, 9), Options{}); !errors.Is(err, la.ErrShape) {
		t.Errorf("CGLS: err = %v, want ErrShape", err)
	}
}

func TestSolversDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	a, _ := randomTall(rng, 25, 10)
	b := make(la.Vector, 25)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	first, err := CGLS(a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		again, err := CGLS(a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Iterations != first.Iterations {
			t.Fatalf("iteration count varies across identical runs: %d vs %d", again.Iterations, first.Iterations)
		}
		for i := range first.X {
			if again.X[i] != first.X[i] {
				t.Fatalf("run %d: iterate not bit-identical at %d", k, i)
			}
		}
	}
}

func TestCondEstMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		rows := 8 + rng.Intn(12)
		cols := 3 + rng.Intn(5)
		a, d := randomTall(rng, rows, cols)
		svd, err := la.FactorSVD(d)
		if err != nil {
			t.Fatal(err)
		}
		wantCond := svd.Condition()
		sigMax, sigMin, err := CondEst(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sigMin <= 0 {
			t.Fatalf("trial %d: full-rank matrix estimated singular (σmin %g)", trial, sigMin)
		}
		gotCond := sigMax / sigMin
		if gotCond < wantCond*0.5 || gotCond > wantCond*2 {
			t.Fatalf("trial %d: CondEst %.3g vs SVD condition %.3g", trial, gotCond, wantCond)
		}
		if RankDeficient(sigMax, sigMin) {
			t.Fatalf("trial %d: full-rank matrix classified rank-deficient", trial)
		}
	}
}

func TestCondEstFlagsDegenerateMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	t.Run("duplicate column", func(t *testing.T) {
		d := la.NewMatrix(10, 4)
		for i := 0; i < 10; i++ {
			v := rng.NormFloat64()
			d.Set(i, 0, v)
			d.Set(i, 3, v)
			d.Set(i, 1, rng.NormFloat64())
			d.Set(i, 2, rng.NormFloat64())
		}
		sigMax, sigMin, err := CondEst(FromDense(d), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !RankDeficient(sigMax, sigMin) {
			t.Fatalf("duplicate column not flagged: σmax %g σmin %g", sigMax, sigMin)
		}
	})
	t.Run("zero column", func(t *testing.T) {
		d := la.NewMatrix(6, 3)
		for i := 0; i < 6; i++ {
			d.Set(i, 0, rng.NormFloat64())
			d.Set(i, 2, rng.NormFloat64())
		}
		sigMax, sigMin, err := CondEst(FromDense(d), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !RankDeficient(sigMax, sigMin) {
			t.Fatalf("zero column not flagged: σmax %g σmin %g", sigMax, sigMin)
		}
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
		sigMax, sigMin, err := CondEst(FromDense(d), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !RankDeficient(sigMax, sigMin) {
			t.Fatalf("summed-column dependency not flagged: σmax %g σmin %g", sigMax, sigMin)
		}
	})
	t.Run("zero matrix", func(t *testing.T) {
		sigMax, sigMin, err := CondEst(FromDense(la.NewMatrix(4, 3)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !RankDeficient(sigMax, sigMin) {
			t.Fatalf("zero matrix not flagged: σmax %g σmin %g", sigMax, sigMin)
		}
	})
}

// Warm-started CGLS must reach the same minimizer as a cold start —
// under the same ‖Aᵀb‖-relative tolerance — and must converge in far
// fewer iterations when X0 is already near the solution.
func TestCGLSWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		rows := 10 + rng.Intn(20)
		cols := 4 + rng.Intn(rows-4)
		a, d := randomTall(rng, rows, cols)
		b := make(la.Vector, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		cold, err := CGLS(a, b, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold CGLS: %v", trial, err)
		}
		want := solveDense(t, d, b)

		// Warm from the exact solution: zero iterations, converged.
		warm, err := CGLS(a, b, Options{X0: cold.X})
		if err != nil {
			t.Fatalf("trial %d: warm CGLS: %v", trial, err)
		}
		if !warm.Converged {
			t.Fatalf("trial %d: warm start from the solution did not converge", trial)
		}
		if warm.Iterations != 0 {
			t.Errorf("trial %d: warm start from the solution took %d iterations", trial, warm.Iterations)
		}
		tol := 1e-6 * (1 + want.Norm2())
		if !warm.X.Equal(want, tol) {
			t.Errorf("trial %d: warm solution diverged from oracle", trial)
		}

		// Warm from a perturbed solution: same minimizer, never more
		// iterations than cold (on small well-conditioned systems CG
		// termination is spectrum-driven, so the saving can be zero —
		// the exact-solution case above is the hard guarantee).
		x0 := cold.X.Clone()
		for i := range x0 {
			x0[i] += 1e-6 * rng.NormFloat64()
		}
		near, err := CGLS(a, b, Options{X0: x0})
		if err != nil {
			t.Fatalf("trial %d: near-warm CGLS: %v", trial, err)
		}
		if !near.X.Equal(want, tol) {
			t.Errorf("trial %d: near-warm solution diverged from oracle", trial)
		}
		if near.Iterations > cold.Iterations {
			t.Errorf("trial %d: warm start took %d iterations, cold took %d", trial, near.Iterations, cold.Iterations)
		}
	}

	// A wrong-length warm start is a shape error, not a crash.
	a, _ := randomTall(rand.New(rand.NewSource(1)), 8, 4)
	if _, err := CGLS(a, make(la.Vector, 8), Options{X0: make(la.Vector, 3)}); !errors.Is(err, la.ErrShape) {
		t.Fatalf("short X0: err = %v, want ErrShape", err)
	}
}
