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
