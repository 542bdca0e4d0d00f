package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorConstructors(t *testing.T) {
	if got := Ones(2); !got.Equal(Vector{1, 1}, 0) {
		t.Errorf("Ones(2) = %v", got)
	}
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	sum, err := v.Add(w)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !sum.Equal(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", sum)
	}
	diff, err := sum.Sub(w)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if !diff.Equal(v, 0) {
		t.Errorf("Sub round-trip = %v", diff)
	}
	if _, err := v.Add(Vector{1}); !errors.Is(err, ErrShape) {
		t.Errorf("Add mismatched: err = %v, want ErrShape", err)
	}
	if _, err := v.Sub(Vector{1}); !errors.Is(err, ErrShape) {
		t.Errorf("Sub mismatched: err = %v, want ErrShape", err)
	}
}

func TestVectorDot(t *testing.T) {
	got, err := Vector{1, 2, 3}.Dot(Vector{4, 5, 6})
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if _, err := (Vector{1}).Dot(Vector{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("Dot mismatched: err = %v, want ErrShape", err)
	}
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm1(); got != 7 {
		t.Errorf("Norm1 = %g, want 7", got)
	}
	if got := v.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	if got := v.NormInf(); got != 4 {
		t.Errorf("NormInf = %g, want 4", got)
	}
}

func TestVectorStats(t *testing.T) {
	v := Vector{2, 8, 5}
	if got := v.Sum(); got != 15 {
		t.Errorf("Sum = %g", got)
	}
	if got := v.Mean(); got != 5 {
		t.Errorf("Mean = %g", got)
	}
	if got := v.Min(); got != 2 {
		t.Errorf("Min = %g", got)
	}
	if got := v.Max(); got != 8 {
		t.Errorf("Max = %g", got)
	}
	if got := (Vector{}).Mean(); got != 0 {
		t.Errorf("Mean of empty = %g, want 0", got)
	}
}

func TestVectorMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty did not panic")
		}
	}()
	Vector{}.Min()
}

func TestGEQ(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		tol  float64
		want bool
	}{
		{"strictly greater", Vector{2, 3}, Vector{1, 2}, 0, true},
		{"equal", Vector{1, 2}, Vector{1, 2}, 0, true},
		{"one below", Vector{1, 1}, Vector{1, 2}, 0, false},
		{"below within tol", Vector{1, 1.999}, Vector{1, 2}, 0.01, true},
		{"length mismatch", Vector{1}, Vector{1, 2}, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.GEQ(tt.w, tt.tol); got != tt.want {
				t.Errorf("GEQ = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// Property: ‖v+w‖ ≤ ‖v‖+‖w‖ in all three norms.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		v, w := randomVector(rng, n), randomVector(rng, n)
		sum, _ := v.Add(w)
		const eps = 1e-9
		return sum.Norm1() <= v.Norm1()+w.Norm1()+eps &&
			sum.Norm2() <= v.Norm2()+w.Norm2()+eps &&
			sum.NormInf() <= v.NormInf()+w.NormInf()+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	// Property: |⟨v,w⟩| ≤ ‖v‖₂·‖w‖₂.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		v, w := randomVector(rng, n), randomVector(rng, n)
		d, _ := v.Dot(w)
		return math.Abs(d) <= v.Norm2()*w.Norm2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomVector(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
