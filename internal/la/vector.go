package la

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64. It is an ordinary slice so
// callers can index, range, and append with native syntax; the methods
// below never mutate their receiver unless documented.
type Vector []float64

// Ones returns a vector of length n with every entry 1.
func Ones(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("la: Add vectors of length %d and %d: %w", len(v), len(w), ErrShape)
	}
	out := v.Clone()
	for i, x := range w {
		out[i] += x
	}
	return out, nil
}

// Sub returns v − w.
func (v Vector) Sub(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("la: Sub vectors of length %d and %d: %w", len(v), len(w), ErrShape)
	}
	out := v.Clone()
	for i, x := range w {
		out[i] -= x
	}
	return out, nil
}

// Scale returns s·v as a new vector.
func (v Vector) Scale(s float64) Vector {
	out := v.Clone()
	for i := range out {
		out[i] *= s
	}
	return out
}

// Dot returns the inner product ⟨v, w⟩.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("la: Dot vectors of length %d and %d: %w", len(v), len(w), ErrShape)
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s, nil
}

// Norm1 returns the L1 norm Σ|vᵢ|. This is the paper's damage metric
// ‖m‖₁ (Definition 2) and the detection residual norm (Remark 4).
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean norm.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the max-abs norm.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns Σvᵢ.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Min returns the smallest entry. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("la: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest entry. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("la: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// GEQ reports whether v ⪰ w − tol componentwise (the paper's ⪰ with a
// numerical slack).
func (v Vector) GEQ(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if x < w[i]-tol {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have equal length and entries within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-w[i]) > tol {
			return false
		}
	}
	return true
}
