package detect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/sparse"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// theorem3Alpha is the detection threshold of the backbone property.
const theorem3Alpha = 200

// backboneFixture builds the backbone measurement system the benchmark
// workloads serve: topo.Backbone(31, links) probed by BackbonePaths with
// links/10 extra paths, on the dense or the sparse route.
func backboneFixture(t *testing.T, links int, dense bool) *tomo.System {
	t.Helper()
	g, err := topo.Backbone(31, links)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := topo.BackbonePaths(g, links/10, 31)
	if err != nil {
		t.Fatal(err)
	}
	build := tomo.NewSparseSystem
	if dense {
		build = tomo.NewSystem
	}
	sys, err := build(g, paths)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dense() != dense {
		t.Fatalf("%d-link fixture: dense route = %v, want %v", links, sys.Dense(), dense)
	}
	return sys
}

// projectionResidual returns an oracle for ‖(I − H)·m‖₁, H = R(RᵀR)⁻¹Rᵀ,
// that shares nothing with either solver route: Householder QR of the
// dense R when qr is set, CGLS at a 1e-12 tolerance otherwise.
func projectionResidual(t *testing.T, a *sparse.CSR, qr bool) func(m la.Vector) float64 {
	t.Helper()
	resid := func(m, xm la.Vector) float64 {
		rx, err := a.MulVec(xm)
		if err != nil {
			t.Fatal(err)
		}
		d, err := rx.Sub(m)
		if err != nil {
			t.Fatal(err)
		}
		return d.Norm1()
	}
	if qr {
		f, err := la.FactorQR(a.Dense())
		if err != nil {
			t.Fatal(err)
		}
		return func(m la.Vector) float64 {
			xm, err := f.Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			return resid(m, xm)
		}
	}
	return func(m la.Vector) float64 {
		res, err := sparse.CGLS(a, m, sparse.Options{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		return resid(m, res.X)
	}
}

// checkTheorem3 runs both halves of Theorem 3 on one system.
//
// Perfect cut: m = R·δ with δ ⪰ 0 on victim links is non-negative and
// zero on every path avoiding the victims, so it satisfies Constraint 1
// once each victim path carries an attacker, and its residual is zero
// in exact arithmetic. The computed floor must stay under 1e-13·‖m‖₁.
//
// Imperfect cut: m on a strict subset of one victim's paths has
// residual ‖(I − H)·m‖₁, and the detector must alarm exactly when that
// exceeds α. Draws within 1e-6·α of α are skipped: there the verdict
// belongs to rounding, not to the theorem.
func checkTheorem3(t *testing.T, sys *tomo.System, oracle func(la.Vector) float64, seed int64) {
	t.Helper()
	det, err := New(sys, theorem3Alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make(la.Vector, sys.NumLinks())
	for i := range x {
		x[i] = 1 + 9*rng.Float64()
	}
	y, err := sys.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(m la.Vector) *Report {
		yp, err := y.Add(m)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := det.Inspect(yp)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	worst := 0.0
	for draw := 0; draw < 5; draw++ {
		delta := make(la.Vector, sys.NumLinks())
		for v := 0; v < 10; v++ {
			delta[rng.Intn(len(delta))] = 1e3 + 9e3*rng.Float64()
		}
		m, err := sys.Measure(delta)
		if err != nil {
			t.Fatal(err)
		}
		rep := observe(m)
		if ratio := rep.ResidualNorm / m.Norm1(); ratio > worst {
			worst = ratio
		}
		if rep.ResidualNorm > 1e-13*m.Norm1() || rep.Detected {
			t.Fatalf("perfect cut draw %d: residual %.3g for ‖m‖₁ = %.3g (detected %v)",
				draw, rep.ResidualNorm, m.Norm1(), rep.Detected)
		}
	}
	t.Logf("perfect-cut residual floor ≤ %.2g·‖m‖₁", worst)

	// Victims with at least two paths, so a strict subset is nonempty.
	var victims []graph.LinkID
	onPaths := make([]int, sys.NumLinks())
	for _, p := range sys.Paths() {
		for _, l := range p.Links {
			if onPaths[l]++; onPaths[l] == 2 {
				victims = append(victims, l)
			}
		}
	}
	alarms, checked := 0, 0
	for draw := 0; draw < 24; draw++ {
		v := victims[rng.Intn(len(victims))]
		victim := sys.PathsWithLink(v)
		m := make(la.Vector, sys.NumPaths())
		rng.Shuffle(len(victim), func(i, j int) { victim[i], victim[j] = victim[j], victim[i] })
		for _, p := range victim[:1+rng.Intn(len(victim)-1)] {
			m[p] = 1
		}
		unit := oracle(m)
		if unit == 0 {
			continue
		}
		scale := theorem3Alpha / unit * (0.25 + 1.75*rng.Float64())
		for i := range m {
			m[i] *= scale
		}
		want := unit * scale
		if math.Abs(want-theorem3Alpha) <= 1e-6*theorem3Alpha {
			continue
		}
		rep := observe(m)
		if rep.Detected != (want > theorem3Alpha) {
			t.Fatalf("imperfect cut draw %d on link %d: detected %v, oracle residual %.9g vs α %d (served %.9g)",
				draw, v, rep.Detected, want, theorem3Alpha, rep.ResidualNorm)
		}
		if math.Abs(rep.ResidualNorm-want) > 1e-6*want {
			t.Fatalf("imperfect cut draw %d: served residual %.9g, oracle %.9g", draw, rep.ResidualNorm, want)
		}
		checked++
		if rep.Detected {
			alarms++
		}
	}
	if checked < 16 || alarms == 0 || alarms == checked {
		t.Fatalf("imperfect cut: %d draws checked, %d alarmed — the property was not exercised on both sides", checked, alarms)
	}
}

// TestTheorem3AtBackboneScale holds Theorem 3 on the backbone fixtures
// of the benchmark: the 1k fixture on both routes against one QR
// oracle, the 3k fixture on the sparse route (its dense mirror exceeds
// DenseBudget) and the 10k fixture outside -short, both against CGLS.
func TestTheorem3AtBackboneScale(t *testing.T) {
	for _, links := range []int{1000, 3000, 10000} {
		t.Run(fmt.Sprintf("%dk", links/1000), func(t *testing.T) {
			if links > 3000 && testing.Short() {
				t.Skip("10k-link backbone skipped in -short mode")
			}
			routes := []bool{false}
			if links == 1000 {
				routes = []bool{true, false}
			}
			var oracle func(la.Vector) float64
			for _, dense := range routes {
				sys := backboneFixture(t, links, dense)
				if oracle == nil {
					oracle = projectionResidual(t, sys.CSR(), links == 1000)
				}
				t.Logf("dense route: %v", dense)
				checkTheorem3(t, sys, oracle, int64(links))
			}
		})
	}
}
