package experiment

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLossStudyEndToEnd(t *testing.T) {
	r, err := LossStudy(LossStudyConfig{Seed: 1})
	if err != nil {
		t.Fatalf("LossStudy: %v", err)
	}
	// Clean tomography should track delivery ratios within sampling
	// noise (3000 probes ⇒ ratio noise ≲ 1%; least squares amplifies it
	// somewhat across 23 paths/10 links).
	if r.CleanMaxRatioErr > 0.05 {
		t.Errorf("clean max ratio error %.4f too large", r.CleanMaxRatioErr)
	}
	if !r.AttackFeasible {
		t.Fatal("grey-hole attack infeasible on Fig1")
	}
	if !r.VictimAbnormal {
		t.Errorf("victim estimated ratio %.3f not classified abnormal", r.VictimEstimatedRatio)
	}
	// The victim's real delivery never changed.
	if r.VictimTrueRatio < 0.99 {
		t.Errorf("victim true ratio %.3f outside draw range", r.VictimTrueRatio)
	}
	if r.VictimEstimatedRatio > 0.70 {
		t.Errorf("estimated victim ratio %.3f above abnormal bar 0.70", r.VictimEstimatedRatio)
	}
	if !r.AttackersNormal {
		t.Error("attacker links not all normal in loss domain")
	}
	// Link 10 is imperfectly cut, so the sampled-measurement detector
	// should still catch the manipulation.
	if !r.Detected {
		t.Error("imperfect-cut grey-hole attack undetected")
	}
	if r.Alpha <= 0 {
		t.Errorf("alpha = %g", r.Alpha)
	}
	if !strings.Contains(r.String(), "delivery ratio") {
		t.Error("String output malformed")
	}
}

func TestLossStudyDeterministic(t *testing.T) {
	a, err := LossStudy(LossStudyConfig{Seed: 2, ProbesPerPath: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LossStudy(LossStudyConfig{Seed: 2, ProbesPerPath: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if a.VictimEstimatedRatio != b.VictimEstimatedRatio || a.Alpha != b.Alpha {
		t.Error("LossStudy not deterministic for equal seeds")
	}
}

func TestLossToAdditive(t *testing.T) {
	got, err := lossToAdditive(1)
	if err != nil || got != 0 {
		t.Errorf("lossToAdditive(1) = %g, %v; want 0", got, err)
	}
	got, err = lossToAdditive(0.5)
	if err != nil || math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("lossToAdditive(0.5) = %g, %v; want ln2", got, err)
	}
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := lossToAdditive(bad); err == nil {
			t.Errorf("lossToAdditive(%g) accepted", bad)
		}
	}
}

func TestLossRoundTripProperty(t *testing.T) {
	// Property: lossFromAdditive ∘ lossToAdditive is identity on (0,1].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := math.Nextafter(0, 1) + rng.Float64()*(1-1e-9)
		a, err := lossToAdditive(r)
		if err != nil {
			return false
		}
		return math.Abs(lossFromAdditive(a)-r) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLossAdditivityProperty(t *testing.T) {
	// Property: the additive form of a product of ratios is the sum of
	// the additive forms — the reason tomography works for loss at all.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1 := 0.1 + rng.Float64()*0.9
		r2 := 0.1 + rng.Float64()*0.9
		a1, _ := lossToAdditive(r1)
		a2, _ := lossToAdditive(r2)
		a12, _ := lossToAdditive(r1 * r2)
		return math.Abs(a12-(a1+a2)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
