package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/netsim"
	"repro/internal/tomo"
)

// LossStudyConfig parameterizes the loss-domain study.
type LossStudyConfig struct {
	// Seed drives delivery-ratio draws and probe sampling.
	Seed int64
	// ProbesPerPath is the per-path probe count used to measure
	// delivery ratios (default 20000; the additive-domain noise on a
	// path with delivery p has std ≈ √((1−p)/(p·n)), so heavily dropped
	// paths need many probes for a stable estimate).
	ProbesPerPath int
	// Parallel is the worker count for the calibration rounds
	// (0 = GOMAXPROCS); it never changes the result.
	Parallel int
	// Progress, when non-nil, is called after each calibration round.
	Progress mc.Progress
}

func (c LossStudyConfig) probes() int {
	if c.ProbesPerPath <= 0 {
		return 20000
	}
	return c.ProbesPerPath
}

// LossStudyResult is the outcome of the loss-domain scapegoating study:
// tomography, attack, and detection all run on −log delivery ratios,
// exercising the paper's Section II-A claim that loss is additive in the
// logarithmic domain.
type LossStudyResult struct {
	// CleanMaxRatioErr is the largest per-link |estimated − true|
	// delivery-ratio error without an attack.
	CleanMaxRatioErr float64 `json:"clean_max_ratio_err"`
	// AttackFeasible reports whether the grey-hole scapegoating attack
	// found a plan.
	AttackFeasible bool `json:"attack_feasible"`
	// VictimEstimatedRatio is the victim's delivery ratio under attack,
	// as the misled operator estimates it.
	VictimEstimatedRatio float64 `json:"victim_estimated_ratio"`
	// VictimTrueRatio is its actual delivery ratio.
	VictimTrueRatio float64 `json:"victim_true_ratio"`
	// VictimAbnormal reports whether tomography classifies the victim
	// as lossy beyond the abnormal threshold.
	VictimAbnormal bool `json:"victim_abnormal"`
	// AttackersNormal reports whether every attacker link still looks
	// healthy.
	AttackersNormal bool `json:"attackers_normal"`
	// Detected is the consistency detector's verdict on the measured
	// (sampled) loss vector.
	Detected bool `json:"detected"`
	// Alpha is the calibrated detection threshold (additive domain).
	Alpha float64 `json:"alpha"`
}

// Loss-domain thresholds: delivery above 95% is normal, below 70% is
// abnormal; expressed in the additive −log domain for Definition 1.
const (
	lossNormalRatio   = 0.95
	lossAbnormalRatio = 0.70
)

// LossStudy runs grey-hole scapegoating with the loss metric end to end:
// probes are dropped per link with the true delivery probabilities, the
// attacker adds selective dropping on the paths it controls, and
// tomography, classification, and detection all operate on the additive
// −log measurements.
func LossStudy(cfg LossStudyConfig) (*LossStudyResult, error) {
	env, err := NewFig1Env(cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := env.Topo
	rng := rand.New(rand.NewSource(cfg.Seed + 5000))

	// True per-link delivery ratios in [0.99, 0.999] — genuinely healthy
	// links, comfortably above the 0.95 normal bar.
	nLinks := f.G.NumLinks()
	ratios := make(la.Vector, nLinks)
	trueX := make(la.Vector, nLinks)
	for i := range ratios {
		ratios[i] = 0.99 + rng.Float64()*0.009
		x, err := lossToAdditive(ratios[i])
		if err != nil {
			return nil, err
		}
		trueX[i] = x
	}

	thLower, err := lossToAdditive(lossNormalRatio)
	if err != nil {
		return nil, err
	}
	thUpper, err := lossToAdditive(lossAbnormalRatio)
	if err != nil {
		return nil, err
	}
	th := tomo.Thresholds{Lower: thLower, Upper: thUpper}

	// Every measurement round draws probes from its own split PRNG, so
	// rounds are independent of each other and of execution order.
	roundSeed := cfg.Seed + 5100
	runRound := func(plan *netsim.AttackPlan, round int) (la.Vector, error) {
		measured, err := netsim.RunLoss(netsim.Config{
			Graph:         f.G,
			Paths:         env.Sys.Paths(),
			LinkDelays:    trueX, // unused by loss mode but validated
			ProbesPerPath: cfg.probes(),
			RNG:           mc.RNG(roundSeed, round),
			Plan:          plan,
		}, ratios)
		if err != nil {
			return nil, err
		}
		y := make(la.Vector, len(measured))
		floor := 1.0 / (2.0 * float64(cfg.probes()))
		for i, r := range measured {
			if r < floor {
				r = floor // a fully dropped path still yields a finite log
			}
			y[i] = -math.Log(r)
		}
		return y, nil
	}

	out := &LossStudyResult{}

	// 1. Clean round: tomography recovers the per-link ratios.
	yClean, err := runRound(nil, 0)
	if err != nil {
		return nil, err
	}
	xhat, err := env.Sys.Estimate(yClean)
	if err != nil {
		return nil, err
	}
	for l := 0; l < nLinks; l++ {
		errAbs := math.Abs(lossFromAdditive(xhat[l]) - ratios[l])
		if errAbs > out.CleanMaxRatioErr {
			out.CleanMaxRatioErr = errAbs
		}
	}

	// 2. Calibrate the detector on clean sampled rounds, fanned out over
	// the trial pool (rounds 1..30 of the split stream).
	cleanRuns, err := mc.Run(30, mc.Options{Workers: cfg.Parallel, Progress: cfg.Progress},
		func(k int) (la.Vector, error) {
			return runRound(nil, 1+k)
		})
	if err != nil {
		return nil, err
	}
	alpha, err := detect.Calibrate(env.Sys, cleanRuns, 1.0, 1.5)
	if err != nil {
		return nil, err
	}
	out.Alpha = alpha

	// 3. Grey-hole attack: B and C scapegoat link 10 by selective
	// dropping. The additive cap 1.5 ≈ dropping at most ~78% of a
	// path's probes — heavier dropping would make the log-domain
	// sampling noise on those paths swamp the classification margins.
	sc := &core.Scenario{
		Sys:        env.Sys,
		Thresholds: th,
		Attackers:  f.Attackers,
		TrueX:      trueX,
		PathCap:    1.5,
		// Sampling noise at a few thousand probes is ~0.003 in the
		// additive domain per path and a few times that per estimated
		// link; a 0.025 margin keeps binding constraints clear of the
		// classification bars after re-estimation.
		Margin: 0.025,
	}
	victim := f.PaperLink[10]
	res, err := core.ChosenVictim(sc, []graph.LinkID{victim})
	if err != nil {
		return nil, err
	}
	out.AttackFeasible = res.Feasible
	if !res.Feasible {
		return out, nil
	}

	// 4. Operational replay: probes are actually dropped, measurements
	// re-estimated from samples.
	yAttack, err := runRound(&netsim.AttackPlan{
		Attackers:  map[graph.NodeID]bool{f.B: true, f.C: true},
		ExtraDelay: res.M,
	}, 31)
	if err != nil {
		return nil, err
	}
	xhatAtk, err := env.Sys.Estimate(yAttack)
	if err != nil {
		return nil, err
	}
	out.VictimEstimatedRatio = lossFromAdditive(xhatAtk[victim])
	out.VictimTrueRatio = ratios[victim]
	out.VictimAbnormal = th.Classify(xhatAtk[victim]) == tomo.Abnormal
	out.AttackersNormal = true
	links, err := sc.AttackerLinks()
	if err != nil {
		return nil, err
	}
	for l := range links {
		if th.Classify(xhatAtk[l]) != tomo.Normal {
			out.AttackersNormal = false
		}
	}

	// 5. Detection on the sampled measurements.
	det, err := detect.New(env.Sys, alpha)
	if err != nil {
		return nil, err
	}
	rep, err := det.Inspect(yAttack)
	if err != nil {
		return nil, err
	}
	out.Detected = rep.Detected
	return out, nil
}

// String renders the loss study summary.
func (r *LossStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Loss-domain scapegoating study (grey-hole attack on link 10)\n")
	fmt.Fprintf(&b, "clean tomography max delivery-ratio error: %.4f\n", r.CleanMaxRatioErr)
	if !r.AttackFeasible {
		b.WriteString("attack: INFEASIBLE\n")
		return b.String()
	}
	fmt.Fprintf(&b, "victim delivery ratio: true %.3f, estimated under attack %.3f (abnormal=%v)\n",
		r.VictimTrueRatio, r.VictimEstimatedRatio, r.VictimAbnormal)
	fmt.Fprintf(&b, "attacker links all normal: %v\n", r.AttackersNormal)
	fmt.Fprintf(&b, "detector (α=%.4f in −log domain): detected=%v\n", r.Alpha, r.Detected)
	return b.String()
}

// lossToAdditive maps a delivery (success) ratio r ∈ (0,1] to its
// additive form −ln r ≥ 0. Delivery ratios multiply along a path, so
// they add in the −log domain (Section II-A, citing Castro et al.) and
// fit the linear model y = R·x.
func lossToAdditive(r float64) (float64, error) {
	if r <= 0 || r > 1 || math.IsNaN(r) {
		return 0, fmt.Errorf("experiment: delivery ratio %g not in (0,1]", r)
	}
	return -math.Log(r), nil
}

// lossFromAdditive inverts lossToAdditive: exp(−x).
func lossFromAdditive(x float64) float64 { return math.Exp(-x) }
