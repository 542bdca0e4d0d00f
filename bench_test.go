package repro

// Benchmark harness: one bench per evaluation figure (Figs. 4–9), plus
// substrate micro-benchmarks and the ablations called out in DESIGN.md.
// Each figure bench regenerates the corresponding result end to end, so
// `go test -bench=.` re-derives the whole evaluation.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/lp"
	"repro/internal/netsim"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// --- Figure benches -----------------------------------------------------

func BenchmarkFig4ChosenVictim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig4(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkFig5MaxDamage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkFig6Obfuscation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig6(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkFig7SuccessVsPresence(b *testing.B) {
	for _, kind := range []experiment.NetworkKind{experiment.Wireline, experiment.Wireless} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Fig7(experiment.Fig7Config{
					Kind: kind, Seed: int64(i + 1), Trials: 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig8SingleAttacker(b *testing.B) {
	for _, kind := range []experiment.NetworkKind{experiment.Wireline, experiment.Wireless} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Fig8(experiment.Fig8Config{
					Kind: kind, Seed: int64(i + 1), Trials: 5,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9(experiment.Fig9Config{Seed: int64(i + 1), Trials: 5})
		if err != nil {
			b.Fatal(err)
		}
		if r.FalseAlarms != 0 {
			b.Fatal("false alarms")
		}
	}
}

// --- Shared fixtures ----------------------------------------------------

var (
	benchFig1Once sync.Once
	benchFig1Sys  *tomo.System
	benchFig1Topo *topo.Fig1Topology
	benchFig1X    la.Vector
)

func fig1Fixture(b *testing.B) (*topo.Fig1Topology, *tomo.System, la.Vector) {
	b.Helper()
	benchFig1Once.Do(func() {
		f := topo.Fig1()
		paths, rank, err := tomo.SelectPaths(f.G, f.Monitors, tomo.SelectOptions{Exhaustive: true, TargetPaths: 23})
		if err != nil || rank != 10 {
			panic("fig1 fixture")
		}
		sys, err := tomo.NewSystem(f.G, paths)
		if err != nil {
			panic(err)
		}
		benchFig1Topo, benchFig1Sys = f, sys
		benchFig1X = netsim.RoutineDelays(f.G, rand.New(rand.NewSource(1)))
	})
	return benchFig1Topo, benchFig1Sys, benchFig1X
}

// --- Substrate micro-benches ---------------------------------------------

func BenchmarkTomographyEstimate(b *testing.B) {
	_, sys, x := fig1Fixture(b)
	y, err := sys.Measure(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Estimate(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateColdVsWarm isolates the win of the memoized
// normal-equation factorization: "cold" rebuilds the system and refactors
// R for every estimate (the pre-cache behaviour of a one-shot CLI),
// "warm" reuses one system the way tomographyd's solver cache does, so
// steady-state estimates are a single matvec against the cached operator.
func BenchmarkEstimateColdVsWarm(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	y, err := sys.Measure(x)
	if err != nil {
		b.Fatal(err)
	}
	paths := sys.Paths()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, err := tomo.NewSystem(f.G, paths)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.Estimate(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm, err := tomo.NewSystem(f.G, paths)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Estimate(y); err != nil { // pay factorization up front
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := warm.Estimate(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEstimateColdVsWarmISP is the same comparison at ISP scale
// (~104 nodes), where refactorization dominates even more.
func BenchmarkEstimateColdVsWarmISP(b *testing.B) {
	env, err := experiment.NewEnv(experiment.Wireline, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := netsim.RoutineDelays(env.G, rand.New(rand.NewSource(1)))
	y, err := env.Sys.Measure(x)
	if err != nil {
		b.Fatal(err)
	}
	paths := env.Sys.Paths()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, err := tomo.NewSystem(env.G, paths)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.Estimate(y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm, err := tomo.NewSystem(env.G, paths)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := warm.Estimate(y); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := warm.Estimate(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRoutingOperatorISP(b *testing.B) {
	env, err := experiment.NewEnv(experiment.Wireline, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := env.Sys.R()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.NormalEquationOperator(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexAttackLP(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &core.Scenario{
			Sys:        sys,
			Thresholds: tomo.DefaultThresholds(),
			Attackers:  f.Attackers,
			TrueX:      x,
		}
		res, err := core.ChosenVictim(sc, []graph.LinkID{f.PaperLink[10]})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkSimplexRaw(b *testing.B) {
	// A mid-size dense LP resembling one attack solve.
	rng := rand.New(rand.NewSource(2))
	const n, m = 40, 60
	build := func() *lp.Problem {
		p := lp.NewProblem(n)
		c := make([]float64, n)
		for j := range c {
			c[j] = 1
		}
		if err := p.SetObjective(c); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			if err := p.AddConstraint(row, lp.LE, 10+rng.Float64()*10); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < n; j++ {
			if err := p.SetUpperBound(j, 100); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(build()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathSelectionFig1(b *testing.B) {
	f := topo.Fig1()
	for i := 0; i < b.N; i++ {
		_, rank, err := tomo.SelectPaths(f.G, f.Monitors, tomo.SelectOptions{Exhaustive: true, TargetPaths: 23})
		if err != nil || rank != 10 {
			b.Fatal("selection failed")
		}
	}
}

func BenchmarkMonitorPlacementISP(b *testing.B) {
	g, err := topo.ISP(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		_, _, rank, err := tomo.PlaceMonitors(g, rng, tomo.PlaceOptions{
			Initial: 8,
			Select:  tomo.SelectOptions{PerPair: 6},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rank != g.NumLinks() {
			b.Fatalf("rank %d", rank)
		}
	}
}

func BenchmarkNetsimMeasurementRound(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	_ = f
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunDelay(netsim.Config{
			Graph: sys.Graph(), Paths: sys.Paths(), LinkDelays: x,
			Jitter: 1, ProbesPerPath: 3, RNG: rng,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectionInspect(b *testing.B) {
	_, sys, x := fig1Fixture(b)
	y, err := sys.Measure(x)
	if err != nil {
		b.Fatal(err)
	}
	det, err := detect.New(sys, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Inspect(y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §7) --------------------------------------------

// BenchmarkAblationSecurePlacement compares plain vs security-aware path
// selection; the reported metric of interest is the custom
// "max-presence" value alongside the time cost of the secure variant.
func BenchmarkAblationSecurePlacement(b *testing.B) {
	f := topo.Fig1()
	opts := tomo.SelectOptions{Exhaustive: true, TargetPaths: 23}
	b.Run("plain", func(b *testing.B) {
		var maxPresence float64
		for i := 0; i < b.N; i++ {
			paths, _, err := tomo.SelectPaths(f.G, f.Monitors, opts)
			if err != nil {
				b.Fatal(err)
			}
			maxPresence = maxNonMonitorPresence(f, paths)
		}
		b.ReportMetric(maxPresence, "max-presence")
	})
	b.Run("secure", func(b *testing.B) {
		var maxPresence float64
		for i := 0; i < b.N; i++ {
			paths, _, err := tomo.SelectPathsSecure(f.G, f.Monitors, opts)
			if err != nil {
				b.Fatal(err)
			}
			maxPresence = maxNonMonitorPresence(f, paths)
		}
		b.ReportMetric(maxPresence, "max-presence")
	})
}

func maxNonMonitorPresence(f *topo.Fig1Topology, paths []graph.Path) float64 {
	isMon := map[graph.NodeID]bool{f.M1: true, f.M2: true, f.M3: true}
	var m float64
	for v, r := range tomo.NodePresenceRatios(f.G, paths) {
		if !isMon[graph.NodeID(v)] && r > m {
			m = r
		}
	}
	return m
}

// BenchmarkAblationStealthyVsPlain compares the plain damage-maximizing
// LP with the consistent (stealthy) construction on the same perfect-cut
// victim; the damage metric shows the stealth tax.
func BenchmarkAblationStealthyVsPlain(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	for _, stealthy := range []bool{false, true} {
		name := "plain"
		if stealthy {
			name = "stealthy"
		}
		b.Run(name, func(b *testing.B) {
			var damage float64
			for i := 0; i < b.N; i++ {
				sc := &core.Scenario{
					Sys:        sys,
					Thresholds: tomo.DefaultThresholds(),
					Attackers:  f.Attackers,
					TrueX:      x,
					Stealthy:   stealthy,
				}
				res, err := core.ChosenVictim(sc, []graph.LinkID{f.PaperLink[1]})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("infeasible")
				}
				damage = res.Damage
			}
			b.ReportMetric(damage, "damage-ms")
		})
	}
}

// BenchmarkAblationConfineOthers measures the damage cost of keeping
// third links inconspicuous (ConfineOthers) in the Fig. 4 attack.
func BenchmarkAblationConfineOthers(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	for _, confine := range []bool{false, true} {
		name := "free"
		if confine {
			name = "confined"
		}
		b.Run(name, func(b *testing.B) {
			var damage float64
			for i := 0; i < b.N; i++ {
				sc := &core.Scenario{
					Sys:           sys,
					Thresholds:    tomo.DefaultThresholds(),
					Attackers:     f.Attackers,
					TrueX:         x,
					ConfineOthers: confine,
				}
				res, err := core.ChosenVictim(sc, []graph.LinkID{f.PaperLink[10]})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("infeasible")
				}
				damage = res.Damage
			}
			b.ReportMetric(damage, "damage-ms")
		})
	}
}

// --- Extras benches (beyond-paper studies) --------------------------------

func BenchmarkExtraLossStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.LossStudy(experiment.LossStudyConfig{Seed: int64(i + 1), ProbesPerPath: 5000})
		if err != nil {
			b.Fatal(err)
		}
		if !r.AttackFeasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkExtraEvasionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.EvasionStudy(experiment.EvasionStudyConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraCentralityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CentralityStudy(experiment.CentralityStudyConfig{
			Kind: experiment.Wireless, Seed: 1, Trials: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectLocalizeISP(b *testing.B) {
	env, err := experiment.NewEnv(experiment.Wireline, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var res *core.Result
	for k := 0; k < 60 && res == nil; k++ {
		attacker := graph.NodeID(rng.Intn(env.G.NumNodes()))
		sc := &core.Scenario{
			Sys:        env.Sys,
			Thresholds: tomo.DefaultThresholds(),
			Attackers:  []graph.NodeID{attacker},
			TrueX:      netsim.RoutineDelays(env.G, rng),
		}
		r, err := core.MaxDamage(sc, core.MaxDamageOptions{MaxVictims: 1, FirstFeasible: true})
		if err != nil {
			b.Fatal(err)
		}
		if r.Feasible {
			res = r
		}
	}
	if res == nil {
		b.Fatal("no feasible attack")
	}
	det, err := detect.New(env.Sys, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Localize(res.YObserved, detect.LocalizeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBetweennessISP(b *testing.B) {
	g, err := topo.ISP(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BetweennessCentrality(g)
	}
}

func BenchmarkCampaignTwentyRounds(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	_ = f
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(campaign.Config{
			Sys: sys, TrueX: x, Rounds: 20,
			Jitter: 1, ProbesPerPath: 3, RNG: rand.New(rand.NewSource(int64(i + 1))),
			Drift: 150, Ceiling: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != 20 {
			b.Fatal("short campaign")
		}
	}
}

func BenchmarkExtraLatencyStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.LatencyStudy(experiment.LatencyStudyConfig{Seed: int64(i + 1), Trials: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraDetectorMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DetectorMatrix(experiment.DetectorMatrixConfig{Seed: int64(i + 1), Trials: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtraPlacementStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.PlacementStudy(experiment.PlacementStudyConfig{Seed: 1, Trials: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStealthyAttackLP(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &core.Scenario{
			Sys:        sys,
			Thresholds: tomo.DefaultThresholds(),
			Attackers:  f.Attackers,
			TrueX:      x,
			Stealthy:   true,
		}
		res, err := core.ChosenVictim(sc, []graph.LinkID{f.PaperLink[1]})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvasiveAttackLP(b *testing.B) {
	f, sys, x := fig1Fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := &core.Scenario{
			Sys:        sys,
			Thresholds: tomo.DefaultThresholds(),
			Attackers:  f.Attackers,
			TrueX:      x,
			EvadeAlpha: 2850,
		}
		res, err := core.ChosenVictim(sc, []graph.LinkID{f.PaperLink[10]})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkExtraRocStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RocStudy(experiment.RocStudyConfig{Seed: int64(i + 1), Rounds: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
