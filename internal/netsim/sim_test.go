package netsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// fig1Setup builds the Fig. 1 system plus a routine delay draw.
func fig1Setup(t *testing.T, seed int64) (*topo.Fig1Topology, []graph.Path, la.Vector) {
	t.Helper()
	f := topo.Fig1()
	paths, rank, err := tomo.SelectPaths(f.G, f.Monitors, tomo.SelectOptions{Exhaustive: true, TargetPaths: 23})
	if err != nil || rank != 10 {
		t.Fatalf("SelectPaths rank=%d err=%v", rank, err)
	}
	x := RoutineDelays(f.G, rand.New(rand.NewSource(seed)))
	return f, paths, x
}

func TestRunDelayMatchesModelExactly(t *testing.T) {
	// Zero jitter, no attack: simulated measurements equal R·x*.
	f, paths, x := fig1Setup(t, 1)
	got, err := RunDelay(Config{Graph: f.G, Paths: paths, LinkDelays: x})
	if err != nil {
		t.Fatalf("RunDelay: %v", err)
	}
	r := tomo.RoutingMatrix(f.G, paths)
	want, err := r.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Errorf("simulated y = %v, model y = %v", got, want)
	}
}

func TestRunDelayWithAttackMatchesModel(t *testing.T) {
	// Zero jitter, attack plan: simulated measurements equal R·x* + m.
	f, paths, x := fig1Setup(t, 2)
	m := make(la.Vector, len(paths))
	attackers := map[graph.NodeID]bool{f.B: true, f.C: true}
	for i, p := range paths {
		if p.HasAnyNode(attackers) {
			m[i] = 100 + float64(i)
		}
	}
	got, err := RunDelay(Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		Plan: &AttackPlan{Attackers: attackers, ExtraDelay: m},
	})
	if err != nil {
		t.Fatalf("RunDelay: %v", err)
	}
	r := tomo.RoutingMatrix(f.G, paths)
	y, _ := r.MulVec(x)
	want, _ := y.Add(m)
	if !got.Equal(want, 1e-9) {
		t.Errorf("simulated y' diverges from y + m")
	}
}

func TestRunDelayAttackOnlyOncePerPath(t *testing.T) {
	// A path crossing BOTH attackers must still receive the extra delay
	// exactly once.
	f, paths, x := fig1Setup(t, 3)
	attackers := map[graph.NodeID]bool{f.B: true, f.C: true}
	both := -1
	for i, p := range paths {
		if p.HasNode(f.B) && p.HasNode(f.C) {
			both = i
			break
		}
	}
	if both < 0 {
		t.Fatal("no path visits both B and C")
	}
	m := make(la.Vector, len(paths))
	m[both] = 500
	got, err := RunDelay(Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		Plan: &AttackPlan{Attackers: attackers, ExtraDelay: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for _, l := range paths[both].Links {
		base += x[l]
	}
	if math.Abs(got[both]-(base+500)) > 1e-9 {
		t.Errorf("path %d delay = %g, want %g (+500 exactly once)", both, got[both], base+500)
	}
}

func TestRunDelayDestinationAttacker(t *testing.T) {
	// Attack applied when the only attacker is the destination monitor.
	f, paths, x := fig1Setup(t, 4)
	// Find a path ending at M1 that avoids B and C internally…
	// M3→D→M2 ends at M2; make M2 the attacker.
	attackers := map[graph.NodeID]bool{f.M2: true}
	idx := -1
	for i, p := range paths {
		if p.HasNode(f.M2) && !p.HasNode(f.B) && !p.HasNode(f.C) && p.Nodes[len(p.Nodes)-1] == f.M2 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Skip("no path terminating at M2 avoiding B,C in this selection")
	}
	m := make(la.Vector, len(paths))
	m[idx] = 321
	got, err := RunDelay(Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		Plan: &AttackPlan{Attackers: attackers, ExtraDelay: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for _, l := range paths[idx].Links {
		base += x[l]
	}
	if math.Abs(got[idx]-(base+321)) > 1e-9 {
		t.Errorf("delay = %g, want %g", got[idx], base+321)
	}
}

func TestRunDelayJitterAveragesOut(t *testing.T) {
	// With many probes per path, the mean tracks the model closely.
	f, paths, x := fig1Setup(t, 5)
	got, err := RunDelay(Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		Jitter: 2.0, ProbesPerPath: 400, RNG: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := tomo.RoutingMatrix(f.G, paths)
	want, _ := r.MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1.5 {
			t.Errorf("path %d mean %g too far from %g", i, got[i], want[i])
		}
	}
}

func TestRunDelayDeterministic(t *testing.T) {
	f, paths, x := fig1Setup(t, 7)
	run := func() la.Vector {
		y, err := RunDelay(Config{
			Graph: f.G, Paths: paths, LinkDelays: x,
			Jitter: 3, ProbesPerPath: 5, RNG: rand.New(rand.NewSource(99)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	if !run().Equal(run(), 0) {
		t.Error("equal seeds produced different measurements")
	}
}

func TestConfigValidation(t *testing.T) {
	f, paths, x := fig1Setup(t, 1)
	base := Config{Graph: f.G, Paths: paths, LinkDelays: x}
	tests := []struct {
		name string
		mut  func(c *Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"no paths", func(c *Config) { c.Paths = nil }},
		{"short delays", func(c *Config) { c.LinkDelays = la.Vector{1} }},
		{"negative delay", func(c *Config) { d := x.Clone(); d[0] = -1; c.LinkDelays = d }},
		{"negative jitter", func(c *Config) { c.Jitter = -1 }},
		{"jitter without RNG", func(c *Config) { c.Jitter = 1 }},
		{"plan length", func(c *Config) {
			c.Plan = &AttackPlan{Attackers: map[graph.NodeID]bool{f.B: true}, ExtraDelay: la.Vector{1}}
		}},
		{"plan negative", func(c *Config) {
			m := make(la.Vector, len(paths))
			m[0] = -1
			c.Plan = &AttackPlan{Attackers: map[graph.NodeID]bool{f.B: true}, ExtraDelay: m}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := base
			tt.mut(&c)
			if _, err := RunDelay(c); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestPlanRejectsAttackerFreePath(t *testing.T) {
	// Constraint 1 is enforced operationally: manipulating a path with
	// no attacker on it must be rejected.
	f, paths, x := fig1Setup(t, 1)
	attackers := map[graph.NodeID]bool{f.B: true, f.C: true}
	free := -1
	for i, p := range paths {
		if !p.HasAnyNode(attackers) {
			free = i
			break
		}
	}
	if free < 0 {
		t.Fatal("no attacker-free path")
	}
	m := make(la.Vector, len(paths))
	m[free] = 10
	_, err := RunDelay(Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		Plan: &AttackPlan{Attackers: attackers, ExtraDelay: m},
	})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig", err)
	}
}

func TestRunLossMatchesExpectation(t *testing.T) {
	// High probe count: measured delivery ratio approaches the product
	// of link delivery probabilities.
	f, paths, x := fig1Setup(t, 8)
	probs := make(la.Vector, f.G.NumLinks())
	for i := range probs {
		probs[i] = 0.9 + 0.01*float64(i%10)
	}
	cfg := Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		ProbesPerPath: 4000, RNG: rand.New(rand.NewSource(9)),
	}
	got, err := RunLoss(cfg, probs)
	if err != nil {
		t.Fatalf("RunLoss: %v", err)
	}
	for i, p := range paths {
		want := 1.0
		for _, l := range p.Links {
			want *= probs[l]
		}
		if math.Abs(got[i]-want) > 0.04 {
			t.Errorf("path %d ratio %g, want ≈ %g", i, got[i], want)
		}
	}
}

func TestRunLossWithAttack(t *testing.T) {
	// The attacked path's delivery ratio drops by ≈ exp(−m).
	f, paths, x := fig1Setup(t, 10)
	attackers := map[graph.NodeID]bool{f.B: true}
	idx := -1
	for i, p := range paths {
		if p.HasNode(f.B) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no path through B")
	}
	mAdd := -math.Log(0.5) // halve delivery
	m := make(la.Vector, len(paths))
	m[idx] = mAdd
	probs := make(la.Vector, f.G.NumLinks())
	for i := range probs {
		probs[i] = 1
	}
	cfg := Config{
		Graph: f.G, Paths: paths, LinkDelays: x,
		ProbesPerPath: 4000, RNG: rand.New(rand.NewSource(11)),
		Plan: &AttackPlan{Attackers: attackers, ExtraDelay: m},
	}
	got, err := RunLoss(cfg, probs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[idx]-0.5) > 0.05 {
		t.Errorf("attacked path ratio = %g, want ≈ 0.5", got[idx])
	}
	for i := range paths {
		if i != idx && got[i] != 1 {
			t.Errorf("untouched path %d ratio = %g, want 1", i, got[i])
		}
	}
}

func TestRunLossValidation(t *testing.T) {
	f, paths, x := fig1Setup(t, 1)
	cfg := Config{Graph: f.G, Paths: paths, LinkDelays: x, RNG: rand.New(rand.NewSource(1))}
	if _, err := RunLoss(cfg, la.Vector{0.5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short probs: err = %v", err)
	}
	bad := make(la.Vector, f.G.NumLinks())
	if _, err := RunLoss(cfg, bad); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero prob: err = %v", err)
	}
	cfg.RNG = nil
	good := make(la.Vector, f.G.NumLinks())
	for i := range good {
		good[i] = 1
	}
	if _, err := RunLoss(cfg, good); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil RNG: err = %v", err)
	}
}

func TestRoutineDelaysRange(t *testing.T) {
	f := topo.Fig1()
	f2 := func(seed int64) bool {
		x := RoutineDelays(f.G, rand.New(rand.NewSource(seed)))
		if len(x) != f.G.NumLinks() {
			return false
		}
		for _, v := range x {
			if v < 1 || v > 20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	// Events fire in time order with deterministic tie-breaking.
	eng := &engine{}
	var got []int
	eng.schedule(5, func() { got = append(got, 3) })
	eng.schedule(1, func() { got = append(got, 1) })
	eng.schedule(1, func() { got = append(got, 2) })
	eng.schedule(-4, func() { got = append(got, 0) }) // clamped to now
	eng.run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := &engine{}
	var times []float64
	eng.schedule(1, func() {
		times = append(times, eng.now)
		eng.schedule(2, func() { times = append(times, eng.now) })
	})
	eng.run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

// newSeededRNG is a tiny helper for trace tests.
func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
