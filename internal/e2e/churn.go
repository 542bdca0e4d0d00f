package e2e

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/detect"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/mc"
	"repro/internal/netsim"
	"repro/internal/tomo"
	"repro/internal/topo"
)

// Seed-space layout for churn campaigns, disjoint from the load and
// stream generators' bases: global round gi draws traffic from
// mc.RNG(seed, churnRoundsSeedBase + gi); the k-th flap event draws its
// reroute from mc.RNG(seed, churnFlapSeedBase + k).
const (
	churnRoundsSeedBase = 1 << 24
	churnFlapSeedBase   = 1 << 25
)

// Churn event kinds. Every event fires at a virtual-clock time and
// folds into the routing state from that instant on; events sharing a
// timestamp fold into one epoch boundary, applied in script order.
const (
	// ChurnFailLink removes a physical link (endpoints by node name).
	ChurnFailLink = "fail-link"
	// ChurnRecoverLink restores a previously failed link.
	ChurnRecoverLink = "recover-link"
	// ChurnFlap performs one ECMP-style reroute: a deterministic
	// alternate route replaces one measurement path, graph unchanged.
	ChurnFlap = "flap"
	// ChurnMonitorLeave removes a monitor from the measurement set.
	ChurnMonitorLeave = "monitor-leave"
	// ChurnMonitorJoin adds a node (any node, not just a base monitor)
	// to the measurement set.
	ChurnMonitorJoin = "monitor-join"
	// ChurnAttackStart opens an attacker window (chosen-victim LP
	// re-solved against each epoch inside the window; Stealthy selects
	// the consistent construction).
	ChurnAttackStart = "attack-start"
	// ChurnAttackStop closes the attacker window.
	ChurnAttackStop = "attack-stop"
)

// ChurnEvent is one scripted event on the virtual clock.
type ChurnEvent struct {
	// At is the virtual time (ms) the event fires.
	At float64 `json:"at"`
	// Kind is one of the Churn* constants.
	Kind string `json:"kind"`
	// Link names the two endpoints for fail-link/recover-link.
	Link []string `json:"link,omitempty"`
	// Monitor names the monitor for monitor-leave/monitor-join.
	Monitor string `json:"monitor,omitempty"`
	// Victim is the paper's 1-based link number to scapegoat
	// (attack-start).
	Victim int `json:"victim,omitempty"`
	// Stealthy selects Theorem 1's consistent construction
	// (attack-start).
	Stealthy bool `json:"stealthy,omitempty"`
}

// ChurnScript is a time-scripted churn scenario against the Fig. 1
// testbed: a virtual clock ticking one measurement round every
// RoundSpacing ms from 0 to Horizon, with routing/attack events
// partitioning the timeline into epochs.
type ChurnScript struct {
	// Name tags the campaign; the registered topology is "churn-"+Name.
	Name string `json:"name"`
	// RoundSpacing is the virtual ms between measurement rounds
	// (0 = 1000).
	RoundSpacing float64 `json:"round_spacing,omitempty"`
	// Horizon ends the campaign (virtual ms, exclusive).
	Horizon float64 `json:"horizon"`
	// Events is the script. Order within a timestamp is preserved.
	Events []ChurnEvent `json:"events"`
}

func (s *ChurnScript) roundSpacing() float64 {
	if s.RoundSpacing <= 0 {
		return 1000
	}
	return s.RoundSpacing
}

// Validate checks script shape (not epoch identifiability, which is
// empirical and checked during compilation).
func (s *ChurnScript) Validate() error {
	if s.Name == "" {
		return errors.New("e2e: churn script needs a name")
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("e2e: churn horizon %g", s.Horizon)
	}
	for i, ev := range s.Events {
		if ev.At < 0 || ev.At >= s.Horizon {
			return fmt.Errorf("e2e: churn event %d at %g outside [0, %g)", i, ev.At, s.Horizon)
		}
		switch ev.Kind {
		case ChurnFailLink, ChurnRecoverLink:
			if len(ev.Link) != 2 {
				return fmt.Errorf("e2e: churn event %d (%s) needs two link endpoints", i, ev.Kind)
			}
		case ChurnMonitorLeave, ChurnMonitorJoin:
			if ev.Monitor == "" {
				return fmt.Errorf("e2e: churn event %d (%s) needs a monitor", i, ev.Kind)
			}
		case ChurnAttackStart:
			if ev.Victim < 1 || ev.Victim > 10 {
				return fmt.Errorf("e2e: churn event %d: victim %d not a paper link (1–10)", i, ev.Victim)
			}
		case ChurnFlap, ChurnAttackStop:
		default:
			return fmt.Errorf("e2e: churn event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// ParseChurnScript decodes and validates a JSON script.
func ParseChurnScript(r io.Reader) (*ChurnScript, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ChurnScript
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("e2e: parse churn script: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// FiveEpochScript is the canonical committed campaign: base traffic,
// then fail → flap → attacker window → monitor migration → recover,
// four rounds per epoch. The flap and the attack window share the
// failed-link regime, so those boundaries exercise the session
// path-mutation route while the fail/migrate/recover boundaries
// exercise DELETE + re-register.
//
// The monitor churn is a migration (M1 leaves, A joins) rather than a
// bare leave: on Fig. 1, losing any single monitor breaks
// identifiability (M3's two stub links, for instance, are separable
// only by paths terminating at M3), and the registration API rejects
// rank-deficient regimes. {M2, M3, A} is the one single-node
// replacement that keeps full column rank on both the base graph and
// the C–D-failed graph — M1's three incident links remain separable
// through transit pair-sums.
func FiveEpochScript() *ChurnScript {
	return &ChurnScript{
		Name:         "five-epoch",
		RoundSpacing: 1000,
		Horizon:      24000,
		Events: []ChurnEvent{
			{At: 4000, Kind: ChurnFailLink, Link: []string{"C", "D"}},
			{At: 8000, Kind: ChurnFlap},
			{At: 12000, Kind: ChurnAttackStart, Victim: 10},
			{At: 16000, Kind: ChurnAttackStop},
			{At: 16000, Kind: ChurnMonitorLeave, Monitor: "M1"},
			{At: 16000, Kind: ChurnMonitorJoin, Monitor: "A"},
			{At: 20000, Kind: ChurnRecoverLink, Link: []string{"C", "D"}},
			{At: 20000, Kind: ChurnMonitorLeave, Monitor: "A"},
			{At: 20000, Kind: ChurnMonitorJoin, Monitor: "M1"},
		},
	}
}

// PathOp is one session-mutation step of a small routing delta: add the
// walk, then remove the (pre-add) path index. Applied in order, the ops
// transform the previous epoch's path list into this epoch's exactly —
// same paths, same order — so a session mutated through them serves the
// epoch's routing matrix verbatim.
type PathOp struct {
	AddWalk []string
	Remove  int
}

// CompiledEpoch is one routing regime of a compiled churn plan.
type CompiledEpoch struct {
	// Index orders the epoch; Start/End bound it on the virtual clock.
	Index      int
	Start, End float64
	// Rounds is the virtual-clock round count inside [Start, End).
	Rounds int
	// Tag folds the boundary's event kinds ("base" for epoch 0).
	Tag string
	// Sys is the epoch's tomography system (post-churn routing matrix).
	Sys *tomo.System
	// TrueX carries each physical link's base delay draw into the
	// epoch's link numbering: a link keeps its true metric across
	// epochs even as its dense LinkID shifts.
	TrueX la.Vector
	// Plan is the attack compiled against this epoch's routing (nil
	// outside attacker windows); Damage is its ‖m‖₁.
	Plan   *netsim.AttackPlan
	Damage float64
	// Det mirrors the detector the server builds for this epoch.
	Det *detect.Detector
	// Delta, when non-nil, lists the session-mutation ops that
	// transform the previous epoch's path set into this one (graph and
	// monitors unchanged). Nil means the epoch needs a full DELETE +
	// re-register. Epoch 0's Delta is nil by definition.
	Delta []PathOp
}

// ChurnPlan is a fully compiled churn campaign: every epoch's system,
// attack, and detector, a pure function of (script, seed).
type ChurnPlan struct {
	Script *ChurnScript
	Seed   int64
	// Draw is the routine-traffic draw index the compile settled on
	// (the first one on which every attack window was feasible).
	Draw int
	// Topology is the registration name every epoch re-uses.
	Topology string
	Epochs   []CompiledEpoch
}

// churnState is the routing/attack state the event fold maintains.
type churnState struct {
	failed   map[string]bool // edge key (sorted name pair) → failed
	monitors map[string]bool // present measurement monitors, by name
	victim   int             // 0 = no attack window open
	steal    bool
}

func (st *churnState) signature() string {
	keys := make([]string, 0, len(st.failed)+len(st.monitors))
	for k := range st.failed {
		keys = append(keys, "f:"+k)
	}
	for k := range st.monitors {
		keys = append(keys, "m:"+k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func edgeKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// boundary is one epoch boundary: the events folding at a timestamp.
type boundary struct {
	at     float64
	events []ChurnEvent
}

// CompileChurn compiles a script into a runnable plan against the
// Fig. 1 testbed. Each epoch's graph is rebuilt from the base minus
// failed links (nodes inserted in base order, so NodeIDs are stable
// across epochs while LinkIDs stay dense), its path set is either the
// previous epoch's with flap substitutions (graph and monitors
// unchanged → a session-mutation Delta) or a fresh full-rank selection,
// and any open attacker window re-solves its LP against the epoch's
// own routing matrix. Identifiability is checked per epoch: a script
// whose churn breaks full column rank fails compilation loudly. The
// routine-traffic draw is searched like BuildScenario: the first draw
// on which every attack window is feasible wins, so the plan is a pure
// function of (script, seed).
func CompileChurn(script *ChurnScript, seed int64) (*ChurnPlan, error) {
	if err := script.Validate(); err != nil {
		return nil, err
	}
	f := topo.Fig1()
	boundaries, err := foldBoundaries(script)
	if err != nil {
		return nil, err
	}
	for draw := 0; draw < maxFeasibilityDraws; draw++ {
		baseX := netsim.RoutineDelays(f.G, mc.RNG(seed, draw))
		plan, err := compileOnDraw(script, seed, draw, f, baseX, boundaries)
		if errors.Is(err, campaign.ErrInfeasible) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return plan, nil
	}
	return nil, fmt.Errorf("e2e: churn script %q: attack infeasible on %d routine-traffic draws (seed %d)",
		script.Name, maxFeasibilityDraws, seed)
}

// foldBoundaries sorts events by timestamp (stable, so script order
// breaks ties) and groups them into epoch boundaries. Events at t=0
// fold into epoch 0's initial state.
func foldBoundaries(script *ChurnScript) ([]boundary, error) {
	evs := make([]ChurnEvent, len(script.Events))
	copy(evs, script.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var out []boundary
	for _, ev := range evs {
		if n := len(out); n > 0 && out[n-1].at == ev.At {
			out[n-1].events = append(out[n-1].events, ev)
			continue
		}
		out = append(out, boundary{at: ev.At, events: []ChurnEvent{ev}})
	}
	return out, nil
}

func compileOnDraw(script *ChurnScript, seed int64, draw int, f *topo.Fig1Topology,
	baseX la.Vector, boundaries []boundary) (*ChurnPlan, error) {
	plan := &ChurnPlan{
		Script:   script,
		Seed:     seed,
		Draw:     draw,
		Topology: "churn-" + script.Name,
	}
	st := &churnState{failed: map[string]bool{}, monitors: map[string]bool{}}
	for _, m := range f.Monitors {
		name, _ := f.G.NodeName(m)
		st.monitors[name] = true
	}
	spacing := script.roundSpacing()
	flapCount := 0

	// Epoch 0 starts at t=0; boundaries at t=0 fold into its state.
	bi := 0
	for bi < len(boundaries) && boundaries[bi].at == 0 {
		if err := applyEvents(st, f, boundaries[bi].events); err != nil {
			return nil, err
		}
		bi++
	}
	start := 0.0
	prevSig := ""
	tag := "base"
	var prev *CompiledEpoch
	var pendingFlaps int
	for {
		end := script.Horizon
		if bi < len(boundaries) {
			end = boundaries[bi].at
		}
		ep, err := compileEpoch(epochInput{
			index: len(plan.Epochs), start: start, end: end, tag: tag,
			script: script, seed: seed, f: f, baseX: baseX, st: st,
			prev: prev, sameRegime: prev != nil && st.signature() == prevSig,
			flaps: pendingFlaps, flapBase: flapCount - pendingFlaps,
		})
		if err != nil {
			return nil, err
		}
		ep.Rounds = roundsIn(start, end, spacing)
		if ep.Rounds < 1 {
			return nil, fmt.Errorf("e2e: churn epoch %d [%g, %g) holds no round at spacing %g",
				ep.Index, start, end, spacing)
		}
		plan.Epochs = append(plan.Epochs, *ep)
		prev = &plan.Epochs[len(plan.Epochs)-1]
		prevSig = st.signature()
		if bi >= len(boundaries) {
			break
		}
		b := boundaries[bi]
		bi++
		kinds := make([]string, len(b.events))
		pendingFlaps = 0
		for i, ev := range b.events {
			kinds[i] = ev.Kind
			if ev.Kind == ChurnFlap {
				pendingFlaps++
				flapCount++
			}
		}
		tag = strings.Join(kinds, "+")
		if err := applyEvents(st, f, b.events); err != nil {
			return nil, err
		}
		start = b.at
	}
	return plan, nil
}

// applyEvents folds a boundary's events into the routing state.
func applyEvents(st *churnState, f *topo.Fig1Topology, events []ChurnEvent) error {
	for _, ev := range events {
		switch ev.Kind {
		case ChurnFailLink, ChurnRecoverLink:
			a, okA := f.G.NodeByName(ev.Link[0])
			b, okB := f.G.NodeByName(ev.Link[1])
			if !okA || !okB {
				return fmt.Errorf("e2e: churn %s: unknown node in %v", ev.Kind, ev.Link)
			}
			if _, ok := f.G.LinkBetween(a, b); !ok {
				return fmt.Errorf("e2e: churn %s: no base link %v", ev.Kind, ev.Link)
			}
			key := edgeKey(ev.Link[0], ev.Link[1])
			if ev.Kind == ChurnFailLink {
				if st.failed[key] {
					return fmt.Errorf("e2e: churn fail-link %v: already failed", ev.Link)
				}
				st.failed[key] = true
			} else {
				if !st.failed[key] {
					return fmt.Errorf("e2e: churn recover-link %v: not failed", ev.Link)
				}
				delete(st.failed, key)
			}
		case ChurnMonitorLeave:
			if !st.monitors[ev.Monitor] {
				return fmt.Errorf("e2e: churn monitor-leave: %q is not a current monitor", ev.Monitor)
			}
			delete(st.monitors, ev.Monitor)
		case ChurnMonitorJoin:
			if _, ok := f.G.NodeByName(ev.Monitor); !ok {
				return fmt.Errorf("e2e: churn monitor-join: %q is not a node", ev.Monitor)
			}
			if st.monitors[ev.Monitor] {
				return fmt.Errorf("e2e: churn monitor-join: %q is already a monitor", ev.Monitor)
			}
			st.monitors[ev.Monitor] = true
		case ChurnAttackStart:
			if st.victim != 0 {
				return fmt.Errorf("e2e: churn attack-start: a window is already open")
			}
			st.victim, st.steal = ev.Victim, ev.Stealthy
		case ChurnAttackStop:
			if st.victim == 0 {
				return fmt.Errorf("e2e: churn attack-stop: no window open")
			}
			st.victim, st.steal = 0, false
		case ChurnFlap:
			// Applied during epoch compilation (needs the path set).
		}
	}
	return nil
}

// epochInput bundles compileEpoch's arguments.
type epochInput struct {
	index      int
	start, end float64
	tag        string
	script     *ChurnScript
	seed       int64
	f          *topo.Fig1Topology
	baseX      la.Vector
	st         *churnState
	prev       *CompiledEpoch
	sameRegime bool
	flaps      int
	flapBase   int
}

func compileEpoch(in epochInput) (*CompiledEpoch, error) {
	f, st := in.f, in.st
	g, err := buildEpochGraph(f, st.failed)
	if err != nil {
		return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
	}
	ep := &CompiledEpoch{Index: in.index, Start: in.start, End: in.end, Tag: in.tag}

	var paths []graph.Path
	if in.sameRegime {
		// Paths-only boundary: start from the previous epoch's set and
		// apply each flap as the exact add-then-remove mutation a live
		// session performs, recording the Delta ops.
		paths = append(paths, in.prev.Sys.Paths()...)
		for k := 0; k < in.flaps; k++ {
			cur, err := tomo.NewSystem(g, paths)
			if err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d flap %d: %w", in.index, k, err)
			}
			rng := mc.RNG(in.seed, churnFlapSeedBase+in.flapBase+k)
			r, alt, err := campaign.FlapPath(cur, rng)
			if err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d flap %d: %w", in.index, k, err)
			}
			walk, err := walkOf(g, alt)
			if err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d flap %d: %w", in.index, k, err)
			}
			ep.Delta = append(ep.Delta, PathOp{AddWalk: walk, Remove: r})
			next := make([]graph.Path, 0, len(paths))
			next = append(next, paths[:r]...)
			next = append(next, paths[r+1:]...)
			next = append(next, alt)
			paths = next
		}
		if ep.Delta == nil {
			// Attack-window-only boundary: routing untouched.
			ep.Delta = []PathOp{}
		}
	} else {
		monitors, err := epochMonitors(g, st.monitors)
		if err != nil {
			return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
		}
		// NumLinks+3 target paths: enough redundancy for the chosen-
		// victim LP to have room to work (the bare identifiability
		// minimum leaves it infeasible on the failed-link regime), but
		// well below the exhaustive total so later flap events still
		// have unused simple paths to reroute onto.
		var rank int
		paths, rank, err = tomo.SelectPaths(g, monitors,
			tomo.SelectOptions{Exhaustive: true, TargetPaths: g.NumLinks() + 3})
		if err != nil {
			return nil, fmt.Errorf("e2e: churn epoch %d: select paths: %w", in.index, err)
		}
		if rank != g.NumLinks() {
			return nil, fmt.Errorf("e2e: churn epoch %d (%s): path-set rank %d < %d links — regime not identifiable",
				in.index, in.tag, rank, g.NumLinks())
		}
	}
	ep.Sys, err = tomo.NewSystem(g, paths)
	if err != nil {
		return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
	}
	if !ep.Sys.Identifiable() {
		return nil, fmt.Errorf("e2e: churn epoch %d (%s): system not identifiable", in.index, in.tag)
	}
	ep.TrueX, err = mapTrueX(f, in.baseX, g)
	if err != nil {
		return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
	}
	if st.victim != 0 {
		atk, err := epochAttack(f, g, st.victim, st.steal)
		if err != nil {
			return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
		}
		ep.Plan, ep.Damage, err = campaign.CompileAttack(ep.Sys, ep.TrueX, atk)
		if err != nil {
			return nil, fmt.Errorf("e2e: churn epoch %d (%s): %w", in.index, in.tag, err)
		}
	}
	ep.Det, err = detect.New(ep.Sys, 0)
	if err != nil {
		return nil, fmt.Errorf("e2e: churn epoch %d: %w", in.index, err)
	}
	return ep, nil
}

// buildEpochGraph rebuilds the Fig. 1 graph minus failed links. Nodes
// are inserted in base-ID order so NodeIDs match the base graph across
// every epoch; LinkIDs stay dense and therefore shift when links fail.
func buildEpochGraph(f *topo.Fig1Topology, failed map[string]bool) (*graph.Graph, error) {
	g := graph.New()
	for _, v := range f.G.Nodes() {
		name, err := f.G.NodeName(v)
		if err != nil {
			return nil, err
		}
		if got := g.AddNode(name); got != v {
			return nil, fmt.Errorf("node %s renumbered %d→%d", name, v, got)
		}
	}
	for _, l := range f.G.Links() {
		an, _ := f.G.NodeName(l.A)
		bn, _ := f.G.NodeName(l.B)
		if failed[edgeKey(an, bn)] {
			continue
		}
		if _, err := g.AddLink(l.A, l.B); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// epochMonitors resolves the present monitor set to NodeIDs in stable
// (base node) order, so path selection is deterministic.
func epochMonitors(g *graph.Graph, present map[string]bool) ([]graph.NodeID, error) {
	var out []graph.NodeID
	for _, v := range g.Nodes() {
		name, err := g.NodeName(v)
		if err != nil {
			return nil, err
		}
		if present[name] {
			out = append(out, v)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("only %d monitors present — measurement needs at least 2", len(out))
	}
	return out, nil
}

// mapTrueX carries each physical link's base delay draw into the epoch
// graph's link numbering, keyed by endpoint names.
func mapTrueX(f *topo.Fig1Topology, baseX la.Vector, g *graph.Graph) (la.Vector, error) {
	out := make(la.Vector, g.NumLinks())
	for _, l := range g.Links() {
		base, ok := f.G.LinkBetween(l.A, l.B)
		if !ok {
			return nil, fmt.Errorf("epoch link %d has no base counterpart", l.ID)
		}
		out[l.ID] = baseX[base]
	}
	return out, nil
}

// epochAttack maps the scripted attacker intent into the epoch graph:
// attackers {B, C} by name, the victim by the paper's link number.
func epochAttack(f *topo.Fig1Topology, g *graph.Graph, victim int, stealthy bool) (*campaign.EpochAttack, error) {
	baseLink, err := f.G.Link(f.PaperLink[victim])
	if err != nil {
		return nil, err
	}
	vl, ok := g.LinkBetween(baseLink.A, baseLink.B)
	if !ok {
		return nil, fmt.Errorf("victim link %d is failed in this epoch — nothing to scapegoat", victim)
	}
	var attackers []graph.NodeID
	for _, a := range f.Attackers {
		name, _ := f.G.NodeName(a)
		id, ok := g.NodeByName(name)
		if !ok {
			return nil, fmt.Errorf("attacker %s missing from epoch graph", name)
		}
		attackers = append(attackers, id)
	}
	return &campaign.EpochAttack{Attackers: attackers, Victims: []graph.LinkID{vl}, Stealthy: stealthy}, nil
}

func walkOf(g *graph.Graph, p graph.Path) ([]string, error) {
	walk := make([]string, len(p.Nodes))
	for i, v := range p.Nodes {
		name, err := g.NodeName(v)
		if err != nil {
			return nil, err
		}
		walk[i] = name
	}
	return walk, nil
}

// roundsIn counts virtual-clock rounds r·spacing inside [start, end).
func roundsIn(start, end, spacing float64) int {
	n := 0
	for r := 0; ; r++ {
		t := float64(r) * spacing
		if t >= end {
			break
		}
		if t >= start {
			n++
		}
	}
	return n
}

// GenTraffic synthesizes every epoch's measurement rounds through a
// netsim.World — epoch 0 pins the regime, each later epoch is a mid-run
// Swap — and precomputes each round's verdict under the epoch's own
// detector. Round gi (global index) draws jitter from mc.RNG(seed,
// churnRoundsSeedBase+gi): traffic is a pure function of (plan, seed).
func (p *ChurnPlan) GenTraffic() ([][]Round, error) {
	out := make([][]Round, len(p.Epochs))
	var world *netsim.World
	gi := 0
	for ei := range p.Epochs {
		ep := &p.Epochs[ei]
		regime := netsim.Config{
			Graph:         ep.Sys.Graph(),
			Paths:         ep.Sys.Paths(),
			LinkDelays:    ep.TrueX,
			Jitter:        TrafficJitter,
			ProbesPerPath: TrafficProbes,
		}
		var err error
		if world == nil {
			world, err = netsim.NewWorld(regime)
		} else {
			err = world.Swap(regime)
		}
		if err != nil {
			return nil, fmt.Errorf("e2e: churn epoch %d: %w", ei, err)
		}
		rounds := make([]Round, ep.Rounds)
		for r := 0; r < ep.Rounds; r++ {
			y, err := world.Round(mc.RNG(p.Seed, churnRoundsSeedBase+gi), ep.Plan)
			if err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d round %d: %w", ei, r, err)
			}
			rep, err := ep.Det.Inspect(y)
			if err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d round %d inspect: %w", ei, r, err)
			}
			rounds[r] = Round{Y: y, Detected: rep.Detected, ResidualNorm: rep.ResidualNorm}
			gi++
		}
		out[ei] = rounds
	}
	return out, nil
}
