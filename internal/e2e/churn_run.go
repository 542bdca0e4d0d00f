package e2e

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/la"
	"repro/internal/serve"
)

// Epoch transition routes a churn run takes through the live API.
const (
	// RouteRegister is epoch 0's initial POST /v1/topologies + session.
	RouteRegister = "register"
	// RouteReregister is a structural boundary: DELETE + re-register +
	// a fresh session (the old one is closed and drains cleanly).
	RouteReregister = "reregister"
	// RouteMutate is a paths-only boundary: the open session absorbs
	// the delta through POST .../paths mutations.
	RouteMutate = "mutate"
	// RouteHold is an attack-window-only boundary: routing untouched,
	// no API call at all.
	RouteHold = "hold"
)

// EpochRecord is one epoch of a churn-campaign transcript.
type EpochRecord struct {
	Index int
	Tag   string
	Route string
	// Mutations lists the solver-derivation methods the session
	// reported for each paths mutation (mutate route only) — "refactor"
	// on every served topology.
	Mutations []string
	// RegStatus / EvictStatus are the HTTP statuses of the epoch's
	// registration and eviction (0 when the route performs none).
	RegStatus, EvictStatus int
	// Rounds is the number of measurement rounds served.
	Rounds int
	// ExpAlarms / Alarms are precomputed vs server-reported alarm
	// counts; Residuals are the server-reported ‖R·x̂ − y‖₁ per round.
	ExpAlarms, Alarms int
	Residuals         []float64
	// Damage is the epoch attack's compiled ‖m‖₁ (0 on clean epochs).
	Damage float64
	// VerdictMismatch counts rounds whose server verdict disagreed
	// with the precomputed one.
	VerdictMismatch int
}

// ChurnTranscript is the full record of one churn campaign run.
type ChurnTranscript struct {
	Script  string
	Seed    int64
	Draw    int
	Workers int
	Epochs  []EpochRecord
	Elapsed time.Duration
}

// Digest hashes everything the campaign pins down — epoch tags, routes,
// HTTP statuses, mutation methods, alarm counts, quantized residuals —
// and nothing scheduling-dependent. Workers and Elapsed stay out, so
// the digest is invariant under worker count: the determinism contract
// for dynamic campaigns.
func (t *ChurnTranscript) Digest() string {
	header := fmt.Sprintf("churn script=%s seed=%d draw=%d epochs=%d",
		t.Script, t.Seed, t.Draw, len(t.Epochs))
	return digestLines(header, len(t.Epochs), func(w io.Writer, i int) {
		ep := &t.Epochs[i]
		fmt.Fprintf(w, "%d|%s|%s|reg=%d|evict=%d|muts=%s|rounds=%d|exp=%d|alarms=%d|mm=%d|damage=%.3f|res=",
			ep.Index, ep.Tag, ep.Route, ep.RegStatus, ep.EvictStatus,
			strings.Join(ep.Mutations, ","), ep.Rounds, ep.ExpAlarms, ep.Alarms,
			ep.VerdictMismatch, ep.Damage)
		for _, r := range ep.Residuals {
			fmt.Fprintf(w, "%.3f,", r)
		}
	})
}

// Summary renders the per-epoch campaign table.
func (t *ChurnTranscript) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn campaign %q: seed=%d draw=%d workers=%d elapsed=%s\n",
		t.Script, t.Seed, t.Draw, t.Workers, t.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-3s %-42s %-10s %6s %6s %8s %10s %4s\n",
		"ep", "tag", "route", "rounds", "alarms", "expected", "damage", "mm")
	for _, ep := range t.Epochs {
		fmt.Fprintf(&b, "%-3d %-42s %-10s %6d %6d %8d %10.1f %4d\n",
			ep.Index, ep.Tag, ep.Route, ep.Rounds, ep.Alarms, ep.ExpAlarms,
			ep.Damage, ep.VerdictMismatch)
	}
	fmt.Fprintf(&b, "digest %s\n", t.Digest())
	return b.String()
}

// RunChurn executes a compiled churn plan against a live daemon. Each
// epoch transition takes the cheapest correct route: structural churn
// (links or monitors changed) evicts and re-registers the topology and
// reopens the session; paths-only churn mutates the open session in
// place; an attack-window boundary touches nothing. One-shot epochs
// (register/reregister, where the registry matrix matches the epoch)
// fan their rounds out over workers through POST /v1/inspect; mutated
// epochs stream through the session, the only surface serving the
// flapped matrix. Records land by round index, so the transcript — and
// its digest — is identical for any worker count.
func RunChurn(ctx context.Context, client *Client, plan *ChurnPlan, workers int) (*ChurnTranscript, error) {
	if workers < 1 {
		workers = 1
	}
	traffic, err := plan.GenTraffic()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	t := &ChurnTranscript{Script: plan.Script.Name, Seed: plan.Seed, Draw: plan.Draw, Workers: workers}
	var session *SessionHandle
	defer func() {
		if session != nil {
			client.CloseSession(context.WithoutCancel(ctx), session.ID)
		}
	}()
	for ei := range plan.Epochs {
		ep := &plan.Epochs[ei]
		rec := EpochRecord{Index: ep.Index, Tag: ep.Tag, Damage: ep.Damage, Rounds: ep.Rounds}
		switch {
		case ei == 0:
			rec.Route = RouteRegister
			if err := registerEpoch(ctx, client, plan, ep, &rec, &session); err != nil {
				return nil, err
			}
		case ep.Delta == nil:
			rec.Route = RouteReregister
			if session != nil {
				status, _, err := client.CloseSession(ctx, session.ID)
				if err != nil || status != 200 {
					return nil, fmt.Errorf("e2e: churn epoch %d: close session: status %d err %v", ei, status, err)
				}
				session = nil
			}
			status, err := client.Evict(ctx, plan.Topology)
			if err != nil || status != 200 {
				return nil, fmt.Errorf("e2e: churn epoch %d: evict: status %d err %v", ei, status, err)
			}
			rec.EvictStatus = status
			if err := registerEpoch(ctx, client, plan, ep, &rec, &session); err != nil {
				return nil, err
			}
		case len(ep.Delta) > 0:
			rec.Route = RouteMutate
			for oi, op := range ep.Delta {
				// Add before remove, exactly as compiled: the alternate
				// appends at the end, so the remove index stays valid.
				status, pr, err := client.MutateSessionPaths(ctx, session.ID,
					serve.SessionPathsRequest{Add: op.AddWalk})
				if err != nil || status != 200 {
					return nil, fmt.Errorf("e2e: churn epoch %d op %d add: status %d err %v", ei, oi, status, err)
				}
				rec.Mutations = append(rec.Mutations, pr.Method)
				status, pr, err = client.MutateSessionPaths(ctx, session.ID,
					serve.SessionPathsRequest{Remove: intPtr(op.Remove)})
				if err != nil || status != 200 {
					return nil, fmt.Errorf("e2e: churn epoch %d op %d remove: status %d err %v", ei, oi, status, err)
				}
				rec.Mutations = append(rec.Mutations, pr.Method)
			}
		default:
			rec.Route = RouteHold
		}

		rounds := traffic[ei]
		for _, r := range rounds {
			if r.Detected {
				rec.ExpAlarms++
			}
		}
		switch rec.Route {
		case RouteRegister, RouteReregister:
			if err := runOneShotRounds(ctx, client, plan.Topology, rounds, workers, &rec); err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d: %w", ei, err)
			}
		default:
			if err := runSessionRounds(ctx, client, session, rounds, &rec); err != nil {
				return nil, fmt.Errorf("e2e: churn epoch %d: %w", ei, err)
			}
		}
		t.Epochs = append(t.Epochs, rec)
	}
	if session != nil {
		status, _, err := client.CloseSession(ctx, session.ID)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("e2e: churn final close: status %d err %v", status, err)
		}
		session = nil
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

func registerEpoch(ctx context.Context, client *Client, plan *ChurnPlan, ep *CompiledEpoch,
	rec *EpochRecord, session **SessionHandle) error {
	if _, err := client.Register(ctx, plan.Topology, ep.Sys, 0); err != nil {
		return fmt.Errorf("e2e: churn epoch %d: %w", ep.Index, err)
	}
	rec.RegStatus = 201
	s, err := client.OpenSession(ctx, plan.Topology, 0)
	if err != nil {
		return fmt.Errorf("e2e: churn epoch %d: %w", ep.Index, err)
	}
	*session = s
	return nil
}

// runOneShotRounds fans single-round POST /v1/inspect requests over
// workers, recording each verdict by round index.
func runOneShotRounds(ctx context.Context, client *Client, topology string,
	rounds []Round, workers int, rec *EpochRecord) error {
	rec.Residuals = make([]float64, len(rounds))
	verdicts := make([]bool, len(rounds))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	if workers > len(rounds) {
		workers = len(rounds)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rounds) {
					return
				}
				status, ir, err := client.Inspect(ctx, topology, []la.Vector{rounds[i].Y}, 0)
				if err != nil || status != 200 || len(ir.Reports) != 1 {
					errs[w] = fmt.Errorf("inspect round %d: status %d err %v", i, status, err)
					return
				}
				rec.Residuals[i] = ir.Reports[0].ResidualNorm
				verdicts[i] = ir.Reports[0].Detected
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	tally(rounds, verdicts, rec)
	return nil
}

// runSessionRounds streams the epoch's rounds through the open session
// as one NDJSON request (slim verdicts — the estimate is not needed).
func runSessionRounds(ctx context.Context, client *Client, session *SessionHandle,
	rounds []Round, rec *EpochRecord) error {
	if session == nil {
		return fmt.Errorf("no open session for a %s epoch", rec.Route)
	}
	noX := false
	lines := make([]serve.StreamRound, len(rounds))
	for i, r := range rounds {
		lines[i] = serve.StreamRound{Y: r.Y, XHat: &noX}
	}
	res, err := client.StreamRounds(ctx, session.ID, lines)
	if err != nil {
		return err
	}
	if res.ErrClass != "" || res.ErrLine != nil {
		return fmt.Errorf("stream ended abnormally: class=%q err=%v", res.ErrClass, res.ErrLine)
	}
	if len(res.Verdicts) != len(rounds) {
		return fmt.Errorf("stream returned %d verdicts for %d rounds", len(res.Verdicts), len(rounds))
	}
	rec.Residuals = make([]float64, len(rounds))
	verdicts := make([]bool, len(rounds))
	for _, v := range res.Verdicts {
		if v.Round < 0 || v.Round >= len(rounds) {
			return fmt.Errorf("stream verdict for round %d out of range", v.Round)
		}
		rec.Residuals[v.Round] = v.ResidualNorm
		verdicts[v.Round] = v.Detected
	}
	tally(rounds, verdicts, rec)
	return nil
}

// tally folds server verdicts into the epoch record, counting alarms
// and disagreements with the precomputed expectation. Residual
// comparison is quantized like the digest (1e-3): the server solves
// through its own sparse factor, which agrees with the client's dense
// precomputation only to rounding.
func tally(rounds []Round, verdicts []bool, rec *EpochRecord) {
	for i, v := range verdicts {
		if v {
			rec.Alarms++
		}
		if v != rounds[i].Detected || math.Abs(rec.Residuals[i]-rounds[i].ResidualNorm) > 1e-3 {
			rec.VerdictMismatch++
		}
	}
}
