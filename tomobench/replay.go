package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/detect"
	"repro/internal/forensics"
	"repro/internal/la"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/tomo"
)

// replayBudget caps the time each replayed layer gets.
const replayBudget = 200 * time.Millisecond

// recorded is one request body a client sent in the traced phase, with
// the pool rounds it carried, kept for the codec replay.
type recorded struct {
	kind   string // "estimate", "inspect" or "stream"
	body   []byte
	rounds []int
}

// keepBody records up to 256 bodies per client.
func (r *recorder) keepBody(kind string, body []byte, rounds []int) {
	if r.tr == nil || len(r.kept) >= 256 {
		return
	}
	r.kept = append(r.kept, recorded{kind: kind, body: append([]byte(nil), body...), rounds: rounds})
}

// replayInput is what a workload hands to the layer replays: the
// benchmark's own copy of one topology it served, with the rounds and
// bodies the timed phase sent.
type replayInput struct {
	name    string
	sys     *tomo.System
	wire    serve.TopologyRequest
	alpha   float64
	pool    []pooled
	bodies  []recorded
	metrics *serve.Metrics
}

// batches groups the recorded bodies' rounds, one batch per request
// (one per NDJSON line for streams).
func (in *replayInput) batches() [][]la.Vector {
	var out [][]la.Vector
	for _, b := range in.bodies {
		var ys []la.Vector
		for _, i := range b.rounds {
			ys = append(ys, in.pool[i].y)
		}
		if len(ys) > 0 {
			out = append(out, ys)
		}
	}
	return out
}

// replayLayers times the public functions of every layer the request
// path crosses, each on in's inputs, and records the per-layer metrics.
func replayLayers(ctx context.Context, lr *layerRec, in *replayInput) error {
	pool, sys := in.pool, in.sys
	// Build the solver (and dense operator) outside any timing.
	if _, err := sys.EstimateCtx(ctx, pool[0].y); err != nil {
		return err
	}
	perRound := func(ns []int64, rounds int) float64 { return meanNs(ns) * float64(len(ns)) / float64(max(rounds, 1)) }

	// serve: the wire codec on the recorded bodies, request decode plus
	// response encode into the serve wire types.
	ns, err := lr.replay("serve.codec (replay)", len(in.bodies), replayBudget, func(i int) error {
		return codecReplay(in.bodies[i], pool)
	})
	if err != nil {
		return err
	}
	lr.vals["serve.codec_us_per_op"] = meanNs(ns) / 1e3

	// serve: registration of an already-factored topology (cache hit).
	reg := serve.NewRegistry(nil)
	if _, err := reg.RegisterCtx(ctx, "cold", in.wire.Edges, in.wire.Paths, in.alpha); err != nil {
		return err
	}
	ns, err = lr.replay("serve.register (replay)", 64, replayBudget, func(i int) error {
		e, err := reg.RegisterCtx(ctx, fmt.Sprintf("warm-%d", i), in.wire.Edges, in.wire.Paths, in.alpha)
		if err == nil && !e.CacheHit {
			err = fmt.Errorf("registration missed the solver cache")
		}
		return err
	})
	if err != nil {
		return err
	}
	lr.vals["serve.register_ms"] = percentile(ns, 0.5)

	// tomo: one estimate per round.
	ns, err = lr.replay("tomo.estimate (replay)", len(pool), replayBudget, func(i int) error {
		_, err := sys.EstimateCtx(ctx, pool[i].y)
		return err
	})
	if err != nil {
		return err
	}
	lr.vals["tomo.estimate_us_per_round"] = meanNs(ns) / 1e3

	// tomo: one batched estimate per recorded request, counting CGLS
	// iterations through the solve observer.
	batches := in.batches()
	var iters int
	sys.SetSolveObserver(func(st tomo.SolveStats) { iters += st.Iterations })
	rounds := 0
	ns, err = lr.replay("tomo.estimate_batch (replay)", len(batches), replayBudget, func(i int) error {
		rounds += len(batches[i])
		_, err := sys.EstimateBatchCtx(ctx, batches[i])
		return err
	})
	sys.SetSolveObserver(nil)
	if err != nil {
		return err
	}
	lr.vals["tomo.batch_ms_per_round"] = perRound(ns, rounds) / 1e6
	lr.vals["tomo.cgls_iters_per_round"] = float64(iters) / float64(max(rounds, 1))

	// sparse: the raw CGLS kernel on the same routing matrix.
	ns, err = lr.replay("sparse.cgls (replay)", len(pool), replayBudget, func(i int) error {
		_, err := sparse.CGLS(sys.CSR(), pool[i].y, sparse.Options{})
		return err
	})
	if err != nil {
		return err
	}
	lr.vals["sparse.cgls_ms_per_round"] = meanNs(ns) / 1e6

	// tomo: a rank-1 path round trip, duplicating a path and removing it.
	var allocs []float64
	var ms runtime.MemStats
	ns, err = lr.replay("tomo.rank1 add+remove (replay)", 16, replayBudget, func(i int) error {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		added, _, err := sys.AddPathCtx(ctx, sys.Paths()[(i*7919)%sys.NumPaths()])
		if err != nil {
			return err
		}
		back, _, err := added.RemovePathCtx(ctx, sys.NumPaths())
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.TotalAlloc-before)/(1<<20))
		if back.Digest() != sys.Digest() {
			return fmt.Errorf("path round trip changed the digest")
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.vals["tomo.rank1_ms"] = percentile(ns, 0.5)
	var sum float64
	for _, a := range allocs {
		sum += a
	}
	lr.vals["tomo.rank1_alloc_mb"] = sum / float64(max(len(allocs), 1))

	// detect: the Eq. 23 check, verdicts checked against the pool.
	det, err := detect.New(sys, in.alpha)
	if err != nil {
		return err
	}
	ns, err = lr.replay("detect.inspect (replay)", len(pool), replayBudget, func(i int) error {
		rep, err := det.InspectCtx(ctx, pool[i].y)
		if err == nil && rep.Detected != pool[i].detected {
			err = fmt.Errorf("replayed verdict disagrees with the pool")
		}
		return err
	})
	if err != nil {
		return err
	}
	lr.vals["detect.inspect_us_per_round"] = meanNs(ns) / 1e3

	residuals := make([]la.Vector, len(pool))
	ns, err = lr.replay("detect.residual (replay)", len(pool), replayBudget, func(i int) error {
		res, err := sys.Residual(pool[i].xhat, pool[i].y)
		if err == nil && res.Norm1() < 0 {
			err = fmt.Errorf("negative norm")
		}
		residuals[i] = res
		return err
	})
	if err != nil {
		return err
	}
	lr.vals["detect.residual_us_per_round"] = meanNs(ns) / 1e3
	for i := range residuals {
		if residuals[i] == nil {
			if residuals[i], err = sys.Residual(pool[i].xhat, pool[i].y); err != nil {
				return err
			}
		}
	}

	// forensics: bind once per request, ingest every round of it.
	table := forensics.NewTable(forensics.Config{})
	digest := sys.Digest()
	rounds = 0
	ns, err = lr.replay("forensics.bind+ingest (replay)", len(in.bodies), replayBudget, func(i int) error {
		o := table.Bind(in.name, digest, sys.CSR(), in.alpha)
		for k, p := range in.bodies[i].rounds {
			o.Ingest(forensics.Round{Req: "replay", Seq: k, Detected: pool[p].detected, Norm: pool[p].residual, Residual: residuals[p]})
		}
		rounds += len(in.bodies[i].rounds)
		return nil
	})
	if err != nil {
		return err
	}
	lr.vals["forensics.ingest_us_per_round"] = perRound(ns, rounds) / 1e3
	ns, err = lr.replay("forensics.snapshot (replay)", 64, replayBudget, func(int) error {
		if _, ok := table.Snapshot(in.name); !ok {
			return fmt.Errorf("no observatory for %s", in.name)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.vals["forensics.snapshot_ms"] = percentile(ns, 0.5)

	// obs: the live server's Prometheus exposition.
	ns, err = lr.replay("obs.render (replay)", 64, replayBudget, func(int) error {
		in.metrics.WritePrometheus(io.Discard)
		return nil
	})
	if err != nil {
		return err
	}
	lr.vals["obs.render_ms"] = percentile(ns, 0.5)
	return nil
}

// codecReplay decodes one recorded request body into its serve wire
// type and encodes the matching response with encoding/json.
func codecReplay(b recorded, pool []pooled) error {
	switch b.kind {
	case "stream":
		var sr serve.StreamRound
		if err := json.Unmarshal(b.body, &sr); err != nil {
			return err
		}
		for k, p := range b.rounds {
			if _, err := json.Marshal(serve.StreamVerdict{Round: k, Detected: pool[p].detected, ResidualNorm: pool[p].residual}); err != nil {
				return err
			}
		}
		return nil
	case "estimate":
		var rr serve.RoundsRequest
		if err := json.Unmarshal(b.body, &rr); err != nil {
			return err
		}
		resp := serve.EstimateResponse{Topology: rr.Topology}
		for _, p := range b.rounds {
			resp.Results = append(resp.Results, serve.EstimateResult{XHat: pool[p].xhat})
		}
		_, err := json.Marshal(resp)
		return err
	default:
		var rr serve.RoundsRequest
		if err := json.Unmarshal(b.body, &rr); err != nil {
			return err
		}
		resp := serve.InspectResponse{Topology: rr.Topology, Alpha: 1}
		for _, p := range b.rounds {
			resp.Reports = append(resp.Reports, serve.InspectVerdict{Detected: pool[p].detected, ResidualNorm: pool[p].residual})
		}
		_, err := json.Marshal(resp)
		return err
	}
}
