// Command tomoload is the deterministic, fault-injecting load generator
// for tomographyd. It synthesizes measurement traffic under the paper's
// scapegoating campaigns (clean, chosen-victim, stealthy, maxdamage,
// obfuscate), optionally wraps the connection in a chaos transport
// (latency, drops, truncation, resets), and replays a plan that is a
// pure function of the seed: two runs with the same flags print the same
// transcript digest.
//
// Usage:
//
//	tomoload [-addr URL] [-n 10000] [-duration 0] [-workers 8] [-rps 0]
//	         [-seed 1] [-chaos latency=2ms,drop=0.01,...] [-scenarios all]
//	         [-fault 0.05] [-verify] [-report]
//	tomoload -stream [-sessions 8] [-rounds 1000] [-batch 64] [-churn 1] ...
//	tomoload -churn-script five-epoch [-seed 1] [-workers 8] ...
//
// With -stream, tomoload opens long-lived round sessions and drives
// batched NDJSON measurement streams through them (with optional
// mid-stream path churn) instead of issuing one-shot requests; the
// transcript digest covers every verdict stream and is equally a pure
// function of the seed.
//
// With -churn-script, tomoload replays a time-scripted dynamic-network
// campaign: the scenario DSL schedules link failures, path flaps,
// monitor churn, and attacker windows on a virtual clock, and each
// routing epoch takes the cheapest correct route against the daemon
// (evict + re-register on structural churn, session path mutations
// on flap-only churn, no-op on attack boundaries). The value
// is the builtin script name "five-epoch" or a path to a JSON script
// file. Every server verdict is checked against a local precomputation
// and the transcript digest is invariant under -workers.
//
// With no -addr, tomoload boots an in-process tomographyd (the e2e
// harness) and tears it down after the run — a self-contained soak.
// Against a remote daemon, scenario topologies are registered first
// (an existing identical registration is tolerated). -verify scrapes
// /metrics before and after the run and checks that the server's counter
// deltas reconcile exactly with the client-side transcript; any mismatch
// exits non-zero.
//
// Against a tomorouter fleet, front-door scrapes land on one shard per
// request, so single-scrape verification cannot reconcile. Pass
// -scrape-nodes with every shard's URL instead: tomoload scrapes each
// node directly, sums the deltas fleet-wide (requests land on exactly
// one node each, so the sums are exact), and reconciles those.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/e2e"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "daemon base URL (empty: boot an in-process harness)")
	n := flag.Int("n", 10000, "total requests to issue")
	duration := flag.Duration("duration", 0, "optional wall-clock cap (0 = run all -n requests)")
	workers := flag.Int("workers", 8, "client concurrency")
	rps := flag.Float64("rps", 0, "request rate limit (0 = unthrottled)")
	seed := flag.Int64("seed", 1, "base seed; fixes the full request and fault plan")
	chaosSpec := flag.String("chaos", "off", "fault spec: latency=2ms,jitter=1ms,drop=0.01,truncate=0.02,reset=0.005")
	scenarioSpec := flag.String("scenarios", "all", "comma-separated campaign kinds: clean,chosen-victim,stealthy,maxdamage,obfuscate")
	fault := flag.Float64("fault", 0.05, "fraction of deliberate client-fault ops (bad JSON, ghost topology, short y)")
	verify := flag.Bool("verify", false, "reconcile server /metrics deltas against the transcript; exit 1 on mismatch")
	report := flag.Bool("report", false, "print p50/p95/p99 client-side latency per op from the transcript")
	stream := flag.Bool("stream", false, "drive NDJSON round-stream sessions instead of one-shot requests")
	sessions := flag.Int("sessions", 8, "round sessions to open (with -stream)")
	roundsPer := flag.Int("rounds", 1000, "measurement rounds per session (with -stream)")
	batch := flag.Int("batch", 64, "max rounds per NDJSON request line (with -stream)")
	churn := flag.Int("churn", 1, "mid-stream path mutations per session (with -stream)")
	churnScript := flag.String("churn-script", "", `dynamic-network campaign: builtin script name ("five-epoch") or JSON script file`)
	scrapeNodes := flag.String("scrape-nodes", "", "comma-separated fleet node URLs to scrape directly for -verify (use when -addr targets a tomorouter, whose /metrics fans out)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, options{
		addr: *addr, n: *n, duration: *duration, workers: *workers,
		rps: *rps, seed: *seed, chaos: *chaosSpec, scenarios: *scenarioSpec,
		fault: *fault, verify: *verify, report: *report,
		stream: *stream, sessions: *sessions, rounds: *roundsPer,
		batch: *batch, churn: *churn, churnScript: *churnScript,
		scrapeNodes: splitNodes(*scrapeNodes),
	}, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tomoload: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	addr      string
	n         int
	duration  time.Duration
	workers   int
	rps       float64
	seed      int64
	chaos     string
	scenarios string
	fault     float64
	verify    bool
	report    bool
	stream    bool
	sessions  int
	rounds    int
	batch     int
	churn     int
	// churnScript, when non-empty, switches to dynamic-campaign replay:
	// the builtin script name ("five-epoch") or a JSON script file path.
	churnScript string
	// scrapeNodes, when non-empty, verifies against per-node /metrics
	// scrapes summed fleet-wide instead of a single front-door scrape.
	scrapeNodes []string
}

// splitNodes parses the -scrape-nodes list, dropping empty entries.
// Bare host:port entries get an http:// scheme, matching tomorouter's
// -groups syntax so the two flags accept the same node lists.
func splitNodes(spec string) []string {
	var out []string
	for _, u := range strings.Split(spec, ",") {
		if u = strings.TrimSpace(u); u != "" {
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// run executes one load campaign. Factored out of main so tests can
// drive the full flag-to-summary path.
func run(ctx context.Context, opt options, out io.Writer) error {
	if opt.churnScript != "" {
		return runChurn(ctx, opt, out)
	}
	chaos, err := e2e.ParseChaosSpec(opt.chaos)
	if err != nil {
		return err
	}
	kinds, err := e2e.ParseKinds(opt.scenarios)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tomoload: building %d scenario(s) (seed %d)\n", len(kinds), opt.seed)
	scenarios, err := e2e.BuildScenarios(kinds, opt.seed)
	if err != nil {
		return err
	}

	base := opt.addr
	if base == "" {
		// Self-contained mode: a real tomographyd core over loopback,
		// with the request deadline disabled so the transcript digest is
		// deterministic (the pool queues instead of shedding). Streaming
		// additionally widens the pool past the client concurrency so no
		// session stream is ever 429-shed by our own load.
		cfg := serve.Config{RequestTimeout: -1}
		if opt.stream {
			cfg.Workers = max(16, 2*opt.workers)
		}
		h := e2e.NewHarness(cfg)
		defer h.Close()
		base = h.URL()
		fmt.Fprintf(out, "tomoload: in-process daemon at %s\n", base)
	}

	// Registration and metrics scrapes use a plain client: setup and
	// verification must not be disturbed by chaos.
	plain := e2e.NewClient(base, nil)
	for _, sc := range scenarios {
		tr, err := plain.Register(ctx, sc.Name, sc.Sys, 0)
		if err != nil {
			return err
		}
		switch {
		case tr == nil:
			fmt.Fprintf(out, "tomoload: %s already registered\n", sc.Name)
		default:
			fmt.Fprintf(out, "tomoload: registered %s (digest %.12s…, cached=%v)\n",
				sc.Name, tr.Digest, tr.SolverCached)
		}
	}

	// -verify reconciles the counter deltas of the scraped nodes: the
	// daemon itself, or every fleet node named by -scrape-nodes.
	nodes := opt.scrapeNodes
	if len(nodes) == 0 {
		nodes = []string{base}
	}
	var pre []map[string]float64
	if opt.verify {
		if pre, err = e2e.Scrape(ctx, nodes...); err != nil {
			return fmt.Errorf("pre-run metrics scrape: %w", err)
		}
	}
	verify := func(wants []e2e.Want, what string) error {
		post, err := e2e.Scrape(ctx, nodes...)
		if err != nil {
			return fmt.Errorf("post-run metrics scrape: %w", err)
		}
		if msgs := e2e.Reconcile(wants, pre, post); len(msgs) != 0 {
			for _, m := range msgs {
				fmt.Fprintf(out, "verify: MISMATCH %s\n", m)
			}
			return fmt.Errorf("verification failed: %d counter mismatch(es)", len(msgs))
		}
		fmt.Fprintf(out, "verify: server metrics reconcile with the %s\n", what)
		return nil
	}

	if opt.stream {
		return runStream(ctx, opt, chaos, scenarios, base, verify, out)
	}

	fmt.Fprintf(out, "tomoload: issuing %d requests (workers %d, rps %g, chaos %s, fault %.2f)\n",
		opt.n, opt.workers, opt.rps, chaos, opt.fault)
	tr, err := e2e.RunLoad(ctx, e2e.LoadConfig{
		BaseURL:   base,
		Scenarios: scenarios,
		Requests:  opt.n,
		Duration:  opt.duration,
		Workers:   opt.workers,
		RPS:       opt.rps,
		Seed:      opt.seed,
		Chaos:     chaos,
		FaultFrac: opt.fault,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, tr.Summary())
	if opt.report {
		// Per-op latency quantiles from the same histogram code that
		// backs the server's /metrics histograms (obs.Histogram).
		fmt.Fprint(out, tr.Report())
		byTopo := make(map[string][]float64)
		for i := range tr.Records {
			r := &tr.Records[i]
			if r.Scenario != "" && len(r.Residuals) > 0 {
				byTopo[r.Scenario] = append(byTopo[r.Scenario], r.Residuals...)
			}
		}
		if err := forensicsReport(ctx, plain, byTopo, chaos.String() == "off", out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "transcript digest: %s\n", tr.Digest())
	if opt.verify {
		e := tr.Expected()
		if e.Mismatches != 0 {
			return fmt.Errorf("verification failed: %d verdict(s) disagreed with the client-side precomputation", e.Mismatches)
		}
		return verify(e.Wants(), "transcript")
	}
	return nil
}

// runChurn replays a time-scripted dynamic-network campaign against a
// live daemon. The script compiles into per-epoch systems and attack
// plans before any traffic flows; the run then walks the epochs,
// evicting and re-registering on structural churn, mutating the open
// session's paths on flap-only churn, and holding on attack-window
// boundaries. Every verdict is checked against the local
// precomputation, and the printed digest is invariant under -workers.
func runChurn(ctx context.Context, opt options, out io.Writer) error {
	var script *e2e.ChurnScript
	if opt.churnScript == "five-epoch" {
		script = e2e.FiveEpochScript()
	} else {
		fh, err := os.Open(opt.churnScript)
		if err != nil {
			return fmt.Errorf("open churn script (not a builtin name): %w", err)
		}
		script, err = e2e.ParseChurnScript(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("parse %s: %w", opt.churnScript, err)
		}
	}
	fmt.Fprintf(out, "tomoload: compiling churn script %q (seed %d, %d event(s))\n",
		script.Name, opt.seed, len(script.Events))
	plan, err := e2e.CompileChurn(script, opt.seed)
	if err != nil {
		return err
	}

	base := opt.addr
	if base == "" {
		h := e2e.NewHarness(serve.Config{RequestTimeout: -1})
		defer h.Close()
		base = h.URL()
		fmt.Fprintf(out, "tomoload: in-process daemon at %s\n", base)
	}
	tr, err := e2e.RunChurn(ctx, e2e.NewClient(base, nil), plan, opt.workers)
	if err != nil {
		return err
	}
	fmt.Fprint(out, tr.Summary())
	var mismatches int
	for _, ep := range tr.Epochs {
		mismatches += ep.VerdictMismatch
	}
	if mismatches != 0 {
		return fmt.Errorf("%d verdict(s) disagreed with the client-side precomputation", mismatches)
	}
	fmt.Fprintln(out, "verify: every verdict matches the client-side precomputation")
	return nil
}

// runStream drives the -stream campaign: batched NDJSON round streams
// through long-lived sessions, with the same seed-determinism contract
// as the one-shot path. Client-side verdict verification (every verdict
// checked against a local precomputation) always runs; -verify adds the
// server-side counter reconcile of the run's /metrics deltas.
func runStream(ctx context.Context, opt options, chaos e2e.ChaosConfig, scenarios []*e2e.Scenario,
	base string, verify func([]e2e.Want, string) error, out io.Writer) error {
	fmt.Fprintf(out, "tomoload: streaming %d session(s) x %d rounds (batch %d, churn %d, workers %d, chaos %s)\n",
		opt.sessions, opt.rounds, opt.batch, opt.churn, opt.workers, chaos)
	tr, err := e2e.RunStream(ctx, e2e.StreamConfig{
		BaseURL:          base,
		Scenarios:        scenarios,
		Sessions:         opt.sessions,
		RoundsPerSession: opt.rounds,
		BatchMax:         opt.batch,
		Workers:          opt.workers,
		Seed:             opt.seed,
		Chaos:            chaos,
		PathChurn:        opt.churn,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, tr.Summary())
	if opt.report {
		byTopo := make(map[string][]float64)
		for i := range tr.Sessions {
			r := &tr.Sessions[i]
			byTopo[r.Scenario] = append(byTopo[r.Scenario], r.Residuals...)
		}
		plain := e2e.NewClient(base, nil)
		if err := forensicsReport(ctx, plain, byTopo, chaos.String() == "off", out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "transcript digest: %s\n", tr.Digest())
	e := tr.Expected()
	if e.Mismatches != 0 {
		return fmt.Errorf("%d verdict(s) disagreed with the client-side precomputation", e.Mismatches)
	}
	if opt.verify {
		return verify(e.Wants(), "stream transcript")
	}
	return nil
}

// forensicsReport is the -report forensics section: for every topology
// the run touched, it rebuilds the residual quantile sketch from the
// client-side verdict transcript (the same obs.QuantileSketch the
// server feeds) and reconciles it against GET /v1/topologies/{name}/
// forensics. Quantiles are pure functions of the observed multiset, so
// with chaos off and an in-process daemon the two must match exactly;
// a topology whose observatory was epoch-reset mid-run (session path
// churn) reports the reset instead, since the server sketch only holds
// rounds from the current attribution regime by design.
func forensicsReport(ctx context.Context, c *e2e.Client, byTopo map[string][]float64, exact bool, out io.Writer) error {
	names := make([]string, 0, len(byTopo))
	for name := range byTopo {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "forensics (server residual quantiles vs client verdicts):")
	fmt.Fprintf(out, "  %-20s %8s %12s %12s %12s  %s\n", "topology", "rounds", "p50", "p95", "p99", "reconcile")
	var mismatches int
	for _, name := range names {
		status, snap, err := c.Forensics(ctx, name)
		if err != nil || status != http.StatusOK {
			fmt.Fprintf(out, "  %-20s snapshot unavailable (status %d, err %v)\n", name, status, err)
			mismatches++
			continue
		}
		sk := obs.NewQuantileSketch()
		for _, v := range byTopo[name] {
			sk.Observe(v)
		}
		verdict := "exact"
		switch {
		case snap.Residual.Count == sk.Count() &&
			snap.Residual.P50 == sk.Quantile(0.50) &&
			snap.Residual.P95 == sk.Quantile(0.95) &&
			snap.Residual.P99 == sk.Quantile(0.99):
		case snap.Epoch > 0:
			verdict = fmt.Sprintf("reset@epoch%d (server holds %d rounds)", snap.Epoch, snap.Residual.Count)
		default:
			verdict = fmt.Sprintf("MISMATCH (server %d rounds, p50 %g)", snap.Residual.Count, snap.Residual.P50)
			mismatches++
		}
		fmt.Fprintf(out, "  %-20s %8d %12.6f %12.6f %12.6f  %s\n",
			name, sk.Count(), sk.Quantile(0.50), sk.Quantile(0.95), sk.Quantile(0.99), verdict)
	}
	if exact && mismatches != 0 {
		return fmt.Errorf("forensics reconcile failed on %d topology(ies)", mismatches)
	}
	return nil
}
