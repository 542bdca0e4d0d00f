package serve

import (
	"io"
	"time"

	"repro/internal/forensics"
	"repro/internal/obs"
)

// Metrics is the daemon's observability state, built on the
// internal/obs instrument registry: request counters per route, the
// estimate-latency histogram, per-stage (trace-span) latency
// histograms, solver-cache traffic, detector alarms, and Go runtime
// gauges. A single Metrics is shared by every handler goroutine; all
// instruments are safe for concurrent use.
//
// Route accounting: every mounted API route — including GET /healthz
// and GET /metrics — increments tomographyd_requests_total{route=...}
// in the instrumentation middleware, so a load generator can reconcile
// its request counts against a scrape exactly. The only requests not
// counted are those the mux rejects before reaching a handler
// (unknown paths, 405 method mismatches) and the /debug/* endpoints,
// which are deliberately uninstrumented so that scraping traces or
// profiles never perturbs the request counters or the trace ring.
type Metrics struct {
	reg *obs.Registry

	ReqTopologies    *obs.Counter // POST /v1/topologies requests
	ReqEvict         *obs.Counter // DELETE /v1/topologies/{name} requests
	ReqEstimate      *obs.Counter // POST /v1/estimate requests
	ReqInspect       *obs.Counter // POST /v1/inspect requests
	ReqHealthz       *obs.Counter // GET /healthz requests
	ReqMetrics       *obs.Counter // GET /metrics requests
	ReqSessions      *obs.Counter // POST /v1/sessions requests
	ReqSessionGet    *obs.Counter // GET /v1/sessions/{id} requests
	ReqRounds        *obs.Counter // POST /v1/sessions/{id}/rounds requests
	ReqSessionPaths  *obs.Counter // POST /v1/sessions/{id}/paths requests
	ReqSessionDelete *obs.Counter // DELETE /v1/sessions/{id} requests
	ReqForensics     *obs.Counter // GET /v1/topologies/{name}/forensics requests
	ReqErrors        *obs.Counter // requests answered with a 4xx/5xx
	ReqRejected      *obs.Counter // requests shed by the worker pool
	ReqBusy          *obs.Counter // round streams shed with 429 (pool full)

	Evictions *obs.Counter // topologies actually removed (evict 200s)

	EstimateRounds *obs.Counter // measurement rounds estimated
	InspectRounds  *obs.Counter // measurement rounds inspected
	Alarms         *obs.Counter // rounds the detector flagged

	SessionsOpened *obs.Counter // sessions created
	SessionsClosed *obs.Counter // sessions closed via DELETE
	SessionsReaped *obs.Counter // sessions removed by the idle reaper
	SessionRounds  *obs.Counter // rounds streamed through sessions
	SessionAlarms  *obs.Counter // streamed rounds the detector flagged

	// PathMutations counts session path add/remove operations by the
	// solver-derivation route tomo reports: "refactor" (the parent
	// factor's ordering reused, the route of every served system) or
	// "cold".
	PathMutations *obs.CounterVec

	CacheHits   *obs.Counter // solver-cache hits at registration
	CacheMisses *obs.Counter // solver-cache misses (factorizations run)

	ReplicationPulls *obs.Counter // WAL tail pulls served to followers
	Promotions       *obs.Counter // follower→primary promotions on this shard

	// EstimateLatency is the per-round solve/inspect latency histogram
	// (tomographyd_estimate_latency_seconds, as before the obs
	// migration).
	EstimateLatency *obs.Histogram
	// RoundLatency is the streamed-round latency histogram: per-round
	// amortized solve+verdict time inside session round streams, the
	// number the batched API exists to shrink.
	RoundLatency *obs.Histogram
	// stageLatency aggregates trace-span durations per stage name
	// (tomographyd_stage_latency_seconds{stage="tomo.solve"} etc.),
	// fed by the server tracer's span-end hook.
	stageLatency *obs.HistogramVec
}

// NewMetrics builds the daemon's instrument set on a fresh obs
// registry, pre-creating every route series so a scrape of an idle
// daemon already shows all routes at zero.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{reg: reg}
	req := reg.CounterVec("tomographyd_requests_total", "API requests by route.", "route")
	m.ReqTopologies = req.With("topologies")
	m.ReqEstimate = req.With("estimate")
	m.ReqInspect = req.With("inspect")
	m.ReqEvict = req.With("evict")
	m.ReqHealthz = req.With("healthz")
	m.ReqMetrics = req.With("metrics")
	m.ReqSessions = req.With("sessions")
	m.ReqSessionGet = req.With("session_get")
	m.ReqRounds = req.With("rounds")
	m.ReqSessionPaths = req.With("session_paths")
	m.ReqSessionDelete = req.With("session_delete")
	m.ReqForensics = req.With("forensics")
	m.ReqErrors = reg.Counter("tomographyd_request_errors_total", "Requests answered with an error status.")
	m.ReqBusy = reg.Counter("tomographyd_requests_busy_total", "Round streams shed with 429 because every worker slot was taken.")
	m.Evictions = reg.Counter("tomographyd_evictions_total", "Topologies removed via DELETE.")
	m.ReqRejected = reg.Counter("tomographyd_requests_rejected_total", "Requests shed by the worker pool (timeout or shutdown).")
	m.EstimateRounds = reg.Counter("tomographyd_estimate_rounds_total", "Measurement rounds estimated.")
	m.InspectRounds = reg.Counter("tomographyd_inspect_rounds_total", "Measurement rounds inspected.")
	m.Alarms = reg.Counter("tomographyd_detector_alarms_total", "Rounds flagged by the scapegoat detector.")
	m.SessionsOpened = reg.Counter("tomographyd_sessions_opened_total", "Round sessions created.")
	m.SessionsClosed = reg.Counter("tomographyd_sessions_closed_total", "Round sessions closed via DELETE.")
	m.SessionsReaped = reg.Counter("tomographyd_sessions_reaped_total", "Round sessions removed by the idle reaper.")
	m.SessionRounds = reg.Counter("tomographyd_session_rounds_total", "Measurement rounds streamed through sessions.")
	m.SessionAlarms = reg.Counter("tomographyd_session_alarms_total", "Streamed rounds flagged by the scapegoat detector.")
	m.PathMutations = reg.CounterVec("tomographyd_path_mutations_total", "Session path mutations by solver-derivation method.", "method")
	m.CacheHits = reg.Counter("tomographyd_solver_cache_hits_total", "Registrations served from the solver cache.")
	m.CacheMisses = reg.Counter("tomographyd_solver_cache_misses_total", "Registrations that ran a fresh factorization.")
	m.ReplicationPulls = reg.Counter("tomographyd_replication_pulls_total", "WAL tail pulls served to tailing followers.")
	m.Promotions = reg.Counter("tomographyd_replication_promotions_total", "Follower-to-primary promotions on this shard.")
	m.EstimateLatency = reg.Histogram("tomographyd_estimate_latency_seconds", "Per-round estimate latency.", obs.DefaultLatencyBuckets)
	m.RoundLatency = reg.Histogram("tomographyd_round_latency_seconds", "Amortized per-round latency inside session round streams.", obs.DefaultLatencyBuckets)
	m.stageLatency = reg.HistogramVec("tomographyd_stage_latency_seconds", "Trace-span duration by pipeline stage.", "stage", obs.DefaultLatencyBuckets)
	obs.RegisterRuntime(reg)
	return m
}

// Registry exposes the underlying obs registry (for mounting extra
// instruments next to the daemon's — cmd/tomographyd adds the store_*
// family here when -data-dir is set).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// trackRegistry registers tomographyd_topologies_registered, a
// collect-time gauge over the live registry: unlike the cumulative
// register/evict counters, it reports current cardinality, so an
// operator can see registry size directly on /metrics. Called once by
// serve.New, after the registry exists.
func (m *Metrics) trackRegistry(reg *Registry) {
	m.reg.GaugeFunc("tomographyd_topologies_registered",
		"Topologies currently registered (live registry cardinality).",
		func() float64 { return float64(reg.Len()) })
}

// trackSessions registers tomographyd_sessions_active, a collect-time
// gauge over the live session table — the streaming counterpart of
// trackRegistry. Called once by serve.New, after the table exists.
func (m *Metrics) trackSessions(t *sessionTable) {
	m.reg.GaugeFunc("tomographyd_sessions_active",
		"Round sessions currently open (live session-table cardinality).",
		func() float64 { return float64(t.len()) })
}

// trackForensics registers the live forensic metric families and
// refreshes them at scrape time from the observatory table:
//
//	tomographyd_residual_{p50,p95,p99,ewma}{topology}   residual-norm analytics
//	tomographyd_residual_rounds{topology}               rounds in current epoch
//	tomographyd_suspicion_top_link{topology}            most-suspected link ID
//	tomographyd_suspicion_top_score{topology}           its mean per-round attribution
//	tomographyd_suspicion_alarm_bursts{topology}        alarmed CUSUM bursts retained
//	tomographyd_suspicion_epoch{topology}               routing-regime generation
//
// Gauges (not counters): every value resets with the observatory epoch,
// and the quantiles are point-in-time sketch reads. Called once by
// serve.New, after the table exists.
func (m *Metrics) trackForensics(t *forensics.Table) {
	p50 := m.reg.GaugeVec("tomographyd_residual_p50", "Streaming p50 of inspected residual norms (current epoch).", "topology")
	p95 := m.reg.GaugeVec("tomographyd_residual_p95", "Streaming p95 of inspected residual norms (current epoch).", "topology")
	p99 := m.reg.GaugeVec("tomographyd_residual_p99", "Streaming p99 of inspected residual norms (current epoch).", "topology")
	ewma := m.reg.GaugeVec("tomographyd_residual_ewma", "EWMA of inspected residual norms (current epoch).", "topology")
	rounds := m.reg.GaugeVec("tomographyd_residual_rounds", "Rounds folded into the forensic observatory this epoch.", "topology")
	topLink := m.reg.GaugeVec("tomographyd_suspicion_top_link", "Most-suspected link ID by residual attribution (-1 when none).", "topology")
	topScore := m.reg.GaugeVec("tomographyd_suspicion_top_score", "Mean per-round attribution of the most-suspected link.", "topology")
	bursts := m.reg.GaugeVec("tomographyd_suspicion_alarm_bursts", "Alarmed CUSUM bursts among retained bursts this epoch.", "topology")
	epoch := m.reg.GaugeVec("tomographyd_suspicion_epoch", "Routing-regime generation of the observatory (bumps on digest change).", "topology")
	m.reg.OnCollect(func() {
		for _, s := range t.Snapshots() {
			p50.With(s.Name).Set(s.Residual.P50)
			p95.With(s.Name).Set(s.Residual.P95)
			p99.With(s.Name).Set(s.Residual.P99)
			ewma.With(s.Name).Set(s.Residual.EWMA)
			rounds.With(s.Name).Set(float64(s.Rounds))
			link, score := -1, 0.0
			if len(s.TopLinks) > 0 {
				link, score = s.TopLinks[0].Link, s.TopLinks[0].Score
			}
			topLink.With(s.Name).Set(float64(link))
			topScore.With(s.Name).Set(score)
			alarmed := 0
			for _, b := range s.Bursts {
				if b.Alarmed {
					alarmed++
				}
			}
			bursts.With(s.Name).Set(float64(alarmed))
			epoch.With(s.Name).Set(float64(s.Epoch))
		}
	})
}

// ObserveEstimate records one solve's wall-clock latency.
func (m *Metrics) ObserveEstimate(d time.Duration) {
	m.EstimateLatency.ObserveDuration(d)
}

// ObserveStage records one trace span's duration under its stage name —
// installed as the server tracer's span-end hook, so every span in
// every trace also lands in a per-stage latency histogram.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.stageLatency.With(stage).ObserveDuration(d)
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (no client library needed).
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.reg.WritePrometheus(w)
}
