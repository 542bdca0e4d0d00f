// Command tomobench is the end-to-end benchmark of tomographyd. It runs
// one workload against real in-process serve.Server and cluster.Router
// instances over loopback HTTP, checks every answer against answers it
// computed itself, and prints one JSON result as its last line:
//
//	tomobench --workload inspect-fig1 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs half the time untraced and half traced, then replays each layer's
// public functions, and prints the per-layer metrics and a stage table.
// --repeat N runs every workload N times with seeds 1..N in child
// processes and writes the steadiness record (medians and quartiles).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Workload names, in the order the repeat mode runs them.
var workloads = []string{"inspect-fig1", "stream-backbone3k", "churn-routed"}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. write_p99_ms is printed
// beside them but not in the result line: on churn-routed its rank falls
// among rare WAL-compaction and replication stalls, so it is not steady
// enough from run to run to carry a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"rounds_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_retained_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"cluster.route_self_ms", "ms"},
	{"cluster.tail_step_ms", "ms"},
	{"cluster.records_shipped", "count"},
	{"cluster.retries", "count"},
	{"serve.handle_ms", "ms"},
	{"serve.codec_us_per_op", "us"},
	{"serve.shed", "count"},
	{"serve.register_ms", "ms"},
	{"client.codec_us_per_op", "us"},
	{"tomo.estimate_us_per_round", "us"},
	{"tomo.batch_ms_per_round", "ms"},
	{"tomo.cgls_iters_per_round", "count"},
	{"sparse.cgls_ms_per_round", "ms"},
	{"tomo.rank1_ms", "ms"},
	{"tomo.rank1_alloc_mb", "MiB"},
	{"detect.inspect_us_per_round", "us"},
	{"detect.residual_us_per_round", "us"},
	{"forensics.ingest_us_per_round", "us"},
	{"forensics.snapshot_ms", "ms"},
	{"obs.render_ms", "ms"},
	{"store.append_p50_ms", "ms"},
	{"store.append_p99_ms", "ms"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_cycles", "count"},
	{"unattributed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// setupRepeats is how many times a run boots its system; setup_s is the
// median, and the last boot serves the timed phase.
const setupRepeats = 3

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every topology for the self-tests.
	small bool
	// dir holds the run's stores; out keeps the spans and the run
	// history (buildDir by default).
	dir, out string
}

// metricVal is one metric in the result line.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run every workload this many times (seeds 1..N) and write "+steadinessRecord)
	)
	flag.Parse()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if err := repeatMode(*repeat, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: buildDir}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tomobench:", err)
	os.Exit(1)
}

// buildDir is where runs keep their scratch state, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "inspect-fig1":
		return newFig1(cfg)
	case "stream-backbone3k":
		return newStream(cfg)
	case "churn-routed":
		return newChurn(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// run executes one workload end to end and returns its result line,
// writing the human-readable report to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	if cfg.dir == "" {
		dir, err := os.MkdirTemp(cfg.out, "run-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	return runBench(ctx, cfg, b, out)
}

// runBench sets b up, runs its timed phase (or phases, traced) and
// returns the result line.
func runBench(ctx context.Context, cfg config, b bench, out io.Writer) (*result, error) {
	var err error

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	sort.Float64s(setups)

	meta := runMeta(cfg, b)
	metaLine, _ := json.Marshal(meta)
	fmt.Fprintf(out, "meta %s\n", metaLine)
	fmt.Fprintf(out, "plan digest %s\n", b.planDigest())

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metricVal)}
	var timed *phaseResult
	if !cfg.trace {
		timed, err = phase(ctx, b, d, nil)
		if err != nil {
			return nil, err
		}
		e2e := endToEndValues(timed)
		e2e["setup_s"] = setups[len(setups)/2]
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricVal{Value: e2e[m.name], Unit: m.unit}
			fmt.Fprintf(out, "%-18s %14.6f %s\n", m.name, e2e[m.name], m.unit)
		}
		fmt.Fprintf(out, "%-18s %14.6f ms (not in the result line)\n", "write_p99_ms", e2e["write_p99_ms"])
	} else {
		base, err := phase(ctx, b, d/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		active.Store(tr)
		timed, err = phase(ctx, b, d/2, tr)
		active.Store(nil)
		if err != nil {
			return nil, err
		}
		lr := newLayerRec()
		lr.analyze(tr)
		if err := b.replay(ctx, lr, timed); err != nil {
			return nil, err
		}
		baseOps, tracedOps := base.opsRate, timed.opsRate
		lr.vals["trace.overhead_frac"] = 1 - tracedOps/baseOps
		lr.vals["serve.shed"] = float64(timed.shed)
		lr.vals["client.codec_us_per_op"] = float64(timed.codecNs) / 1e3 / float64(max(timed.ops, 1))
		lr.vals["go.gc_cpu_frac"] = timed.gcCPUFrac
		lr.vals["go.gc_cycles"] = timed.gcCycles
		lr.print(out, cfg.workload)
		fmt.Fprintf(out, "tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s (%.1f%%)\n",
			tracedOps, baseOps, 100*lr.vals["trace.overhead_frac"])
		spanFile := filepath.Join(cfg.out, "spans-"+cfg.workload+".tsv.gz")
		if err := tr.write(spanFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", spanFile)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricVal{Value: lr.vals[m.name], Unit: m.unit}
			fmt.Fprintf(out, "%-30s %14.6f %s\n", m.name, lr.vals[m.name], m.unit)
		}
		timed.ops += base.ops
		timed.failed += base.failed
		timed.mismatches = append(timed.mismatches, base.mismatches...)
		timed.errs = append(timed.errs, base.errs...)
	}
	fmt.Fprintf(out, "steal_frac %.4f frac (CPU time stolen by the hypervisor during the timed phase); rates and latencies from the %d of %d windows with the least steal\n",
		timed.stealFrac, timed.kept, timed.windows)
	meta["steal_frac"] = timed.stealFrac
	res.Attempted = max(timed.ops, 1)
	res.Failed = timed.failed + int64(len(timed.mismatches))
	res.Correct = res.Failed == 0 && timed.ops > 0
	fmt.Fprintf(out, "fail_frac %.6f frac (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, e := range timed.errs {
		fmt.Fprintln(out, "op error:", e)
	}
	for _, m := range timed.mismatches {
		fmt.Fprintln(out, "counter mismatch:", m)
	}
	if err := saveRecord(cfg, meta, res); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of an untraced phase.
func endToEndValues(p *phaseResult) map[string]float64 {
	return map[string]float64{
		"ops_per_s":        p.opsRate,
		"rounds_per_s":     p.roundsRate,
		"latency_p50_ms":   p.readP50,
		"latency_p99_ms":   percentile(p.readNs, 0.99),
		"write_p50_ms":     p.writeP50,
		"write_p99_ms":     percentile(p.writeNs, 0.99),
		"alloc_kb_per_op":  float64(p.allocBytes) / 1024 / float64(max(p.ops, 1)),
		"heap_retained_mb": float64(p.heapInuse) / (1 << 20),
	}
}

// runMeta is what tells a changed machine apart from a changed program.
func runMeta(cfg config, b bench) map[string]any {
	fsync, dataDir := b.meta()
	fsType := "-"
	if dataDir != "" {
		fsType = filesystemType(dataDir)
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"fsync":      fsync,
		"data_fs":    fsType,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a result names the exact program even outside git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// saveRecord appends the result with its metadata to the run history.
func saveRecord(cfg config, meta map[string]any, res *result) error {
	f, err := os.OpenFile(filepath.Join(cfg.out, "history.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"meta": meta, "result": res})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
