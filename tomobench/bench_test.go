package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smallConfig is a seconds-long run on shrunken topologies.
func smallConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 1, trace: trace, small: true, dir: t.TempDir(), out: t.TempDir()}
}

// TestSmoke runs every workload untraced and traced and checks that each
// named metric is emitted with its unit and that no op failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res, err := run(context.Background(), smallConfig(t, w, 1, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.name, v, m.unit)
				}
			}
			if !trace && res.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: no throughput", w)
			}
		}
	}
}

// TestPlanIsPureFunctionOfSeed checks the same seed gives the same plan
// digest and another seed a different one.
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			b, err := newBench(smallConfig(t, w, seed, false))
			if err != nil {
				t.Fatal(err)
			}
			return b.planDigest()
		}
		a, again, other := digest(1), digest(1), digest(2)
		if a != again {
			t.Errorf("%s: seed 1 gave plan digests %s and %s", w, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same plan digest %s", w, a)
		}
	}
}

// TestGateCatchesWrongAnswers checks that a disagreeing verdict or a
// counter the server did not move makes the run incorrect.
func TestGateCatchesWrongAnswers(t *testing.T) {
	cfg := smallConfig(t, "inspect-fig1", 1, false)
	b, err := newFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for i := range b.pool {
		b.pool[i].residual++
	}
	// The warm-up already checks answers, so the run fails in setup.
	if res, err := runBench(context.Background(), cfg, b, io.Discard); err == nil {
		t.Errorf("wrong expected residuals passed the gate: %+v", res)
	}

	scfg := smallConfig(t, "stream-backbone3k", 1, false)
	c, err := newStream(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	res, err := runBench(context.Background(), scfg, extraHit{c}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Errorf("a counter mismatch passed the gate: %+v", res)
	}
}

// extraHit expects one more /metrics hit than the server will count.
type extraHit struct{ bench }

func (e extraHit) selfHits() map[string]float64 {
	m := e.bench.selfHits()
	m[routeKey("metrics")]++
	return m
}

// TestBenchmarkJSONMatches checks BENCHMARK.json names exactly the
// workloads and metrics this program runs and emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program emits %d", len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
