package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns q1, median, q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steadiness is one metric's record over the repeated runs.
type steadiness struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is (q3 - q1) / median.
	Spread float64 `json:"spread"`
}

// steadinessRecord is where repeatMode writes, relative to the checkout
// root.
const steadinessRecord = "tomobench/STEADINESS.json"

// repeatMode runs every workload n times in child processes with seeds
// 1..n and writes each end-to-end metric's median and quartiles.
func repeatMode(n int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := map[string]any{"runs": n, "seconds": seconds}
	var meta map[string]any
	for _, w := range workloads {
		vals := make(map[string][]float64)
		units := make(map[string]string)
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, stdout.String())
			}
			res, m, err := parseChild(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect run", w, seed)
			}
			meta = m
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
				units[k] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, seed)
		}
		rec := make(map[string]steadiness)
		for k, v := range vals {
			q1, med, q3 := quartiles(v)
			spread := math.Inf(1)
			if med != 0 {
				spread = (q3 - q1) / med
			}
			rec[k] = steadiness{Unit: units[k], Values: v, Q1: q1, Median: med, Q3: q3, Spread: spread}
			fmt.Fprintf(os.Stderr, "%-18s %-18s median %12.4f spread %.4f\n", w, k, med, spread)
		}
		out[w] = rec
	}
	delete(meta, "workload")
	delete(meta, "seed")
	delete(meta, "time")
	out["meta"] = meta
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(steadinessRecord, append(raw, '\n'), 0o644)
}

// parseChild extracts the metadata line and the result line of a run.
func parseChild(stdout []byte) (*result, map[string]any, error) {
	var last []byte
	var meta map[string]any
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte("meta ")) {
			if err := json.Unmarshal(line[5:], &meta); err != nil {
				return nil, nil, err
			}
		}
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return nil, nil, errors.New("no result line")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	return &res, meta, nil
}
