package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
)

// oneShot runs one /v1/estimate or /v1/inspect op carrying the pool
// rounds idx and checks every answer against the pool.
func oneShot(ctx context.Context, hc *http.Client, buf *bytes.Buffer, base, kind, topology string, pool []pooled, idx []int, rec *recorder) {
	id := ""
	if rec.tr != nil {
		id = rec.opID()
		defer rec.tr.end(rec.tr.begin(id, "client.op"))
	}
	req := serve.RoundsRequest{Topology: topology}
	for _, i := range idx {
		req.Rounds = append(req.Rounds, pool[i].y)
	}
	if len(idx) == 1 {
		req.Y, req.Rounds = req.Rounds[0], nil
	}
	t0 := time.Now()
	body, err := json.Marshal(req)
	rec.codec(id, t0)
	if err != nil {
		rec.fail(false, err)
		return
	}
	rec.keepBody(kind, body, idx)
	start := time.Now()
	if err := call(ctx, hc, http.MethodPost, base+"/v1/"+kind, id, body, buf); err != nil {
		rec.fail(false, err)
		return
	}
	t1 := time.Now()
	alarms := 0
	if kind == "estimate" {
		var resp serve.EstimateResponse
		if err = json.Unmarshal(buf.Bytes(), &resp); err == nil {
			err = checkEstimates(resp.Results, pool, idx)
		}
	} else {
		var resp serve.InspectResponse
		if err = json.Unmarshal(buf.Bytes(), &resp); err == nil {
			alarms, err = checkReports(resp, pool, idx)
		}
	}
	lat := time.Since(start)
	rec.codec(id, t1)
	rec.done(false, lat, err)
	if err != nil {
		return
	}
	n := float64(len(idx))
	rec.addRounds(len(idx))
	rec.count(routeKey(kind), 1)
	rec.count("tomographyd_"+kind+"_rounds_total", n)
	if kind == "inspect" {
		rec.count("tomographyd_detector_alarms_total", float64(alarms))
	}
}

// checkEstimates compares every returned estimate with the pool's.
func checkEstimates(results []serve.EstimateResult, pool []pooled, idx []int) error {
	if len(results) != len(idx) {
		return fmt.Errorf("%d estimates for %d rounds", len(results), len(idx))
	}
	for j, r := range results {
		if err := checkVector(r.XHat, pool[idx[j]].xhat, 1e-9); err != nil {
			return fmt.Errorf("round %d: %w", j, err)
		}
	}
	return nil
}

// checkReports compares every verdict with the pool's and returns the
// alarm count.
func checkReports(resp serve.InspectResponse, pool []pooled, idx []int) (int, error) {
	if len(resp.Reports) != len(idx) {
		return 0, fmt.Errorf("%d verdicts for %d rounds", len(resp.Reports), len(idx))
	}
	alarms := 0
	for j, r := range resp.Reports {
		if err := checkVerdict(r.Detected, r.ResidualNorm, pool[idx[j]], 1e-9); err != nil {
			return 0, fmt.Errorf("round %d: %w", j, err)
		}
		if r.Detected {
			alarms++
		}
	}
	if alarms != resp.Alarms {
		return 0, fmt.Errorf("alarms %d, verdicts say %d", resp.Alarms, alarms)
	}
	return alarms, nil
}

// writeOp runs one evict or register of a topology whose routing matrix
// has the given digest, and reports whether it succeeded.
func writeOp(ctx context.Context, hc *http.Client, buf *bytes.Buffer, method, url string, body []byte, route, digest string, rec *recorder) bool {
	id := ""
	if rec.tr != nil {
		id = rec.opID()
		defer rec.tr.end(rec.tr.begin(id, "client.op"))
	}
	start := time.Now()
	if err := call(ctx, hc, method, url, id, body, buf); err != nil {
		rec.fail(true, err)
		return false
	}
	t1 := time.Now()
	err := checkWrite(buf.Bytes(), route, digest)
	lat := time.Since(start)
	rec.codec(id, t1)
	rec.done(true, lat, err)
	if err != nil {
		return false
	}
	rec.count(routeKey(route), 1)
	if route == "evict" {
		rec.count("tomographyd_evictions_total", 1)
	}
	return true
}

// checkWrite checks an evict or register answer: the digest must be the
// expected one, and a registration must come from the solver cache.
func checkWrite(raw []byte, route, digest string) error {
	if route == "evict" {
		var er serve.EvictResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			return err
		}
		if er.Digest != digest {
			return fmt.Errorf("evicted digest %s, want %s", er.Digest, digest)
		}
		return nil
	}
	var tr serve.TopologyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		return err
	}
	if tr.Digest != digest || !tr.SolverCached {
		return fmt.Errorf("registered digest %s cached=%v, want %s from the cache", tr.Digest, tr.SolverCached, digest)
	}
	return nil
}

// pathRoundTrip adds a duplicate of a session path and removes it again
// (a rank-1 update and downdate on the dense route), two write ops, and
// checks the session is back on its original routing matrix.
func pathRoundTrip(ctx context.Context, hc *http.Client, base, sid string, walk []string, paths int, digest string, rec *recorder, buf *bytes.Buffer) {
	remove := paths
	for _, pr := range []serve.SessionPathsRequest{{Add: walk}, {Remove: &remove}} {
		id := ""
		var span int32
		if rec.tr != nil {
			id = rec.opID()
			span = rec.tr.begin(id, "client.op")
		}
		t0 := time.Now()
		body, err := json.Marshal(pr)
		rec.codec(id, t0)
		if err == nil {
			start := time.Now()
			err = call(ctx, hc, http.MethodPost, base+"/v1/sessions/"+sid+"/paths", id, body, buf)
			if err == nil {
				t1 := time.Now()
				var resp serve.SessionPathsResponse
				err = json.Unmarshal(buf.Bytes(), &resp)
				lat := time.Since(start)
				rec.codec(id, t1)
				if err == nil {
					err = checkPaths(resp, pr, paths, digest)
				}
				if err == nil {
					rec.done(true, lat, nil)
					rec.count(routeKey("session_paths"), 1)
				}
			}
		}
		if rec.tr != nil {
			rec.tr.end(span)
		}
		if err != nil {
			rec.fail(true, err)
			return
		}
	}
}

func checkPaths(resp serve.SessionPathsResponse, pr serve.SessionPathsRequest, paths int, digest string) error {
	want := paths
	if pr.Add != nil {
		want++
	}
	if resp.NumPaths != want || resp.Method == "" {
		return fmt.Errorf("path mutation left %d paths via %q, want %d", resp.NumPaths, resp.Method, want)
	}
	if pr.Remove != nil && resp.Digest != digest {
		return fmt.Errorf("path round trip ended on digest %s, want %s", resp.Digest, digest)
	}
	return nil
}
