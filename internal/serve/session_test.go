package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/tomo"
)

// streamLine is the decoded union of the three NDJSON response line
// shapes (verdict, error, summary), discriminated by field presence.
type streamLine struct {
	verdict *StreamVerdict
	errLine *StreamError
	summary *StreamSummary
}

func parseStreamLine(t testing.TB, raw []byte) streamLine {
	t.Helper()
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatalf("bad NDJSON line %s: %v", raw, err)
	}
	switch {
	case probe["done"] != nil:
		var s StreamSummary
		decodeInto(t, raw, &s)
		return streamLine{summary: &s}
	case probe["error"] != nil:
		var e StreamError
		decodeInto(t, raw, &e)
		return streamLine{errLine: &e}
	default:
		var v StreamVerdict
		decodeInto(t, raw, &v)
		return streamLine{verdict: &v}
	}
}

// postStream sends body as one NDJSON request to the session's rounds
// endpoint and parses the full NDJSON response.
func postStream(t testing.TB, ts *httptest.Server, id string, body string) (int, []StreamVerdict, *StreamError, *StreamSummary) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/rounds", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil, nil
	}
	var (
		verdicts []StreamVerdict
		errLine  *StreamError
		summary  *StreamSummary
	)
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		l := parseStreamLine(t, line)
		switch {
		case l.verdict != nil:
			verdicts = append(verdicts, *l.verdict)
		case l.errLine != nil:
			errLine = l.errLine
		case l.summary != nil:
			summary = l.summary
		}
	}
	return resp.StatusCode, verdicts, errLine, summary
}

func roundsBody(t testing.TB, lines ...StreamRound) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// sessionFixture registers fig1 and opens one session against it.
func sessionFixture(t *testing.T, srv *Server, ts *httptest.Server) (SessionResponse, *tomo.System) {
	t.Helper()
	edges, paths, _, sys := fig1Wire(t)
	resp, raw := postJSON(t, ts, "/v1/topologies", TopologyRequest{Name: "fig1", Edges: edges, Paths: paths})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts, "/v1/sessions", SessionRequest{Topology: "fig1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: %d %s", resp.StatusCode, raw)
	}
	var sr SessionResponse
	decodeInto(t, raw, &sr)
	if sr.Digest != sys.Digest() || sr.NumLinks != 10 || sr.NumPaths != 23 {
		t.Fatalf("unexpected session: %+v", sr)
	}
	return sr, sys
}

func measureRounds(t testing.TB, sys *tomo.System, seed int64, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for r := range out {
		x := make(la.Vector, sys.NumLinks())
		for i := range x {
			x[i] = 1 + rng.Float64()*19
		}
		y, err := sys.Measure(x)
		if err != nil {
			t.Fatal(err)
		}
		out[r] = y
	}
	return out
}

func TestSessionStreamLifecycle(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)

	rounds := measureRounds(t, sys, 11, 6)
	// Round 3 is scapegoated: a gross inconsistency the least-squares
	// inversion cannot explain, so Eq. 23 must fire.
	rounds[3][0] += 20000
	rounds[3][5] += 20000

	body := roundsBody(t,
		StreamRound{Y: rounds[0]},
		StreamRound{Rounds: rounds[1:4]},
		StreamRound{Rounds: rounds[4:]},
	)
	status, verdicts, errLine, summary := postStream(t, ts, sr.Session, body)
	if status != http.StatusOK || errLine != nil {
		t.Fatalf("stream: status=%d err=%+v", status, errLine)
	}
	if len(verdicts) != 6 || summary == nil || !summary.Done || summary.Rounds != 6 {
		t.Fatalf("got %d verdicts, summary %+v", len(verdicts), summary)
	}
	wantAlarms := 0
	for i, v := range verdicts {
		if v.Round != i {
			t.Errorf("verdict %d has round index %d", i, v.Round)
		}
		xhat, err := sys.Estimate(rounds[i])
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Residual(xhat, rounds[i])
		if err != nil {
			t.Fatal(err)
		}
		rn := res.Norm1()
		if math.Abs(v.ResidualNorm-rn) > 1e-9*(1+rn) {
			t.Errorf("round %d residual %g, want %g", i, v.ResidualNorm, rn)
		}
		want := rn > sr.Alpha
		if v.Detected != want {
			t.Errorf("round %d detected=%v, want %v (rn=%g alpha=%g)", i, v.Detected, want, rn, sr.Alpha)
		}
		if want {
			wantAlarms++
		}
		for j := range xhat {
			if math.Abs(v.XHat[j]-xhat[j]) > 1e-9*(1+math.Abs(xhat[j])) {
				t.Errorf("round %d xhat[%d] = %g, want %g", i, j, v.XHat[j], xhat[j])
				break
			}
		}
	}
	if wantAlarms == 0 {
		t.Fatal("scapegoated round did not trip the local detector; test is vacuous")
	}
	if summary.Alarms != wantAlarms {
		t.Errorf("summary alarms = %d, want %d", summary.Alarms, wantAlarms)
	}

	// Streamed verdicts must agree exactly with the one-shot inspect API.
	resp, raw := postJSON(t, ts, "/v1/inspect", RoundsRequest{Topology: "fig1", Rounds: rounds})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect: %d %s", resp.StatusCode, raw)
	}
	var ir InspectResponse
	decodeInto(t, raw, &ir)
	for i, rep := range ir.Reports {
		if rep.Detected != verdicts[i].Detected || rep.ResidualNorm != verdicts[i].ResidualNorm {
			t.Errorf("round %d: stream (%v, %g) != inspect (%v, %g)",
				i, verdicts[i].Detected, verdicts[i].ResidualNorm, rep.Detected, rep.ResidualNorm)
		}
	}

	// Status reflects the accumulated stream.
	resp, raw = get(t, ts, "/v1/sessions/"+sr.Session)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}
	var st SessionStatusResponse
	decodeInto(t, raw, &st)
	if st.Rounds != 6 || st.Alarms != int64(wantAlarms) || st.NumPaths != 23 {
		t.Fatalf("status %+v, want 6 rounds %d alarms", st, wantAlarms)
	}

	// Close returns the totals; the ID dangles afterwards.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sr.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cr SessionCloseResponse
	raw, _ = io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", dresp.StatusCode, raw)
	}
	decodeInto(t, raw, &cr)
	if cr.Rounds != 6 || cr.Alarms != int64(wantAlarms) {
		t.Fatalf("close %+v", cr)
	}
	if resp, _ := get(t, ts, "/v1/sessions/"+sr.Session); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status after delete = %d, want 404", resp.StatusCode)
	}
	if status, _, _, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Y: rounds[0]})); status != http.StatusNotFound {
		t.Errorf("rounds after delete = %d, want 404", status)
	}
}

func TestSessionPathMutationOverHTTP(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)

	// Duplicate an existing path walk: guaranteed addable and keeps the
	// system identifiable.
	_, paths, _, _ := fig1Wire(t)
	walk := paths[3]

	resp, raw := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths", SessionPathsRequest{Add: walk})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add path: %d %s", resp.StatusCode, raw)
	}
	var pr SessionPathsResponse
	decodeInto(t, raw, &pr)
	if pr.NumPaths != 24 || pr.Method != "refactor" {
		t.Fatalf("add path response %+v, want 24 paths via refactor", pr)
	}
	if pr.Digest == sr.Digest {
		t.Fatal("digest unchanged after path add")
	}

	// Rounds against the mutated session (now 24 measurement paths, so
	// 24-entry measurement vectors) must match a locally mutated system,
	// not the original registration.
	p3 := sys.Paths()[3]
	mutated, _, err := sys.AddPath(p3)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.Digest() != pr.Digest {
		t.Fatalf("server digest %q != local mutated digest %q", pr.Digest, mutated.Digest())
	}
	rounds := measureRounds(t, mutated, 17, 3)
	status, verdicts, errLine, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Rounds: rounds}))
	if status != http.StatusOK || errLine != nil || len(verdicts) != 3 {
		t.Fatalf("stream after add: status=%d err=%+v n=%d", status, errLine, len(verdicts))
	}
	for i, v := range verdicts {
		xhat, err := mutated.Estimate(rounds[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range xhat {
			if math.Abs(v.XHat[j]-xhat[j]) > 1e-9*(1+math.Abs(xhat[j])) {
				t.Errorf("round %d xhat[%d] = %g, want mutated-system %g", i, j, v.XHat[j], xhat[j])
				break
			}
		}
	}

	// Removing the appended path restores the original digest.
	last := 23
	resp, raw = postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths", SessionPathsRequest{Remove: &last})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove path: %d %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &pr)
	if pr.NumPaths != 23 || pr.Method != "refactor" {
		t.Fatalf("remove path response %+v", pr)
	}
	if pr.Digest != sr.Digest {
		t.Fatalf("digest %q after add+remove, want original %q", pr.Digest, sr.Digest)
	}

	// Mutation methods are observable on /metrics.
	mt := metricsText(t, ts)
	for _, want := range []string{
		`tomographyd_path_mutations_total{method="refactor"} 2`,
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)
	y := measureRounds(t, sys, 3, 1)[0]

	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown topology", func() int {
			resp, _ := postJSON(t, ts, "/v1/sessions", SessionRequest{Topology: "nope"})
			return resp.StatusCode
		}, http.StatusNotFound},
		{"negative alpha", func() int {
			resp, _ := postJSON(t, ts, "/v1/sessions", SessionRequest{Topology: "fig1", Alpha: -1})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"rounds on unknown session", func() int {
			status, _, _, _ := postStream(t, ts, "s-99999999", roundsBody(t, StreamRound{Y: y}))
			return status
		}, http.StatusNotFound},
		{"paths with both verbs", func() int {
			zero := 0
			resp, _ := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths",
				SessionPathsRequest{Add: []string{"a", "b"}, Remove: &zero})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"paths with neither verb", func() int {
			resp, _ := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths", SessionPathsRequest{})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"add with unknown node", func() int {
			resp, _ := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths",
				SessionPathsRequest{Add: []string{"no-such-node", "also-not"}})
			return resp.StatusCode
		}, http.StatusBadRequest},
		{"remove out of range", func() int {
			oob := 99
			resp, _ := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths", SessionPathsRequest{Remove: &oob})
			return resp.StatusCode
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// In-band stream errors: a mis-shaped round terminates the stream
	// with an error line, after serving the rounds before it.
	bad := roundsBody(t, StreamRound{Y: y}, StreamRound{Y: []float64{1, 2, 3}})
	status, verdicts, errLine, summary := postStream(t, ts, sr.Session, bad)
	if status != http.StatusOK {
		t.Fatalf("mis-shaped stream status = %d", status)
	}
	if len(verdicts) != 1 || errLine == nil || summary != nil {
		t.Fatalf("mis-shaped stream: %d verdicts, err=%+v, summary=%+v", len(verdicts), errLine, summary)
	}
	if errLine.Round != 1 {
		t.Errorf("error round = %d, want 1", errLine.Round)
	}

	status, verdicts, errLine, _ = postStream(t, ts, sr.Session, "{\"y\": [1], \"rounds\": [[1]]}\n")
	if status != http.StatusOK || len(verdicts) != 0 || errLine == nil {
		t.Fatalf("both-verbs line: status=%d verdicts=%d err=%+v", status, len(verdicts), errLine)
	}
}

func TestSessionSurvivesTopologyEvict(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/topologies/fig1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %d", resp.StatusCode)
	}

	// The session holds its own System snapshot; it keeps serving.
	rounds := measureRounds(t, sys, 23, 2)
	status, verdicts, errLine, summary := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Rounds: rounds}))
	if status != http.StatusOK || errLine != nil || len(verdicts) != 2 || summary == nil {
		t.Fatalf("stream after evict: status=%d err=%+v n=%d", status, errLine, len(verdicts))
	}
}

// openPinnedStream starts an interactive rounds stream over an io.Pipe
// and hands back the writer plus a reader positioned after the first
// verdict — at which point the stream provably holds a worker slot.
func openPinnedStream(t *testing.T, ts *httptest.Server, id string, y []float64) (*io.PipeWriter, *bufio.Reader, *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+id+"/rounds", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned stream status = %d", resp.StatusCode)
	}
	line, err := json.Marshal(StreamRound{Y: y})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first verdict: %v", err)
	}
	if l := parseStreamLine(t, first); l.verdict == nil {
		t.Fatalf("first line is not a verdict: %s", first)
	}
	return pw, br, resp
}

func TestSessionRoundsShed429WhenPoolBusy(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)
	y := measureRounds(t, sys, 5, 1)[0]

	pw, br, resp := openPinnedStream(t, ts, sr.Session, y)
	defer resp.Body.Close()

	// The only worker slot is pinned by the open stream: a second stream
	// must shed with 429 before writing any stream bytes.
	status, _, _, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Y: y}))
	if status != http.StatusTooManyRequests {
		t.Fatalf("concurrent stream status = %d, want 429", status)
	}
	if got := srv.Metrics().ReqBusy.Load(); got != 1 {
		t.Errorf("ReqBusy = %d, want 1", got)
	}

	// Releasing the stream frees the slot; a retry succeeds.
	pw.Close()
	last, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(last, []byte(`"done":true`)) {
		t.Fatalf("pinned stream did not finish cleanly: %s", last)
	}
	status, verdicts, _, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Y: y}))
	if status != http.StatusOK || len(verdicts) != 1 {
		t.Fatalf("retry after release: status=%d n=%d", status, len(verdicts))
	}
}

// burnClock advances a FakeClock past d.
func burnClock(clk *obs.FakeClock, d time.Duration) {
	start := clk.Now()
	for clk.Now().Sub(start) < d {
	}
}

func TestSessionReaping(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(0, 0), time.Second)
	idle := time.Hour
	srv := New(Config{Clock: clk, SessionIdleTimeout: idle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, _ := sessionFixture(t, srv, ts)

	// Fresh session: nothing to reap.
	if n := srv.ReapSessions(); n != 0 {
		t.Fatalf("reaped %d fresh sessions", n)
	}

	// Two expiry paths: the periodic reaper...
	burnClock(clk, idle+time.Minute)
	if n := srv.ReapSessions(); n != 1 {
		t.Fatalf("reaped %d expired sessions, want 1", n)
	}
	if resp, _ := get(t, ts, "/v1/sessions/"+sr.Session); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status after reap = %d, want 404", resp.StatusCode)
	}

	// ...and the lazy check on access, which answers 410 Gone.
	resp, raw := postJSON(t, ts, "/v1/sessions", SessionRequest{Topology: "fig1"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second session: %d %s", resp.StatusCode, raw)
	}
	var sr2 SessionResponse
	decodeInto(t, raw, &sr2)
	burnClock(clk, idle+time.Minute)
	if resp, _ := get(t, ts, "/v1/sessions/"+sr2.Session); resp.StatusCode != http.StatusGone {
		t.Errorf("lazy-expired status = %d, want 410", resp.StatusCode)
	}
	if got := srv.Metrics().SessionsReaped.Load(); got != 2 {
		t.Errorf("SessionsReaped = %d, want 2", got)
	}
	mt := metricsText(t, ts)
	if !strings.Contains(mt, "tomographyd_sessions_active 0") {
		t.Errorf("metrics should show zero active sessions:\n%s", grepMetrics(mt, "tomographyd_sessions"))
	}
}

func TestSessionReapSkipsInFlightStream(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(0, 0), time.Second)
	idle := time.Hour
	srv := New(Config{Clock: clk, SessionIdleTimeout: idle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)
	y := measureRounds(t, sys, 5, 1)[0]

	pw, br, resp := openPinnedStream(t, ts, sr.Session, y)
	defer resp.Body.Close()

	// Idle long past the timeout — but the stream is in flight, so the
	// session must survive both the reaper and the lazy check.
	burnClock(clk, idle+time.Minute)
	if n := srv.ReapSessions(); n != 0 {
		t.Fatalf("reaped %d sessions with a stream in flight", n)
	}
	if resp, _ := get(t, ts, "/v1/sessions/"+sr.Session); resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight session status = %d, want 200", resp.StatusCode)
	}

	// The stream still works after the fake hour.
	line, _ := json.Marshal(StreamRound{Y: y})
	if _, err := pw.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	next, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if l := parseStreamLine(t, next); l.verdict == nil || l.verdict.Round != 1 {
		t.Fatalf("expected round-1 verdict, got %s", next)
	}

	// Stream ends → lastActive refreshes → still not reapable...
	pw.Close()
	if _, err := io.ReadAll(br); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.ReapSessions() == 0 && sessionInFlight(srv, sr.Session) == 0 })
	// ...until it idles out again.
	burnClock(clk, idle+time.Minute)
	waitFor(t, func() bool { return srv.ReapSessions() == 1 })
	if got := srv.Metrics().SessionsReaped.Load(); got != 1 {
		t.Errorf("SessionsReaped = %d, want 1", got)
	}
}

func sessionInFlight(srv *Server, id string) int {
	srv.sessions.mu.Lock()
	ss, ok := srv.sessions.m[id]
	srv.sessions.mu.Unlock()
	if !ok {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.inFlight
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func grepMetrics(text, prefix string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// --- Race tests (exercised with -race in the check script) --------------

func TestSessionConcurrentRoundStreams(t *testing.T) {
	srv := New(Config{Workers: 16, RequestTimeout: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)

	const streams, perStream = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rounds := measureRounds(t, sys, int64(100+g), perStream)
			status, verdicts, errLine, summary := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Rounds: rounds}))
			if status != http.StatusOK || errLine != nil {
				errs <- fmt.Errorf("stream %d: status=%d err=%+v", g, status, errLine)
				return
			}
			if len(verdicts) != perStream || summary == nil || summary.Rounds != perStream {
				errs <- fmt.Errorf("stream %d: %d verdicts, summary %+v", g, len(verdicts), summary)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, raw := get(t, ts, "/v1/sessions/"+sr.Session)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st SessionStatusResponse
	decodeInto(t, raw, &st)
	if st.Rounds != streams*perStream {
		t.Errorf("session rounds = %d, want %d", st.Rounds, streams*perStream)
	}
	if got := srv.Metrics().SessionRounds.Load(); got != streams*perStream {
		t.Errorf("SessionRounds metric = %d, want %d", got, streams*perStream)
	}
}

func TestSessionRoundsRaceMutateDeleteEvict(t *testing.T) {
	srv := New(Config{Workers: 16, RequestTimeout: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sr, sys := sessionFixture(t, srv, ts)
	_, walks, _, _ := fig1Wire(t)

	var wg sync.WaitGroup
	errs := make(chan error, 32)

	// Round streams hammer the session...
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rounds := measureRounds(t, sys, int64(g), 10)
			for i := 0; i < 10; i++ {
				status, _, _, _ := postStream(t, ts, sr.Session, roundsBody(t, StreamRound{Y: rounds[i]}))
				switch status {
				case http.StatusOK, http.StatusNotFound, http.StatusGone:
				default:
					errs <- fmt.Errorf("stream %d/%d: unexpected status %d", g, i, status)
					return
				}
			}
		}(g)
	}
	// ...while paths mutate (adds only: removal of a racing add is
	// index-unstable; adds never break identifiability)...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			resp, _ := postJSON(t, ts, "/v1/sessions/"+sr.Session+"/paths", SessionPathsRequest{Add: walks[i%len(walks)]})
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotFound, http.StatusGone:
			default:
				errs <- fmt.Errorf("mutate %d: unexpected status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	// ...the registry entry is evicted from under it...
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/topologies/fig1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
	}()
	// ...and finally the session itself is deleted mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sr.Session, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			errs <- fmt.Errorf("session delete: unexpected status %d", resp.StatusCode)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The session must be gone exactly once, however the race resolved.
	if resp, _ := get(t, ts, "/v1/sessions/"+sr.Session); resp.StatusCode != http.StatusNotFound {
		t.Errorf("post-race status = %d, want 404", resp.StatusCode)
	}
}
