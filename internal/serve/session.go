package serve

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forensics"
	"repro/internal/graph"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/tomo"
)

// ErrGone is returned when a session ID refers to a session that the
// idle reaper (or a lazy expiry check) has already removed — the
// streaming analogue of a dangling handle, mapped to HTTP 410.
var ErrGone = errors.New("serve: session expired")

// DefaultSessionIdleTimeout is how long a session may sit idle — no
// round stream, path mutation, or status poll — before the reaper
// removes it.
const DefaultSessionIdleTimeout = 5 * time.Minute

// session is one long-lived round stream binding: a tomography system
// snapshot (initially the registered topology's), the detection
// threshold, and activity accounting for the idle reaper.
//
// State machine: open → (rounds | paths | status)* → closed (DELETE) or
// reaped (idle timeout). A session holds its own *tomo.System pointer:
// evicting the underlying topology does not disturb open sessions (they
// keep serving their snapshot, exactly like in-flight one-shot
// requests against an immutable Entry), and path mutations swap in a
// derived System without touching the registry.
type session struct {
	id      string
	topo    string
	created time.Time

	mu        sync.Mutex
	sys       *tomo.System
	digest    string
	alpha     float64
	last      time.Time
	inFlight  int
	rounds    int64
	alarms    int64
	mutations int64
	closed    bool
}

// touch marks activity and reports whether the session is still open.
func (ss *session) touch(now time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return false
	}
	ss.last = now
	return true
}

// begin marks a round stream in flight (reap protection).
func (ss *session) begin(now time.Time) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return fmt.Errorf("%w: session %s closed", ErrGone, ss.id)
	}
	ss.inFlight++
	ss.last = now
	return nil
}

func (ss *session) end(now time.Time) {
	ss.mu.Lock()
	ss.inFlight--
	ss.last = now
	ss.mu.Unlock()
}

// snapshot returns the system, its digest, and the threshold to use for
// the next batch. Taken per NDJSON input line, so a concurrent path
// mutation becomes visible at the next batch boundary.
func (ss *session) snapshot() (*tomo.System, string, float64, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sys, ss.digest, ss.alpha, ss.closed
}

// sessionTable is the daemon's live-session map. Sessions are keyed by
// server-minted IDs; the table's lock covers only membership — per-
// session state has its own mutex.
type sessionTable struct {
	mu  sync.Mutex
	m   map[string]*session
	seq atomic.Int64
	// prefix is drawn at random once per table, so IDs minted by
	// different daemons do not collide behind one router, which pins
	// sessions by ID fleet-wide.
	prefix string
}

func newSessionTable() *sessionTable {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: the clock still differs between processes.
		binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return &sessionTable{m: make(map[string]*session), prefix: hex.EncodeToString(b[:])}
}

// nextID mints a session ID unique to this process: s-<prefix>-<seq>.
func (t *sessionTable) nextID() string {
	return fmt.Sprintf("s-%s-%08d", t.prefix, t.seq.Add(1))
}

func (t *sessionTable) add(ss *session) {
	t.mu.Lock()
	t.m[ss.id] = ss
	t.mu.Unlock()
}

func (t *sessionTable) get(id string) (*session, error) {
	t.mu.Lock()
	ss, ok := t.m[id]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	return ss, nil
}

// remove closes and unlinks a session; reports whether it was present
// and its final counters.
func (t *sessionTable) remove(id string) (*session, error) {
	t.mu.Lock()
	ss, ok := t.m[id]
	if ok {
		delete(t.m, id)
	}
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	return ss, nil
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// ReapSessions removes every session idle past the configured timeout,
// skipping sessions with a round stream in flight (they are live by
// definition; their lastActive updates when the stream ends). It
// returns the number reaped. The daemon calls this on a ticker; tests
// drive it directly against a FakeClock.
func (s *Server) ReapSessions() int {
	if s.idle < 0 {
		return 0
	}
	now := s.clock.Now()
	s.sessions.mu.Lock()
	var victims []*session
	for id, ss := range s.sessions.m {
		ss.mu.Lock()
		expired := ss.inFlight == 0 && now.Sub(ss.last) > s.idle
		if expired {
			ss.closed = true
			delete(s.sessions.m, id)
			victims = append(victims, ss)
		}
		ss.mu.Unlock()
	}
	s.sessions.mu.Unlock()
	if n := len(victims); n > 0 {
		s.metrics.SessionsReaped.Add(int64(n))
	}
	return len(victims)
}

// --- Wire types ---------------------------------------------------------

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// Topology names a registered configuration to bind.
	Topology string `json:"topology"`
	// Alpha optionally overrides the registered detection threshold for
	// this session (0 keeps the registered value).
	Alpha float64 `json:"alpha,omitempty"`
}

// SessionResponse is the body of a successful session create.
type SessionResponse struct {
	Session            string  `json:"session"`
	Topology           string  `json:"topology"`
	Digest             string  `json:"digest"`
	Alpha              float64 `json:"alpha"`
	NumLinks           int     `json:"numLinks"`
	NumPaths           int     `json:"numPaths"`
	IdleTimeoutSeconds float64 `json:"idleTimeoutSeconds,omitempty"`
}

// SessionStatusResponse is the body of GET /v1/sessions/{id}.
type SessionStatusResponse struct {
	Session       string  `json:"session"`
	Topology      string  `json:"topology"`
	Digest        string  `json:"digest"`
	Alpha         float64 `json:"alpha"`
	NumPaths      int     `json:"numPaths"`
	Rounds        int64   `json:"rounds"`
	Alarms        int64   `json:"alarms"`
	PathMutations int64   `json:"pathMutations"`
}

// SessionCloseResponse is the body of DELETE /v1/sessions/{id}.
type SessionCloseResponse struct {
	Session string `json:"session"`
	Rounds  int64  `json:"rounds"`
	Alarms  int64  `json:"alarms"`
}

// StreamRound is one NDJSON request line on POST /v1/sessions/{id}/rounds,
// carrying a batch of measurement vectors in exactly one of three forms:
// a single vector in y, a batch in rounds, or a packed batch in packed —
// base64 (standard alphabet) of row-major little-endian float64s, with
// the row width taken from the session's current path count. Packed
// rounds skip float text entirely (bit-exact, no shortest-repr
// formatting on either side), which matters at rate: a 10k-link y in
// JSON text costs more to format and parse than to solve. Every form is
// solved with one amortized EstimateBatch call per line.
//
// xhat controls verdict verbosity for the line's rounds: absent or
// true, every verdict carries the full link-delay estimate; false,
// verdicts are slim (detected + residual only) — the right mode at
// scale, where shipping NumLinks floats per round costs more than the
// solve itself.
type StreamRound struct {
	Y      []float64   `json:"y,omitempty"`
	Rounds [][]float64 `json:"rounds,omitempty"`
	Packed string      `json:"packed,omitempty"`
	XHat   *bool       `json:"xhat,omitempty"`
}

// PackRounds encodes measurement vectors into the packed wire form
// (base64 row-major little-endian float64) accepted by StreamRound.
// All rows must share one width. Exported for streaming clients.
func PackRounds(rounds [][]float64) (string, error) {
	if len(rounds) == 0 || len(rounds[0]) == 0 {
		return "", errors.New("serve: pack: empty batch")
	}
	m := len(rounds[0])
	raw := make([]byte, 0, len(rounds)*m*8)
	for i, row := range rounds {
		if len(row) != m {
			return "", fmt.Errorf("serve: pack: row %d has %d entries, want %d", i, len(row), m)
		}
		for _, f := range row {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(f))
		}
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// StreamVerdict is one NDJSON response line: the paper's per-round
// verdict (‖R·x̂ − y‖₁ > α, Eq. 23) plus the estimate itself. Round
// indices count from 0 within the request.
type StreamVerdict struct {
	Round        int       `json:"round"`
	Detected     bool      `json:"detected"`
	ResidualNorm float64   `json:"residualNorm"`
	XHat         []float64 `json:"xhat,omitempty"`
}

// StreamError is a terminal NDJSON response line: the round that failed
// and why. No further lines follow it.
type StreamError struct {
	Round int    `json:"round"`
	Error string `json:"error"`
}

// StreamSummary is the final NDJSON response line of a fully processed
// stream.
type StreamSummary struct {
	Done   bool `json:"done"`
	Rounds int  `json:"rounds"`
	Alarms int  `json:"alarms"`
}

// SessionPathsRequest is the body of POST /v1/sessions/{id}/paths:
// exactly one of add (a node-name walk over the session's topology,
// appended as a new measurement path) or remove (an existing path
// index).
type SessionPathsRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove *int     `json:"remove,omitempty"`
}

// SessionPathsResponse reports a successful path mutation, including
// which solver-derivation route tomo took ("refactor" or "cold").
type SessionPathsResponse struct {
	Session  string `json:"session"`
	NumPaths int    `json:"numPaths"`
	Digest   string `json:"digest"`
	Method   string `json:"method"`
}

// --- Handlers -----------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	var sr SessionRequest
	if !s.decode(w, req, &sr) {
		return
	}
	entry, err := s.lookup(req.Context(), sr.Topology)
	if err != nil {
		s.fail(w, err)
		return
	}
	alpha := entry.Det.Alpha()
	if sr.Alpha != 0 {
		if sr.Alpha < 0 {
			s.fail(w, fmt.Errorf("%w: negative alpha %g", ErrBadRequest, sr.Alpha))
			return
		}
		alpha = sr.Alpha
	}
	now := s.clock.Now()
	ss := &session{
		id:      s.sessions.nextID(),
		topo:    entry.Name,
		created: now,
		sys:     entry.Sys,
		digest:  entry.Digest,
		alpha:   alpha,
		last:    now,
	}
	s.sessions.add(ss)
	s.metrics.SessionsOpened.Add(1)
	resp := SessionResponse{
		Session:  ss.id,
		Topology: ss.topo,
		Digest:   ss.digest,
		Alpha:    alpha,
		NumLinks: entry.Sys.NumLinks(),
		NumPaths: entry.Sys.NumPaths(),
	}
	if s.idle >= 0 {
		resp.IdleTimeoutSeconds = s.idle.Seconds()
	}
	s.writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, req *http.Request) {
	ss, err := s.getSession(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	ss.mu.Lock()
	resp := SessionStatusResponse{
		Session:       ss.id,
		Topology:      ss.topo,
		Digest:        ss.digest,
		Alpha:         ss.alpha,
		NumPaths:      ss.sys.NumPaths(),
		Rounds:        ss.rounds,
		Alarms:        ss.alarms,
		PathMutations: ss.mutations,
	}
	ss.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, req *http.Request) {
	ss, err := s.sessions.remove(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	s.metrics.SessionsClosed.Add(1)
	ss.mu.Lock()
	resp := SessionCloseResponse{Session: ss.id, Rounds: ss.rounds, Alarms: ss.alarms}
	ss.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSessionRounds is the streaming hot path: NDJSON batches in,
// NDJSON verdicts out, flushed per batch. Backpressure is explicit: the
// whole stream runs on one worker slot acquired non-blockingly, and a
// full pool sheds the request with 429 before any stream bytes are
// written — a client can retry immediately against another slot instead
// of queueing behind an unbounded stream.
func (s *Server) handleSessionRounds(w http.ResponseWriter, req *http.Request) {
	ss, err := s.getSession(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := ss.begin(s.clock.Now()); err != nil {
		s.fail(w, err)
		return
	}
	defer func() { ss.end(s.clock.Now()) }()
	ctx, cancel := s.requestContext(req)
	defer cancel()
	err = s.pool.TryDo(func() error {
		s.streamRounds(ctx, w, req, ss)
		return nil
	})
	if err != nil {
		// ErrBusy: nothing has been written yet, a clean 429 goes out.
		s.metrics.ReqBusy.Add(1)
		s.fail(w, err)
	}
}

// maxStreamLine caps one NDJSON request line.
const maxStreamLine = 4 << 20

func (s *Server) streamRounds(ctx context.Context, w http.ResponseWriter, req *http.Request, ss *session) {
	_, span := obs.StartSpan(ctx, "serve.stream_rounds")
	defer span.End()
	span.SetAttr("session", ss.id)
	rc := http.NewResponseController(w)
	// NDJSON in, NDJSON out on one request: without full duplex the
	// HTTP/1.x server closes an unconsumed request body as soon as the
	// response starts (half-duplex), killing the stream mid-flight.
	// HTTP/2 is always full duplex; there the call is a no-op.
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers out before blocking on input: interactive clients
	// see the 200 (and can start writing rounds) immediately.
	_ = rc.Flush()
	req.Body = http.MaxBytesReader(w, req.Body, s.maxBody)

	st := s.newRoundStream(ctx, ss, w)
	// Every exit folds the rounds already served into the session and
	// the metrics, so the server's count never falls behind the
	// verdicts a client has seen.
	defer st.finish()
	sc := bufio.NewScanner(req.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)

	fail := func(err error) {
		s.metrics.ReqErrors.Add(1)
		st.writeLine(StreamError{Round: st.rounds, Error: err.Error()})
		_ = rc.Flush()
	}
	// Verdicts are flushed once per input line, not once per verdict: a
	// client waiting on the rounds it just sent still sees them as soon
	// as the batch is solved, but a 100-round batch costs one socket
	// flush instead of 100 — the flush-per-verdict version spent more
	// time in syscalls than in the solver.
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := st.line(ctx, line); err != nil {
			if !errors.Is(err, errClientGone) {
				fail(err)
			}
			return
		}
		_ = rc.Flush()
	}
	if err := sc.Err(); err != nil {
		fail(fmt.Errorf("%w: reading stream: %v", ErrBadRequest, err))
		return
	}
	st.writeLine(StreamSummary{Done: true, Rounds: st.rounds, Alarms: st.alarms})
	_ = rc.Flush()
}

// errClientGone reports a verdict write that failed: the client went
// away mid-stream, and nothing more can be said to it.
var errClientGone = errors.New("serve: stream client gone")

// roundStream is one round-stream request's state: the workspaces its
// lines decode, solve and encode into, and its round and alarm counts.
// The workspaces grow to the request's largest line and are reused by
// every later line, so a warm line allocates nothing; they die with the
// request.
type roundStream struct {
	s       *Server
	ss      *session
	w       io.Writer
	enc     *json.Encoder // reflective fallback, made on first use
	reqID   string
	traceID int64

	dec     roundDecoder
	xflat   []float64   // estimates, row-major
	xs      []la.Vector // views into xflat
	res     la.Vector   // residual of the round being judged
	verdict StreamVerdict
	vbuf    []byte // encoded verdict

	rounds, alarms int
}

func (s *Server) newRoundStream(ctx context.Context, ss *session, w io.Writer) *roundStream {
	return &roundStream{
		s:       s,
		ss:      ss,
		w:       w,
		reqID:   obs.RequestID(ctx),
		traceID: obs.TraceID(ctx),
	}
}

// line serves one request line: decode, estimate the batch, then per
// round the residual, the Eq. 23 verdict, forensics ingest and the
// verdict line. An error ends the stream; errClientGone means the
// verdict could not be written.
func (st *roundStream) line(ctx context.Context, line []byte) error {
	s, ss := st.s, st.ss
	if err := st.dec.parse(line); err != nil {
		return err
	}
	sys, digest, alpha, closed := ss.snapshot()
	if closed {
		return fmt.Errorf("%w: session %s closed mid-stream", ErrGone, ss.id)
	}
	// Bind the topology's observatory per line: a path mutation that
	// changed the session digest resets attribution and bumps the
	// epoch at the next batch boundary; otherwise this is a map
	// lookup plus a string compare.
	var fo *forensics.Observatory
	if s.forensics != nil {
		fo = s.forensics.Bind(ss.topo, digest, sys.CSR(), alpha)
	}
	ys, err := st.dec.batch(sys.NumPaths())
	if err != nil {
		return err
	}
	xs := st.estimates(len(ys), sys.NumLinks())
	t0 := s.clock.Now()
	if err := sys.EstimateBatchInto(ctx, xs, ys); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	perRound := s.clock.Now().Sub(t0) / time.Duration(len(ys))
	if cap(st.res) < sys.NumPaths() {
		st.res = make(la.Vector, sys.NumPaths())
	}
	res := st.res[:sys.NumPaths()]
	for i, xhat := range xs {
		if err := sys.ResidualInto(res, xhat, ys[i]); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		// The paper's consistency check (Eq. 23), strict like
		// detect.Inspect: alarm iff ‖R·x̂ − y‖₁ > α.
		rn := res.Norm1()
		detected := rn > alpha
		if detected {
			st.alarms++
		}
		s.metrics.RoundLatency.ObserveDuration(perRound)
		if fo != nil {
			// Ingest reads the residual and keeps none of it, so the
			// buffer is free for the next round.
			fo.Ingest(forensics.Round{
				Req:      st.reqID,
				Seq:      st.rounds,
				TraceID:  st.traceID,
				Detected: detected,
				Norm:     rn,
				Residual: res,
			})
		}
		v := &st.verdict
		*v = StreamVerdict{Round: st.rounds, Detected: detected, ResidualNorm: rn}
		if st.dec.xhat {
			v.XHat = xhat
		}
		if !st.writeVerdict(v) {
			return errClientGone
		}
		st.rounds++
	}
	return nil
}

// estimates returns n estimate buffers of length links, views into one
// reused slice.
func (st *roundStream) estimates(n, links int) []la.Vector {
	if cap(st.xflat) < n*links {
		st.xflat = make([]float64, n*links)
	}
	st.xs = st.xs[:0]
	for r := 0; r < n; r++ {
		st.xs = append(st.xs, st.xflat[r*links:(r+1)*links:(r+1)*links])
	}
	return st.xs
}

// writeVerdict writes v through the hand-rolled encoder (byte-identical
// output, no reflection walk); non-finite values fall back to
// encoding/json so they fail exactly as before.
func (st *roundStream) writeVerdict(v *StreamVerdict) bool {
	b, ok := appendStreamVerdict(st.vbuf[:0], v)
	st.vbuf = b[:0]
	if !ok {
		return st.writeLine(v)
	}
	_, err := st.w.Write(b)
	return err == nil
}

func (st *roundStream) writeLine(v any) bool {
	if st.enc == nil {
		st.enc = json.NewEncoder(st.w)
	}
	return st.enc.Encode(v) == nil
}

// finish folds the stream's accounting into the session and the daemon
// metrics.
func (st *roundStream) finish() {
	ss := st.ss
	ss.mu.Lock()
	ss.rounds += int64(st.rounds)
	ss.alarms += int64(st.alarms)
	ss.mu.Unlock()
	if st.rounds > 0 || st.alarms > 0 {
		st.s.metrics.SessionRounds.Add(int64(st.rounds))
		st.s.metrics.SessionAlarms.Add(int64(st.alarms))
	}
}

func (s *Server) handleSessionPaths(w http.ResponseWriter, req *http.Request) {
	ss, err := s.getSession(req.PathValue("id"))
	if err != nil {
		s.fail(w, err)
		return
	}
	var pr SessionPathsRequest
	if !s.decode(w, req, &pr) {
		return
	}
	if (pr.Add == nil) == (pr.Remove == nil) {
		s.fail(w, fmt.Errorf("%w: provide exactly one of add and remove", ErrBadRequest))
		return
	}
	if !ss.touch(s.clock.Now()) {
		s.fail(w, fmt.Errorf("%w: session %s closed", ErrGone, ss.id))
		return
	}
	ctx, cancel := s.requestContext(req)
	defer cancel()
	var resp SessionPathsResponse
	err = s.pool.Do(ctx, func() error {
		// The session mutex is held across the whole derivation: path
		// mutations serialize against each other, and a concurrent round
		// stream keeps serving its current snapshot until the next batch
		// boundary.
		ss.mu.Lock()
		defer ss.mu.Unlock()
		if ss.closed {
			return fmt.Errorf("%w: session %s closed", ErrGone, ss.id)
		}
		var (
			ns   *tomo.System
			info tomo.PathUpdateInfo
			err  error
		)
		if pr.Add != nil {
			p, werr := walkPath(ss.sys.Graph(), pr.Add)
			if werr != nil {
				return werr
			}
			ns, info, err = ss.sys.AddPathCtx(ctx, p)
		} else {
			i := *pr.Remove
			ns, info, err = ss.sys.RemovePathCtx(ctx, i)
		}
		if err != nil {
			if errors.Is(err, tomo.ErrNotIdentifiable) {
				return err
			}
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		ss.sys = ns
		ss.digest = ns.Digest()
		ss.mutations++
		s.metrics.PathMutations.With(info.Method).Add(1)
		resp = SessionPathsResponse{
			Session:  ss.id,
			NumPaths: ns.NumPaths(),
			Digest:   ss.digest,
			Method:   info.Method,
		}
		return nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// getSession resolves a session ID, lazily expiring a session whose
// idle timeout has already elapsed (the periodic reaper is the
// belt; this is the suspenders).
func (s *Server) getSession(id string) (*session, error) {
	ss, err := s.sessions.get(id)
	if err != nil {
		return nil, err
	}
	if s.idle >= 0 {
		now := s.clock.Now()
		ss.mu.Lock()
		expired := ss.inFlight == 0 && !ss.closed && now.Sub(ss.last) > s.idle
		if expired {
			ss.closed = true
		}
		ss.mu.Unlock()
		if expired {
			s.sessions.mu.Lock()
			delete(s.sessions.m, id)
			s.sessions.mu.Unlock()
			s.metrics.SessionsReaped.Add(1)
			return nil, fmt.Errorf("%w: session %q idle past %v", ErrGone, id, s.idle)
		}
	}
	return ss, nil
}

// walkPath resolves a node-name walk against the session's topology,
// exactly like the registration wire format does.
func walkPath(g *graph.Graph, names []string) (graph.Path, error) {
	if len(names) < 2 {
		return graph.Path{}, fmt.Errorf("%w: path has %d nodes, want ≥ 2", ErrBadRequest, len(names))
	}
	var p graph.Path
	for i, n := range names {
		v, ok := g.NodeByName(n)
		if !ok {
			return graph.Path{}, fmt.Errorf("%w: unknown node %q", ErrBadRequest, n)
		}
		p.Nodes = append(p.Nodes, v)
		if i > 0 {
			l, ok := g.LinkBetween(p.Nodes[i-1], v)
			if !ok {
				return graph.Path{}, fmt.Errorf("%w: no link %q–%q", ErrBadRequest, names[i-1], n)
			}
			p.Links = append(p.Links, l)
		}
	}
	return p, nil
}
