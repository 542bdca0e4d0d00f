package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Clock abstracts time for the tracer so tests can inject a
// deterministic clock and golden-compare whole traces byte-for-byte.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// FakeClock is a deterministic clock: every Now() call returns the
// current instant and then advances by a fixed step. With a fixed call
// pattern (sequential requests, one span tree per request) the span
// timestamps — and therefore the /debug/traces JSON — are a pure
// function of the request sequence.
type FakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

// NewFakeClock starts at start and advances by step per Now() call.
func NewFakeClock(start time.Time, step time.Duration) *FakeClock {
	return &FakeClock{now: start, step: step}
}

// Now returns the current fake instant and advances the clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// DefaultTraceCapacity bounds the completed-trace ring buffer.
const DefaultTraceCapacity = 64

// Tracer collects completed traces into a bounded ring buffer and
// optionally reports span durations to a hook (the daemon feeds its
// per-stage latency histograms this way). Safe for concurrent use.
type Tracer struct {
	clock Clock

	mu      sync.Mutex
	ring    []*trace
	cap     int
	seq     int64 // trace IDs, taken at StartRoot
	commits int64 // commit sequence, taken when a root span ends
	dropped int64
	hook    func(name string, d time.Duration)
}

// NewTracer builds a tracer over clock (nil selects WallClock) keeping
// the last capacity completed traces (<=0 selects
// DefaultTraceCapacity).
func NewTracer(clock Clock, capacity int) *Tracer {
	if clock == nil {
		clock = WallClock()
	}
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clock: clock, cap: capacity}
}

// Clock returns the tracer's clock, so callers timing work outside
// spans (uptime, handler latency) stay on the same timeline.
func (t *Tracer) Clock() Clock { return t.clock }

// OnSpanEnd installs a hook called with every finished span's name and
// duration. Install before serving; the hook must be fast and
// concurrency-safe.
func (t *Tracer) OnSpanEnd(fn func(name string, d time.Duration)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = fn
}

// Capacity returns the ring-buffer size.
func (t *Tracer) Capacity() int { return t.cap }

// Dropped returns how many completed traces the ring has evicted.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// trace is one request's span tree, completed when its root span ends.
// Concurrent requests end in any order, so the ring holds traces in
// commit order, numbered by commit under the ring lock; the ID, taken
// at StartRoot, only identifies the trace.
type trace struct {
	id     int64
	commit int64
	root   *Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed operation inside a trace. All methods are safe on a
// nil receiver, so instrumented code never has to check whether tracing
// is active: StartSpan on a context with no active trace returns a nil
// span and the instrumentation costs two pointer checks.
type Span struct {
	tracer *Tracer
	trace  *trace
	name   string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	ended    bool
	attrs    []Attr
	children []*Span
}

type spanKey struct{}

// StartRoot begins a new trace rooted at a span called name and returns
// a context carrying it. Ending the root span completes the trace and
// commits it to the ring buffer.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	s := &Span{tracer: t, name: name, start: t.clock.Now()}
	s.trace = &trace{id: id, root: s}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan begins a child of the span carried by ctx. When ctx has no
// active span the returned span is nil (and safe to use); the context
// is returned unchanged.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	child := parent.NewChild(name)
	return context.WithValue(ctx, spanKey{}, child), child
}

// TraceID returns the ID of the trace the active span on ctx belongs
// to, or 0 when no trace is active. The ID is what /debug/traces dumps,
// so forensic exemplars can link an alarm back to its replayable
// request trace.
func TraceID(ctx context.Context) int64 {
	s, _ := ctx.Value(spanKey{}).(*Span)
	if s == nil {
		return 0
	}
	return s.trace.id
}

// NewChild starts a child span without touching a context — for code
// that fans out to goroutines and wants to attach children in a
// deterministic order (the mc trial pool creates per-trial spans in the
// dispatch goroutine).
func (s *Span) NewChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tracer: s.tracer, trace: s.trace, name: name, start: s.tracer.clock.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// Context returns ctx with s as the active span (pairs with NewChild).
func (s *Span) Context(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%t", v))
}

// SetFloat annotates the span with a quantized float (%.6f), so span
// attributes survive cross-platform floating-point noise in golden
// comparisons.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%.6f", v))
}

// End finishes the span (idempotent). Ending a root span commits the
// trace to the tracer's ring buffer.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tracer.clock.Now()
	d := s.end.Sub(s.start)
	isRoot := s.trace.root == s
	s.mu.Unlock()

	s.tracer.mu.Lock()
	hook := s.tracer.hook
	if isRoot {
		s.tracer.commits++
		s.trace.commit = s.tracer.commits
		s.tracer.ring = append(s.tracer.ring, s.trace)
		if len(s.tracer.ring) > s.tracer.cap {
			over := len(s.tracer.ring) - s.tracer.cap
			s.tracer.ring = append(s.tracer.ring[:0:0], s.tracer.ring[over:]...)
			s.tracer.dropped += int64(over)
		}
	}
	s.tracer.mu.Unlock()
	if hook != nil {
		hook(s.name, d)
	}
}

// Duration returns end−start for an ended span, 0 otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// --- JSON dump ----------------------------------------------------------

// SpanDump is the JSON form of one span: timestamps as microsecond
// offsets from the trace root, attributes as a map (encoding/json sorts
// map keys, keeping dumps deterministic).
type SpanDump struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"startUs"`
	DurUS    int64             `json:"durUs"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanDump        `json:"children,omitempty"`
}

// TraceDump is the JSON form of one completed trace. Commit is its
// position in commit order, for in-process callers; it is not part of
// the JSON.
type TraceDump struct {
	ID     int64    `json:"id"`
	DurUS  int64    `json:"durUs"`
	Root   SpanDump `json:"root"`
	Commit int64    `json:"-"`
}

// Dump returns the last n completed traces in commit order — the order
// their root spans ended, oldest first (n <= 0 means all retained
// traces). IDs are unique but, under concurrency, need not increase.
func (t *Tracer) Dump(n int) []TraceDump {
	t.mu.Lock()
	ring := append([]*trace{}, t.ring...)
	t.mu.Unlock()
	if n > 0 && len(ring) > n {
		ring = ring[len(ring)-n:]
	}
	out := make([]TraceDump, len(ring))
	for i, tr := range ring {
		root := tr.root.dump(tr.root.start)
		out[i] = TraceDump{ID: tr.id, DurUS: root.DurUS, Root: root, Commit: tr.commit}
	}
	return out
}

func (s *Span) dump(epoch time.Time) SpanDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanDump{
		Name:    s.name,
		StartUS: s.start.Sub(epoch).Microseconds(),
	}
	if s.ended {
		d.DurUS = s.end.Sub(s.start).Microseconds()
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.dump(epoch))
	}
	return d
}
