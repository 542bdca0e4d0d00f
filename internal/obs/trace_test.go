package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fakeTracer(capacity int) *Tracer {
	return NewTracer(NewFakeClock(time.Unix(1700000000, 0), time.Microsecond), capacity)
}

func TestTraceSpanTreeAndDump(t *testing.T) {
	tr := fakeTracer(8)
	ctx, root := tr.StartRoot(context.Background(), "http.estimate")
	root.SetAttr("req_id", "req-00000001")
	ctx2, child := StartSpan(ctx, "tomo.solve")
	child.SetInt("paths", 4)
	_, grand := StartSpan(ctx2, "la.factor_normal")
	grand.End()
	child.End()
	root.End()

	dumps := tr.Dump(0)
	if len(dumps) != 1 {
		t.Fatalf("got %d traces, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Root.Name != "http.estimate" || d.Root.Attrs["req_id"] != "req-00000001" {
		t.Fatalf("bad root: %+v", d.Root)
	}
	if len(d.Root.Children) != 1 || d.Root.Children[0].Name != "tomo.solve" {
		t.Fatalf("bad children: %+v", d.Root.Children)
	}
	solve := d.Root.Children[0]
	if solve.Attrs["paths"] != "4" {
		t.Fatalf("missing attr: %+v", solve.Attrs)
	}
	if len(solve.Children) != 1 || solve.Children[0].Name != "la.factor_normal" {
		t.Fatalf("bad grandchildren: %+v", solve.Children)
	}
	// FakeClock steps 1µs per Now() call: root@0, child@1, grand@2,
	// grand ends@3, child ends@4, root ends@5.
	if solve.StartUS != 1 || solve.DurUS != 3 {
		t.Fatalf("solve timing start=%d dur=%d, want 1/3", solve.StartUS, solve.DurUS)
	}
	if d.DurUS != 5 {
		t.Fatalf("trace duration %d, want 5", d.DurUS)
	}
	// JSON dumps are deterministic (map attrs sorted by encoding/json).
	j1, _ := json.Marshal(dumps)
	j2, _ := json.Marshal(tr.Dump(0))
	if string(j1) != string(j2) {
		t.Fatal("trace JSON not deterministic")
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := fakeTracer(2)
	for i := 0; i < 5; i++ {
		_, root := tr.StartRoot(context.Background(), "op")
		root.End()
	}
	dumps := tr.Dump(0)
	if len(dumps) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(dumps))
	}
	if dumps[0].ID != 4 || dumps[1].ID != 5 {
		t.Fatalf("ring kept IDs %d,%d, want 4,5 (oldest first)", dumps[0].ID, dumps[1].ID)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	if got := tr.Dump(1); len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("Dump(1) = %+v, want just ID 5", got)
	}
}

func TestTraceRingWraparoundBoundary(t *testing.T) {
	// Fill to exactly capacity: nothing evicted.
	tr := fakeTracer(4)
	for i := 0; i < 4; i++ {
		_, root := tr.StartRoot(context.Background(), "op")
		root.End()
	}
	if got := tr.Dump(0); len(got) != 4 || tr.Dropped() != 0 {
		t.Fatalf("at capacity: %d traces, %d dropped, want 4/0", len(got), tr.Dropped())
	}
	// One past capacity: exactly the oldest goes.
	_, root := tr.StartRoot(context.Background(), "op")
	root.End()
	dumps := tr.Dump(0)
	if len(dumps) != 4 || tr.Dropped() != 1 {
		t.Fatalf("past capacity: %d traces, %d dropped, want 4/1", len(dumps), tr.Dropped())
	}
	for i, d := range dumps {
		if want := int64(i + 2); d.ID != want {
			t.Fatalf("slot %d holds ID %d, want %d (IDs 2..5 oldest first)", i, d.ID, want)
		}
	}
	// Wrap several more times; order stays oldest-first and contiguous.
	for i := 0; i < 10; i++ {
		_, r := tr.StartRoot(context.Background(), "op")
		r.End()
	}
	dumps = tr.Dump(0)
	if len(dumps) != 4 || tr.Dropped() != 11 {
		t.Fatalf("after wrap: %d traces, %d dropped, want 4/11", len(dumps), tr.Dropped())
	}
	for i, d := range dumps {
		if want := int64(i + 12); d.ID != want {
			t.Fatalf("after wrap slot %d holds ID %d, want %d", i, d.ID, want)
		}
	}
	// Dump(n) slicing at the boundary: n == len, n > len, n == 1.
	if got := tr.Dump(4); len(got) != 4 {
		t.Fatalf("Dump(4) = %d traces", len(got))
	}
	if got := tr.Dump(100); len(got) != 4 {
		t.Fatalf("Dump(100) = %d traces", len(got))
	}
	if got := tr.Dump(1); len(got) != 1 || got[0].ID != 15 {
		t.Fatalf("Dump(1) = %+v, want newest ID 15", got)
	}
}

// TestTraceRingConcurrentDumpNoTornSpans drives completions past the
// ring capacity from many goroutines while another drains /debug/traces
// style dumps, asserting every served trace is whole: IDs strictly
// increasing oldest-first, never more than capacity, and every root span
// ended (a torn span would dump with DurUS 0 — only completed traces may
// be committed). Run with -race.
func TestTraceRingConcurrentDumpNoTornSpans(t *testing.T) {
	tr := fakeTracer(8)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var tornErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, d := range tr.Dump(0) {
				if d.DurUS < 1 {
					tornErr.Store(fmt.Sprintf("trace %d served torn: DurUS=%d", d.ID, d.DurUS))
				}
				if len(d.Root.Children) != 1 || d.Root.Children[0].DurUS < 1 {
					tornErr.Store(fmt.Sprintf("trace %d served with torn child: %+v", d.ID, d.Root.Children))
				}
			}
			dumps := tr.Dump(0)
			if len(dumps) > 8 {
				tornErr.Store(fmt.Sprintf("dump exceeded capacity: %d", len(dumps)))
			}
			// Dump is in commit order: consecutive commit numbers, each
			// trace ID appearing once.
			ids := make(map[int64]bool, len(dumps))
			for i, d := range dumps {
				if ids[d.ID] {
					tornErr.Store(fmt.Sprintf("trace ID %d dumped twice", d.ID))
				}
				ids[d.ID] = true
				if i > 0 && d.Commit != dumps[i-1].Commit+1 {
					tornErr.Store(fmt.Sprintf("dump not in commit order: commit %d then %d", dumps[i-1].Commit, d.Commit))
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ctx, root := tr.StartRoot(context.Background(), "op")
				_, child := StartSpan(ctx, "child")
				child.SetAttr("k", "v")
				child.End()
				root.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish quickly; give the dumper its stop signal once all
	// traces are committed.
	for tr.Dropped() < int64(writers*perWriter-8) {
		runtime.Gosched()
	}
	close(stop)
	<-done
	if msg := tornErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	dumps := tr.Dump(0)
	if len(dumps) != 8 || tr.Dropped() != int64(writers*perWriter-8) {
		t.Fatalf("final ring: %d traces, %d dropped, want 8/%d",
			len(dumps), tr.Dropped(), writers*perWriter-8)
	}
}

func TestNilSpanSafety(t *testing.T) {
	// Instrumented library code must run unchanged with no active trace.
	ctx, span := StartSpan(context.Background(), "anything")
	if span != nil {
		t.Fatal("StartSpan without a root should return nil span")
	}
	span.SetAttr("k", "v")
	span.SetInt("n", 1)
	span.SetBool("b", true)
	span.SetFloat("f", 1.5)
	if span.NewChild("child") != nil {
		t.Fatal("nil span NewChild should be nil")
	}
	span.End()
	if span.Duration() != 0 {
		t.Fatal("nil span duration should be 0")
	}
	if span.Context(ctx) != ctx {
		t.Fatal("nil span Context should return ctx unchanged")
	}
	// Untraced callers pay nothing for annotations: the typed setters
	// return before formatting their value.
	if allocs := testing.AllocsPerRun(10, func() {
		span.SetInt("n", 1)
		span.SetBool("b", true)
		span.SetFloat("f", 1.5)
	}); allocs != 0 {
		t.Fatalf("nil span setters allocate %.0f times per call set, want 0", allocs)
	}
}

func TestSpanEndIdempotentAndHook(t *testing.T) {
	tr := fakeTracer(4)
	var names []string
	var durs []time.Duration
	tr.OnSpanEnd(func(name string, d time.Duration) {
		names = append(names, name)
		durs = append(durs, d)
	})
	ctx, root := tr.StartRoot(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	child.End()
	child.End() // idempotent: no second hook call, no duration change
	d := child.Duration()
	root.End()
	if child.Duration() != d {
		t.Fatal("End not idempotent on duration")
	}
	if len(names) != 2 || names[0] != "child" || names[1] != "root" {
		t.Fatalf("hook calls = %v, want [child root]", names)
	}
	if durs[0] != time.Microsecond {
		t.Fatalf("child duration %v, want 1µs", durs[0])
	}
	if len(tr.Dump(0)) != 1 {
		t.Fatal("double End must not commit the trace twice")
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context should have no request ID")
	}
	ctx = WithRequestID(ctx, "req-42")
	if RequestID(ctx) != "req-42" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "error": "ERROR", "": "INFO",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
}

func TestDiscardLogger(t *testing.T) {
	log := DiscardLogger()
	log.Info("dropped", "k", "v") // must not panic
	if log.Enabled(context.Background(), 0) {
		t.Fatal("discard logger should report disabled")
	}
}
