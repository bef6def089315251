package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestSpanRecordsIntoRegistry(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	sp := tr.Start(7, "train")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < int64(time.Millisecond) {
		t.Fatalf("span duration %dns, want ≥ 1ms", d)
	}
	h := reg.Histogram("span.train.ns", DurationBounds)
	if h.Count() != 1 || h.Sum() != d {
		t.Fatalf("histogram count=%d sum=%d, want 1/%d", h.Count(), h.Sum(), d)
	}
}

func TestSpanNesting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	root := tr.Start(3, "round")
	child := root.Child("train")
	grand := child.Child("encode")
	if grand.TraceID() != 3 || child.TraceID() != 3 {
		t.Fatalf("children must inherit the trace ID, got %d/%d", child.TraceID(), grand.TraceID())
	}
	if grand.Parent() != child || child.Parent() != root || root.Parent() != nil {
		t.Fatal("parent chain broken")
	}
	if reg.Gauge("trace.active_spans") == nil {
		t.Fatal("active span gauge not registered")
	}
	if got := reg.Snapshot().Gauges["trace.active_spans"]; got != 3 {
		t.Fatalf("active spans %d, want 3", got)
	}
	grand.End()
	child.End()
	root.End()
	if got := reg.Snapshot().Gauges["trace.active_spans"]; got != 0 {
		t.Fatalf("active spans after End %d, want 0", got)
	}
	for _, name := range []string{"span.round.ns", "span.train.ns", "span.encode.ns"} {
		if reg.Histogram(name, DurationBounds).Count() != 1 {
			t.Fatalf("%s not recorded", name)
		}
	}
}

// TestSpanConcurrent exercises the span pool from many goroutines
// (run under -race).
func TestSpanConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Start(uint64(i), "hot")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := reg.Histogram("span.hot.ns", DurationBounds).Count(); got != workers*per {
		t.Fatalf("span count %d, want %d", got, workers*per)
	}
}

// TestSpanSteadyStateAllocs: pooled spans must not allocate once warm,
// which is what makes leaving tracing on in benchmarks viable.
func TestSpanSteadyStateAllocs(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg)
	tr.Start(1, "warm").End() // warm the name cache and pool
	allocs := testing.AllocsPerRun(200, func() {
		tr.Start(1, "warm").End()
	})
	if allocs > 0 {
		t.Fatalf("steady-state span costs %.1f allocs/op, want 0", allocs)
	}
}

// TraceID returns the span's trace ID (0 for a nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}
