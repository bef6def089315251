package telemetry

import (
	"sync"
	"time"
)

// Tracer hands out lightweight spans. A span is a named monotonic
// timing scope: End records the elapsed nanoseconds into the registry
// histogram "span.<name>.ns" (DurationBounds buckets). Spans nest —
// Child opens a sub-span sharing the parent's trace ID — and are
// pooled, so steady-state tracing allocates nothing and costs a couple
// of clock reads plus a few atomic adds per span: cheap enough to
// leave on inside benchmarked round loops.
//
// A nil *Tracer (and the nil *Span it returns) disables tracing with a
// single branch per call site.
type Tracer struct {
	reg    *Registry
	hists  sync.Map // span name -> *Histogram, avoids per-start concat
	active Gauge
	pool   sync.Pool
}

// NewTracer builds a tracer recording into reg and exposes the live
// span count as the gauge "trace.active_spans".
func NewTracer(reg *Registry) *Tracer {
	t := &Tracer{reg: reg}
	t.pool.New = func() any { return new(Span) }
	reg.AttachGauge("trace.active_spans", &t.active)
	return t
}

// histFor resolves (and caches) the duration histogram for one span
// name, so Start never builds a "span."+name string on the hot path.
func (t *Tracer) histFor(name string) *Histogram {
	if h, ok := t.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h := t.reg.Histogram("span."+name+".ns", DurationBounds)
	t.hists.Store(name, h)
	return h
}

// Start opens a root span under the given trace ID. By convention FL
// code uses round+1 as the trace ID so round 0 is distinguishable from
// "no trace". Nil-safe.
func (t *Tracer) Start(trace uint64, name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(trace, name, nil)
}

func (t *Tracer) start(trace uint64, name string, parent *Span) *Span {
	sp := t.pool.Get().(*Span)
	sp.tracer = t
	sp.name = name
	sp.trace = trace
	sp.parent = parent
	sp.hist = t.histFor(name)
	t.active.Add(1)
	sp.start = time.Now() // last: exclude setup from the measured window
	return sp
}

// Span is one open timing scope. Spans are owned by a single
// goroutine; End at most once.
type Span struct {
	tracer *Tracer
	hist   *Histogram
	parent *Span
	name   string
	trace  uint64
	start  time.Time
}

// Child opens a nested span under the same trace ID. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s.trace, name, s)
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Parent returns the enclosing span (nil for roots).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// End closes the span, records its duration and returns the elapsed
// nanoseconds (0 for a nil or already-ended span). The span is
// recycled; the pointer must not be used afterwards.
func (s *Span) End() int64 {
	if s == nil || s.tracer == nil {
		return 0
	}
	d := time.Since(s.start).Nanoseconds()
	s.hist.Observe(d)
	t := s.tracer
	t.active.Add(-1)
	*s = Span{}
	t.pool.Put(s)
	return d
}
