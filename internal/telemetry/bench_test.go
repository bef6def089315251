package telemetry

import (
	"io"
	"testing"
)

// The telemetry-overhead benchmarks: these per-op costs, multiplied by
// the handful of telemetry operations a round performs, are what the
// 1%-of-a-round overhead contract rests on; the end-to-end number is
// the benchmark's telemetry.overhead_frac.

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DurationBounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkRegistryCounterLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench").Inc()
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(NewRegistry())
	tr.Start(1, "bench").End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(1, "bench").End()
	}
}

func BenchmarkSpanStartEndDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(1, "bench").End()
	}
}

func BenchmarkJournalEmit(b *testing.B) {
	j := NewJournal(io.Discard)
	j.SetZeroTime(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Emit(ClientUpload(i, 3, 4096, 100))
	}
}
