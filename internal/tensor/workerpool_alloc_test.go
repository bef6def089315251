//go:build !race

// Under the race detector sync.WaitGroup and the channel operations record
// shadow state, so an allocation count means nothing.

package tensor

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// TestParallelDispatchAllocatesNothing counts, never times, regions that
// are dispatched to the worker pool — GOMAXPROCS 2, an idle pool, a
// function value bound once — where each region used to allocate its job.
// AllocsPerRun cannot see a dispatch (it sets GOMAXPROCS 1), so the gate
// reads runtime.MemStats.Mallocs itself, with the collector off, and takes
// the fewest objects any of five batches allocated: another goroutine's
// allocation can land in one batch, an allocating dispatch in every one.
func TestParallelDispatchAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	marks := make([]int32, 64)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i]++
		}
	}
	batch := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			Parallel(len(marks), fn)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	batch() // warm: the pool, its slots and the runtime's wait queues
	jobs := poolJobCount.Load()
	var counts []uint64
	for range 5 {
		counts = append(counts, batch())
	}
	// A helper leaving a region body can still count as busy when the next
	// region starts, which then runs inline; most regions must dispatch.
	if d := poolJobCount.Load() - jobs; d < 450 {
		t.Fatalf("%d of 500 regions were dispatched: the pool was not idle", d)
	}
	for i, m := range marks {
		if m != 600 {
			t.Fatalf("index %d visited %d times, want 600", i, m)
		}
	}
	if slices.Min(counts) != 0 {
		t.Fatalf("every batch of 100 dispatched regions allocated: %v objects", counts)
	}
}
