//go:build !race

package telemetry

import "testing"

// TestEmitWithoutJournalAllocatesNothing: a round loop emits an event
// per straggler whether or not a journal is attached, so the journal's
// cost must fall on a real journal only. A Set with a registry and no
// journal, and a nil *Journal, take an event without a heap allocation.
// Counts, not times; built without -race, under which the detector's
// instrumentation may allocate.
func TestEmitWithoutJournalAllocatesNothing(t *testing.T) {
	set := &Set{Reg: NewRegistry()}
	var nilJournal *Journal
	ev := LateUpload(3, 41, 29_000)
	for _, tc := range []struct {
		name string
		emit func()
	}{
		{"set without journal", func() { set.Emit(ev) }},
		{"nil journal", func() { nilJournal.Emit(ev) }},
	} {
		if n := testing.AllocsPerRun(200, tc.emit); n != 0 {
			t.Errorf("%s: Emit allocates %v objects per call, want 0", tc.name, n)
		}
	}
}
