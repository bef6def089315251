package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A round span is the parent of the algo spans of that
// round; fl.eval spans follow the round they evaluate.
const (
	spanRound       = "round"
	spanBroadcast   = "algo.broadcast"
	spanLocalUpdate = "algo.local_update"
	spanCollect     = "algo.collect"
	spanFinishRound = "algo.finish_round"
	spanEval        = "fl.eval"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the interface. Times are nanoseconds on the tracer's
// monotonic clock, so spans of one process order across goroutines and
// across the loopback socket.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Parent names the enclosing span; with Round it identifies it
	// ("" for a round span, which is a root).
	Parent string `json:"parent,omitempty"`
	Round  int    `json:"round"`
	Client int    `json:"client"` // -1 when the span is not per client
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }
func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory; nothing is written until the run ends.
// It can be switched on and off between rounds, which is how a traced
// run measures its own overhead: alternate rounds are recorded.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is nanoseconds since the tracer was created.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// enabled is nil-safe so decorators built without a tracer cost one
// branch per call.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the recorded spans with the given name, in recording
// order.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line. With appendTo set the file is
// extended (the all-workloads command collects its children's spans in
// one file); otherwise it is replaced.
func (t *tracer) writeJSONL(path, workload string, appendTo bool) error {
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
