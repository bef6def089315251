package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef names one metric of BENCHMARK.json. The tables below are
// the single definition: the program emits exactly these names, and
// check_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is measured with tracing off and defined, non-zero, on every
// workload. Bounds are the share of the parent's median by which a
// metric may worsen: about three times the spread seen over ten seeds
// on the 2-core box this was sized on, capped at the 0.25 a bound may
// be — which is where the three timings sit (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"uploads_per_s", "1/s", "higher", 0.25},
	{"up_mb_per_round", "MB", "lower", 0.05},
	{"down_mb_per_round", "MB", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_upload", "count", "lower", 0.05},
}

// card lists the accuracy-derived end-to-end rows. They exist only
// where a model is trained (conv_*), and a metric of BENCHMARK.json
// must exist and be non-zero on every workload, so they are printed on
// the card and compared by -compare with the absolute bounds below, and
// reach BENCHMARK.json as per-layer fl.* metrics (zero where undefined).
var card = []struct {
	metricDef
	AbsBound float64 // allowed worsening in the metric's own unit (0: use Bound)
}{
	{metricDef{"time_to_target_s", "s", "lower", 0.25}, 0},
	{metricDef{"rounds_to_target", "rounds", "lower", 0}, 2},
	{metricDef{"up_mb_to_target", "MB", "lower", 0.1}, 0},
	{metricDef{"final_acc", "fraction", "higher", 0}, 0.03},
}

var perLayer = []metricDef{
	{Name: "fl.round_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "fl.driver_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.client_parallel_eff", Unit: "fraction", Better: "higher"},
	{Name: "fl.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.pending_at_end", Unit: "count", Better: "lower"},
	{Name: "fl.time_to_target_s", Unit: "s", Better: "lower"},
	{Name: "fl.rounds_to_target", Unit: "rounds", Better: "lower"},
	{Name: "fl.up_mb_to_target", Unit: "MB", Better: "lower"},
	{Name: "fl.final_acc", Unit: "fraction", Better: "higher"},
	{Name: "fl.target_reached", Unit: "count", Better: "higher"},

	{Name: "algo.broadcast_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.local_update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "algo.local_update_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "algo.local_update_imbalance", Unit: "x", Better: "lower"},
	{Name: "algo.collect_us_p50", Unit: "us", Better: "lower"},
	{Name: "algo.collect_us_tail", Unit: "us", Better: "lower"},
	{Name: "algo.finish_round_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.upload_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "algo.staged_peak", Unit: "count", Better: "lower"},
	{Name: "algo.staged_overflow", Unit: "count", Better: "lower"},
	{Name: "algo.dropped", Unit: "count", Better: "lower"},

	{Name: "nn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.optim_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.steps_per_round", Unit: "count", Better: "lower"},
	{Name: "nn.samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "nn.step_share", Unit: "fraction", Better: "higher"},
	{Name: "nn.eval_forward_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_masked_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.im2col_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.col2im_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.vec_sgd_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.parallel_dispatch_us", Unit: "us", Better: "lower"},

	{Name: "data.batch_us", Unit: "us", Better: "lower"},
	{Name: "data.synth_s", Unit: "s", Better: "lower"},
	{Name: "models.build_ms", Unit: "ms", Better: "lower"},
	{Name: "models.state_into_us", Unit: "us", Better: "lower"},
	{Name: "models.set_state_us", Unit: "us", Better: "lower"},

	{Name: "comm.encode_dense_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.decode_dense_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.encode_sparse_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.decode_sparse_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "comm.scatter_add_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "flnet.down_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flnet.up_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "flnet.up_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "flnet.round_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "flnet.hello_ms", Unit: "ms", Better: "lower"},
	{Name: "flnet.shutdown_ms", Unit: "ms", Better: "lower"},
	{Name: "flnet.frame_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "flnet.wire_overhead_x", Unit: "x", Better: "lower"},
	{Name: "flnet.drops", Unit: "count", Better: "lower"},
	{Name: "flnet.errors", Unit: "count", Better: "lower"},
	{Name: "flnet.late_uploads", Unit: "count", Better: "lower"},

	{Name: "prune.select_ms", Unit: "ms", Better: "lower"},
	{Name: "rl.agent_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.keep_frac", Unit: "fraction", Better: "lower"},
	{Name: "rl.pretrain_s", Unit: "s", Better: "lower"},

	{Name: "telemetry.overhead_frac", Unit: "fraction", Better: "lower"},

	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check; any failure makes the command exit
// non-zero.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// budgetRow is one line of the round budget: a layer's self time in the
// median traced round.
type budgetRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// report is everything one run of one workload produced. The contract
// line the driver reads is derived from it (resultLine); the full
// report is printed one line earlier for the all-workloads command and
// -compare.
type report struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	Fingerprint fingerprint `json:"fingerprint"`

	Rounds    int   `json:"rounds"`  // rounds measured
	Samples   int   `json:"samples"` // round-time samples behind round_ms_p50
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Metrics holds every end_to_end metric (untraced run) or every
	// per_layer metric (traced run) of BENCHMARK.json.
	Metrics map[string]value `json:"metrics"`
	// Card holds the accuracy-derived end-to-end rows (conv_* only).
	// When the run ended before the target accuracy was reached,
	// TargetReached is false and the *_to_target rows say where the run
	// stood, which -compare then leaves alone.
	Card          map[string]value `json:"card,omitempty"`
	TargetReached bool             `json:"target_reached,omitempty"`
	// Counts are quantities that repeat exactly for a seed: the model
	// hash and byte counters after CheckRound rounds. The traced and
	// the untraced run of a seed must agree on them.
	CheckRound int               `json:"check_round"`
	Counts     map[string]string `json:"counts"`

	Checks []check     `json:"checks"`
	Budget []budgetRow `json:"budget,omitempty"`
	Notes  []string    `json:"notes,omitempty"`
}

// units maps every metric of the three tables to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	for _, d := range card {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the tables of report.go")
	}
	return u
}

func (r *report) set(name string, v float64) { r.Metrics[name] = value{v, unitOf(name)} }

func (r *report) setCard(name string, v float64) {
	if r.Card == nil {
		r.Card = map[string]value{}
	}
	r.Card[name] = value{v, unitOf(name)}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// fillAbsent gives every metric of the run's mode a value: a per-layer
// metric whose layer a workload never enters reads 0 ("flat").
func (r *report) fillAbsent() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = value{0, d.Unit}
		}
	}
}

// resultLine is the last line of standard output: the object the
// driver's contract asks for, nothing else.
func (r *report) resultLine() string {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes the human-readable form: every metric by name with its
// unit, the checks, and for a traced run the round budget.
func (r *report) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	defs := endToEnd
	if r.Traced {
		mode = "per-layer (traced run)"
		defs = perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d rounds, %d round-time samples, %d uploads attempted, %d failed\n",
		r.Workload, r.Seed, mode, r.Rounds, r.Samples, r.Attempted, r.Failed)
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v.Value, v.Unit)
	}
	if !r.Traced {
		for _, d := range card {
			if v, ok := r.Card[d.Name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		failedFrac := 0.0
		if r.Attempted > 0 {
			failedFrac = float64(r.Failed) / float64(r.Attempted)
		}
		fmt.Fprintf(w, "  %-30s %14.6g fraction\n", "failed_frac", failedFrac)
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  count %-24s %s (after %d rounds)\n", k, r.Counts[k], r.CheckRound)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "  round budget (self time in the median traced round):\n")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "    %-22s %10.4f ms %6.1f%%  %s\n", b.Layer, b.MS, 100*b.Share, strings.Repeat("#", max(0, int(40*b.Share+0.5))))
		}
	}
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", state, c.Name, c.Detail)
	}
}
