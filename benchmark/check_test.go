package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload at its minimum size (--seconds 0: six conv rounds, one
// ingest episode, one TCP episode), untraced and traced. Asserts that
// every metric BENCHMARK.json names is there with its unit, that the
// output checks pass, and that everything countable — rounds, uploads,
// bytes, model hashes — is the same in the two runs. Asserts nothing
// about time.
func TestWorkloadsAtMinimumSize(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	for _, w := range workloads {
		var pair [2]*report
		for i, traced := range []bool{false, true} {
			r, err := runWorkload(runConfig{workload: w.Name, seed: 5, seconds: 0, traced: traced, traceFile: traceFile})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			pair[i] = r
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must be positive on every workload", w.Name, d.Name, v.Value)
				}
			}
			for _, c := range r.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: %d failed of %d attempted", w.Name, traced, r.Failed, r.Attempted)
			}
			var line struct {
				Correct   *bool            `json:"correct"`
				Attempted *int64           `json:"attempted"`
				Failed    *int64           `json:"failed"`
				Metrics   map[string]value `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(r.resultLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
				t.Errorf("%s: result line does not have exactly the contract's keys: %v %s", w.Name, err, r.resultLine())
			}
		}
		if len(pair[1].Budget) == 0 {
			t.Errorf("%s: traced run has no round budget", w.Name)
		}
		var total, other float64
		for _, b := range pair[1].Budget {
			total += b.Share
			if b.Layer == "other" {
				other = 1
			}
		}
		if total < 0.999 || total > 1.001 || other == 0 {
			t.Errorf("%s: budget shares sum to %g (want 1) with other row present=%v", w.Name, total, other == 1)
		}
		u, tr := pair[0], pair[1]
		if u.Rounds != tr.Rounds || u.Attempted != tr.Attempted {
			t.Errorf("%s: untraced %d rounds %d uploads, traced %d rounds %d uploads", w.Name, u.Rounds, u.Attempted, tr.Rounds, tr.Attempted)
		}
		if len(u.Counts) == 0 || !sameCounts(u.Counts, tr.Counts) {
			t.Errorf("%s: counts differ between two runs of one seed: %v vs %v", w.Name, u.Counts, tr.Counts)
		}
		if strings.HasPrefix(w.Name, "conv_") && len(u.Card) != len(card) {
			t.Errorf("%s: card has %d accuracy-derived rows, want %d", w.Name, len(u.Card), len(card))
		}
	}
	spans, err := os.ReadFile(traceFile)
	if err != nil || !bytes.Contains(spans, []byte(`"name":"round"`)) {
		t.Errorf("trace file has no round span (err %v)", err)
	}
}

// BENCHMARK.json says what report.go and main.go say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in report.go", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, report.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract wants setup_s, in s, lower is better")
	}
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > doc.EndToEnd[0].Bound {
			t.Errorf("%s: bound %g outside (0, 0.25] or above setup_s's", d.Name, d.Bound)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(roundMS, acc float64) *result {
		r := &report{Workload: "conv_fedavg", Metrics: map[string]value{}, Card: map[string]value{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = value{1, d.Unit}
		}
		r.Metrics["round_ms_p50"] = value{roundMS, "ms"}
		r.Card["final_acc"] = value{acc, "fraction"}
		res := &result{Fingerprint: fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go", Commit: "a"}, Seed: 1, Seconds: 20}
		for _, w := range workloads {
			c := *r
			c.Workload = w.Name
			res.Runs = append(res.Runs, &c)
		}
		return res
	}
	write := func(name string, res *result) string {
		b, _ := json.Marshal(res)
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(100, 0.80))
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("b.json", mk(110, 0.78))); err != nil {
		t.Errorf("10%% slower and 0.02 less accurate is within bounds, got %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("c.json", mk(130, 0.80))); err == nil || !strings.Contains(out.String(), "BEYOND BOUND") {
		t.Errorf("30%% slower must be flagged, got %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, write("d.json", mk(100, 0.70))); err == nil {
		t.Errorf("0.10 less accurate must be flagged")
	}
	other := mk(100, 0.80)
	other.Fingerprint.NProc = 8
	if err := compareFiles(&out, base, write("e.json", other)); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("a result from another machine must be refused, got %v", err)
	}
}
