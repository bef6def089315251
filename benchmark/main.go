// Command benchmark is the repo's one federation benchmark: four
// workloads, an end-to-end card and a per-layer round budget. See
// README.md in this directory for every name it prints.
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of standard output is the
//	    result object BENCHMARK.json's contract describes
//	go run ./benchmark [--seed n] [--seconds s] [--out result.json]
//	    every workload, untraced then traced, each in its own child
//	    process; prints the card and the round budgets, cross-checks the
//	    two runs of each workload, writes result.json and trace.jsonl
//	go run ./benchmark --compare a.json b.json
//	    ratio and base of every end-to-end metric, workload by workload
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// workloadDef is one named workload. Why is BENCHMARK.json's reason.
type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) (*report, error)
}

var workloads = []workloadDef{
	{"conv_fedavg", "dense compute-bound baseline: FedAvg on resnet20; tensor+nn do the work, so an aggregation or wire change must show no change here",
		func(rc runConfig) (*report, error) { return runConv("fedavg", rc) }},
	{"conv_spatl", "the paper's method on the same federation: adds selection, masked kernels, sparse codec and control variates, so a dense-path gain that costs the sparse path shows",
		func(rc runConfig) (*report, error) { return runConv("spatl", rc) }},
	{"ingest_10k", "fl.RunMassive with 10000 synthetic clients: per-upload server cost (stream fold, shard buffers, decode, pools) is all of the work; a kernel change must show no change",
		runIngest},
	{"tcp_wire", "flnet server and 2 loopback replay clients over 1.1 MB frames: framing, socket I/O, decode, arrival-order staging and finalize are all of the work",
		runTCP},
}

// runConfig is one run of one workload.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	traceFile string
	// child marks a run started by the all-workloads command, which
	// collects its children's spans in one file: append, do not replace.
	child bool
}

func (rc runConfig) newReport() *report {
	return &report{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		Fingerprint: machineFingerprint(), Metrics: map[string]value{}, Counts: map[string]string{},
	}
}

// A traced run divides its time between the federation it traces and
// the probes; an untraced run measures for all of it.
func (rc runConfig) measureBudget() time.Duration {
	if rc.traced {
		return time.Duration(0.45 * rc.seconds * float64(time.Second))
	}
	return time.Duration(rc.seconds * float64(time.Second))
}

func (rc runConfig) probeBudget() time.Duration {
	return time.Duration(0.4 * rc.seconds * float64(time.Second))
}

// moreSetups decides whether to time another set-up: at least three,
// then until they have taken 2.5 s together or there are 101, so a
// millisecond set-up is a median of many and a two-second one of few.
func moreSetups(taken []float64) bool {
	return len(taken) < 3 || (sum(taken) < 2.5 && len(taken) < 101)
}

func runWorkload(rc runConfig) (*report, error) {
	for _, w := range workloads {
		if w.Name == rc.workload {
			r, err := w.run(rc)
			if err != nil {
				return nil, err
			}
			r.fillAbsent()
			return r, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", rc.workload, strings.Join(names, ", "))
}

// reportPrefix marks the line carrying a run's full report, one line
// above the contract's result line.
const reportPrefix = "REPORT "

func main() {
	var rc runConfig
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	out := flag.String("out", "result.json", "all-workloads command: where to write the results")
	compare := flag.Bool("compare", false, "compare two result files: --compare a.json b.json")
	flag.StringVar(&rc.workload, "workload", "", "run one workload (default: all, each in a child process)")
	flag.Int64Var(&rc.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&rc.seconds, "seconds", 20, "how long one run measures")
	flag.StringVar(&rc.traceFile, "trace-file", "trace.jsonl", "where a traced run writes its spans")
	flag.BoolVar(&rc.child, "child", false, "internal: run as a child of the all-workloads command")
	flag.Parse()

	// min(nproc, 4): every workload states its size against this.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case rc.workload == "":
		err = runAll(rc, *out)
	default:
		rc.traced = *trace == 1
		err = runOne(rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: human-readable metrics, the full
// report on one line, and the result object as the last line. A failed
// output check is a non-zero exit.
func runOne(rc runConfig) error {
	r, err := runWorkload(rc)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", reportPrefix, full)
	fmt.Println(r.resultLine())
	if !r.correct() {
		return fmt.Errorf("%s: an output check failed", rc.workload)
	}
	return nil
}

// result is what the all-workloads command writes and -compare reads.
type result struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Runs        []*report   `json:"runs"` // per workload: untraced, then traced
}

// runAll runs every workload in its own child process, so peak_rss_mb
// and the buffer pools are per workload, untraced and then traced.
func runAll(rc runConfig, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.WriteFile(rc.traceFile, nil, 0o644); err != nil {
		return err
	}
	res := result{Fingerprint: machineFingerprint(), Seed: rc.seed, Seconds: rc.seconds}
	fmt.Println("machine:", res.Fingerprint)
	failed := false
	for _, w := range workloads {
		var pair [2]*report
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(rc.seed), "--seconds", fmt.Sprint(rc.seconds),
				"--trace", fmt.Sprint(trace), "--trace-file", rc.traceFile, "--child")
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			r, err := parseReport(stdout)
			if err != nil {
				return fmt.Errorf("%s --trace %d: %v (%v)", w.Name, trace, err, runErr)
			}
			r.print(os.Stdout)
			if runErr != nil || !r.correct() {
				failed = true
			}
			pair[trace] = r
			res.Runs = append(res.Runs, r)
		}
		// The traced and the untraced run of a seed must agree on
		// everything that repeats exactly.
		agree := sameCounts(pair[0].Counts, pair[1].Counts)
		state := "ok  "
		if !agree {
			state = "FAIL"
			failed = true
		}
		fmt.Printf("  check %s %-28s untraced %v, traced %v\n", state, "traced_equals_untraced", pair[0].Counts, pair[1].Counts)
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", outPath, rc.traceFile)
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

func parseReport(stdout []byte) (*report, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), reportPrefix); ok {
			var r report
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return nil, err
			}
			return &r, nil
		}
	}
	return nil, fmt.Errorf("no report line in the child's output")
}
