package scenario

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"spatl/internal/fl"
	"spatl/internal/flnet"
	"spatl/internal/telemetry"
)

// RunOptions configures a matrix run.
type RunOptions struct {
	// OutDir receives one <cell-key>.jsonl journal per cell plus
	// report.txt and report.csv.
	OutDir string
	// Workers bounds concurrent cells (default min(4, GOMAXPROCS);
	// each cell itself trains its clients in parallel).
	Workers int
	// Force overrides the matrix cell cap.
	Force bool
	// Cache skips cells whose journal already exists in OutDir next to a
	// .hash sidecar matching the cell's SpecHash — a re-run after a
	// matrix edit only executes the changed cells. Stats still come from
	// the cached journal, so the report covers every cell either way.
	Cache bool
	// Log, when set, receives one progress line per finished cell and
	// the final report.
	Log io.Writer
}

// CellResult is one cell's outcome.
type CellResult struct {
	Spec        Spec
	Key         string
	JournalPath string
	Stats       CellStats
	Err         error
	// Cached marks a cell served from a prior run's journal.
	Cached bool
}

// RunCell executes one scenario cell, writing its zero-time journal to
// w. The journal is the cell's entire output: every run of the same
// spec produces byte-identical bytes here.
func RunCell(spec Spec, w io.Writer) error {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	tel := telemetry.New(w)
	tel.Journal.SetZeroTime(true)
	defer tel.Journal.Flush()
	spec.Params.Seed = spec.Seed
	spec = spec.withPretrainedAgent()
	if spec.Transport.Kind == TransportTCP {
		if err := runCellTCP(spec, tel); err != nil {
			return err
		}
	} else {
		env, err := BuildEnv(spec, tel)
		if err != nil {
			return err
		}
		alg, err := NewAlgorithm(spec.Algo, spec.Params)
		if err != nil {
			return err
		}
		// No early stop: every cell runs its full round budget so the
		// matrix report compares like with like.
		fl.Run(env, alg, fl.RunOpts{Rounds: spec.Rounds})
	}
	if err := tel.Journal.Flush(); err != nil {
		return err
	}
	return tel.Journal.Err()
}

// runCellTCP drives the cell over a real loopback TCP federation:
// flnet server plus one goroutine per client, the same wire path
// spatl-node deploys. Only the server side journals (client-side events
// would interleave nondeterministically); the final evaluation is
// emitted afterwards from this sequential code, so the journal stays
// byte-reproducible.
func runCellTCP(spec Spec, tel *telemetry.Set) error {
	entry, err := Lookup(spec.Algo)
	if err != nil {
		return err
	}
	env, err := BuildEnv(spec, nil)
	if err != nil {
		return err
	}
	acfg := spec.algoConfig()
	perRound := int(float64(spec.Clients)*spec.Participation + 0.5)
	if perRound < 1 {
		perRound = 1
	}
	srv, err := flnet.NewServer(flnet.ServerConfig{
		Addr: "127.0.0.1:0", Clients: spec.Clients, Rounds: spec.Rounds,
		PerRound: perRound, Seed: spec.Seed, Tel: tel,
	})
	if err != nil {
		return err
	}
	p := spec.Params.withDefaults()
	var wg sync.WaitGroup
	clientErrs := make([]error, len(env.Clients))
	for i, c := range env.Clients {
		tr := entry.NewTrainer(c, p, acfg)
		wg.Add(1)
		go func(i int, n int, tr flnet.Trainer) {
			defer wg.Done()
			clientErrs[i] = flnet.RunClientOpts(srv.Addr(), uint32(i), n, tr, flnet.ClientOptions{})
		}(i, c.Train.Len(), tr)
	}
	agg := entry.NewAggregator(env.Global, p, acfg)
	runErr := srv.Run(agg)
	wg.Wait()
	if runErr != nil {
		return fmt.Errorf("scenario: tcp cell server: %w", runErr)
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			return fmt.Errorf("scenario: tcp cell client %d: %w", i, cerr)
		}
	}
	// Final accuracy, measured exactly as the in-process runner does:
	// the aggregator mutated env.Global in place, so the global model is
	// the post-final-aggregate state, and each client evaluates what the
	// aggregator says it deploys.
	var sum float64
	for _, c := range env.Clients {
		acc := fl.EvalAccuracy(fl.DeployedModel(agg, env.Global, c), c.Val, 64)
		if math.IsNaN(acc) {
			acc = 0
		}
		sum += acc
	}
	tel.Emit(telemetry.Eval(spec.Rounds-1, sum/float64(len(env.Clients))))
	return nil
}

// RunCellFile runs one cell, journaling to path.
func RunCellFile(spec Spec, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := RunCell(spec, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// JournalName returns the journal filename for a cell.
func JournalName(spec Spec) string { return spec.Key() + ".jsonl" }

// hashPath is the cache sidecar next to a cell's journal.
func hashPath(journalPath string) string {
	return journalPath[:len(journalPath)-len(".jsonl")] + ".hash"
}

// cacheFresh reports whether journalPath holds a result for exactly this
// spec: journal present and sidecar hash equal to SpecHash(spec).
func cacheFresh(journalPath string, spec Spec) bool {
	want := SpecHash(spec)
	if want == "" {
		return false
	}
	got, err := os.ReadFile(hashPath(journalPath))
	if err != nil || string(got) != want+"\n" {
		return false
	}
	if _, err := os.Stat(journalPath); err != nil {
		return false
	}
	return true
}

// RunMatrix expands the matrix and runs every cell over a bounded
// worker pool, writing one journal per cell into OutDir plus report.txt
// / report.csv rendered from those journals. Per-cell failures land in
// the corresponding CellResult.Err; the error return covers setup
// problems (expansion over the cap, unwritable OutDir).
func RunMatrix(m Matrix, opts RunOptions) ([]CellResult, error) {
	cells, err := m.Expand(opts.Force)
	if err != nil {
		return nil, err
	}
	if opts.OutDir == "" {
		return nil, fmt.Errorf("scenario: RunMatrix needs OutDir")
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	results := make([]CellResult, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes progress lines
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cell := cells[i]
				r := CellResult{Spec: cell, Key: cell.Key()}
				r.JournalPath = filepath.Join(opts.OutDir, JournalName(cell))
				if opts.Cache && cacheFresh(r.JournalPath, cell) {
					r.Cached = true
				} else {
					r.Err = RunCellFile(cell, r.JournalPath)
					if r.Err == nil && opts.Cache {
						r.Err = os.WriteFile(hashPath(r.JournalPath), []byte(SpecHash(cell)+"\n"), 0o644)
					}
				}
				if r.Err == nil {
					r.Stats, r.Err = StatsFromFile(r.JournalPath, cell)
				}
				results[i] = r
				if opts.Log != nil {
					mu.Lock()
					done++
					if r.Err != nil {
						fmt.Fprintf(opts.Log, "[%d/%d] %s: %v\n", done, len(cells), r.Key, r.Err)
					} else {
						tag := ""
						if r.Cached {
							tag = "  (cached)"
						}
						fmt.Fprintf(opts.Log, "[%d/%d] %s  acc %.3f  up %.2fMB%s\n",
							done, len(cells), r.Key, r.Stats.FinalAcc, float64(r.Stats.UpBytes)/(1<<20), tag)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep, err := os.Create(filepath.Join(opts.OutDir, "report.txt"))
	if err != nil {
		return results, err
	}
	if err := WriteReport(rep, m.Name, results); err != nil {
		rep.Close()
		return results, err
	}
	if err := rep.Close(); err != nil {
		return results, err
	}
	csv, err := os.Create(filepath.Join(opts.OutDir, "report.csv"))
	if err != nil {
		return results, err
	}
	if err := WriteReportCSV(csv, results); err != nil {
		csv.Close()
		return results, err
	}
	return results, csv.Close()
}
