// Package experiments is the reproduction harness: one driver per table
// and figure of the SPATL paper (see DESIGN.md §3 for the experiment
// index). Most drivers are scenario cells plus a renderer (cells.go) that
// prints the rows/series the paper reports; the few that need a trained
// model or an ablation switch run fl.Run themselves.
// Drivers run at a configurable Scale so the full suite works as quick
// smoke runs (Tiny, what this package's tests use), laptop-scale
// reproductions (Small, the default for the spatl-bench CLI), or the
// paper's client counts (Paper).
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/plot"
	"spatl/internal/rl"
	"spatl/internal/scenario"
	"spatl/internal/stats"
)

// Scale bundles every knob that trades fidelity for runtime.
type Scale struct {
	Name        string
	Width       float64 // model width multiplier
	H, W        int     // CIFAR-analog image size
	Classes     int
	PerClient   int // examples per client
	Rounds      int // cap for convergence runs
	CurveRounds int // rounds for learning-curve figures
	LocalEpochs int
	BatchSize   int
	LR          float64
	TargetAcc   float64 // Table I target accuracy (paper: 80%)

	AgentDim       int
	AgentHidden    int
	PretrainRounds int
	FineTuneRounds int
	FLOPsBudget    float64

	// ClientSets mirrors the paper's (clients, sample-ratio) sweep.
	ClientSets []ClientSet
	// Archs is the CIFAR-model sweep used by the multi-architecture
	// drivers (Table I, learning curves, inference).
	Archs []string
}

// ClientSet is one federated population setting.
type ClientSet struct {
	Clients int
	Ratio   float64
}

// Tiny finishes each driver in seconds — used by the driver tests. The
// 16×16 resolution is the minimum VGG-11's four max-pools accept.
var Tiny = Scale{
	Name: "tiny", Width: 0.25, H: 16, W: 16, Classes: 6, PerClient: 90,
	Rounds: 10, CurveRounds: 6, LocalEpochs: 2, BatchSize: 16, LR: 0.02,
	TargetAcc: 0.45, AgentDim: 8, AgentHidden: 8, PretrainRounds: 3,
	FineTuneRounds: 1, FLOPsBudget: 0.6,
	ClientSets: []ClientSet{{4, 1.0}, {8, 0.5}},
	Archs:      []string{"resnet20"},
}

// Small is the default reproduction scale for the spatl-bench CLI:
// minutes per experiment on a laptop, with the paper's relationships
// clearly visible.
var Small = Scale{
	Name: "small", Width: 0.25, H: 16, W: 16, Classes: 10, PerClient: 250,
	Rounds: 40, CurveRounds: 20, LocalEpochs: 5, BatchSize: 32, LR: 0.02,
	TargetAcc: 0.55, AgentDim: 16, AgentHidden: 32, PretrainRounds: 10,
	FineTuneRounds: 5, FLOPsBudget: 0.6,
	ClientSets: []ClientSet{{10, 1.0}, {30, 0.4}, {50, 0.7}},
	Archs:      []string{"resnet20", "resnet32", "vgg11"},
}

// Paper matches the paper's client populations and model widths. Pure-Go
// training at this scale takes many hours; provided for completeness.
var Paper = Scale{
	Name: "paper", Width: 1.0, H: 32, W: 32, Classes: 10, PerClient: 500,
	Rounds: 200, CurveRounds: 100, LocalEpochs: 10, BatchSize: 64, LR: 0.02,
	TargetAcc: 0.8, AgentDim: 32, AgentHidden: 64, PretrainRounds: 40,
	FineTuneRounds: 10, FLOPsBudget: 0.6,
	ClientSets: []ClientSet{{10, 1.0}, {30, 0.4}, {50, 0.7}, {100, 0.4}},
	Archs:      []string{"resnet20", "resnet32", "vgg11"},
}

// ScaleByName resolves a scale preset.
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{Tiny, Small, Paper} {
		if s.Name == name {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (tiny|small|paper)", name)
}

// Options configures a driver invocation.
type Options struct {
	Scale  Scale
	Out    io.Writer
	CSVDir string // when set, drivers export plotted series as CSV here
	Seed   int64
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return os.Stdout
	}
	return o.Out
}

// Runner is one experiment driver.
type Runner func(o Options) error

// Registry maps experiment ids (the -exp flag of spatl-bench) to
// drivers. See DESIGN.md §3 for the paper mapping.
var Registry = map[string]Runner{
	"learning":          LearningEfficiency,
	"femnist":           FEMNISTLearning,
	"converge":          ConvergeAccuracy,
	"localacc":          LocalAccuracy,
	"table1":            Table1Communication,
	"rounds":            RoundsToTarget,
	"table2":            Table2Convergence,
	"table3":            Table3Transfer,
	"inference":         InferenceAcceleration,
	"table4":            Table4Pruning,
	"ablation-select":   AblationSelection,
	"ablation-transfer": AblationTransfer,
	"ablation-gradctl":  AblationGradientControl,
	"rlagent":           RLAgentFineTune,
	// Extensions beyond the paper (DESIGN.md §6).
	"compression": Compression,
	"robustness":  Robustness,
	"walltime":    WallTime,
	"ssfl-comm":   SSFLCommunication,
}

// Names returns the registered experiment ids, sorted.
func Names() []string {
	var out []string
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// specFor builds the model spec for an architecture at this scale.
func specFor(s Scale, arch string) models.Spec {
	switch arch {
	case "cnn2":
		return models.Spec{Arch: arch, Classes: 62, InC: 1, H: 28, W: 28, Width: s.Width}
	default:
		return models.Spec{Arch: arch, Classes: s.Classes, InC: 3, H: s.H, W: s.W, Width: s.Width}
	}
}

// cifarConfig is the synthetic CIFAR generator configuration at scale.
func cifarConfig(s Scale) data.SynthCIFARConfig {
	return data.SynthCIFARConfig{Classes: s.Classes, H: s.H, W: s.W, Noise: 0.3}
}

// SpecFromScale projects a scale preset onto a scenario spec — the
// bridge that makes every driver a thin preset over the scenario layer.
// The algorithm defaults to fedavg; callers set Algo or use NewAlgorithm.
func SpecFromScale(s Scale, arch string, cs ClientSet, seed int64) scenario.Spec {
	return scenario.Spec{
		Algo: "fedavg", Arch: arch,
		Classes: s.Classes, H: s.H, W: s.W, Width: s.Width,
		Clients: cs.Clients, Participation: cs.Ratio, PerClient: s.PerClient,
		Rounds: s.Rounds, LocalEpochs: s.LocalEpochs, BatchSize: s.BatchSize,
		LR: s.LR, Momentum: 0.9, TargetAcc: s.TargetAcc,
		Params: paramsFromScale(s, seed), Seed: seed,
	}
}

// paramsFromScale carries the scale's SPATL knobs into the registry's
// hyperparameter bag.
func paramsFromScale(s Scale, seed int64) scenario.Params {
	return scenario.Params{
		FLOPsBudget: s.FLOPsBudget, AgentDim: s.AgentDim, AgentHidden: s.AgentHidden,
		PretrainRounds: s.PretrainRounds, FineTuneRounds: s.FineTuneRounds,
		FineTuneEpisodes: 2, Seed: seed,
	}
}

// BuildCIFAREnv constructs the standard Non-IID-benchmark environment:
// SynthCIFAR partitioned across clients by Dirichlet(α=0.5) label skew.
// It delegates to the scenario layer; the seed derivations are the
// historical ones, so outputs match the pre-scenario harness.
func BuildCIFAREnv(s Scale, arch string, cs ClientSet, seed int64) *fl.Env {
	env, err := scenario.BuildEnv(SpecFromScale(s, arch, cs, seed), nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: BuildCIFAREnv: %v", err))
	}
	return env
}

// BuildFEMNISTEnv constructs the LEAF-style environment: SynthFEMNIST
// with whole writers assigned to clients.
func BuildFEMNISTEnv(s Scale, cs ClientSet, seed int64) *fl.Env {
	spec := SpecFromScale(s, "cnn2", cs, seed)
	spec.Dataset = scenario.DataFEMNIST
	env, err := scenario.BuildEnv(spec, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: BuildFEMNISTEnv: %v", err))
	}
	return env
}

// PretrainedAgent returns (and caches) an agent pre-trained on the
// ResNet-56 pruning task at this scale — the paper's §V-A setup. The
// cache lives in the scenario layer, shared with matrix runs.
func PretrainedAgent(s Scale, seed int64) []float32 {
	return scenario.PretrainAgentBlob(SpecFromScale(s, "resnet20", ClientSet{Clients: 1, Ratio: 1}, seed))
}

func agentCfg(s Scale, seed int64) rl.AgentConfig {
	return rl.AgentConfig{Dim: s.AgentDim, HeadHidden: s.AgentHidden, Seed: seed + 31}
}

// NewAlgorithm instantiates a fresh algorithm by name through the
// shared scenario registry — the same construction path spatl-bench
// matrix cells and spatl-node use. SPATL instances receive the scale's
// pre-trained selection agent.
func NewAlgorithm(name string, s Scale, seed int64) *fl.Federation {
	p := paramsFromScale(s, seed)
	if name == "spatl" {
		p.Pretrained = PretrainedAgent(s, seed)
	}
	alg, err := scenario.NewAlgorithm(name, p)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return alg
}

// AllAlgos is the paper's four baselines plus SPATL.
var AllAlgos = []string{"fedavg", "fedprox", "fednova", "scaffold", "spatl"}

// table returns a tabwriter over the options' output.
func table(o Options) *tabwriter.Writer {
	return tabwriter.NewWriter(o.out(), 2, 4, 2, ' ', 0)
}

// writeCSV exports plotted series when CSVDir is set — both as raw CSV
// and as a rendered SVG figure.
func writeCSV(o Options, name, xLabel string, series ...stats.Series) error {
	if o.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := stats.WriteCSV(f, xLabel, series...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	svg, err := os.Create(filepath.Join(o.CSVDir, name+".svg"))
	if err != nil {
		return err
	}
	defer svg.Close()
	return plot.Line(svg, plot.Config{Title: name, XLabel: xLabel, YLabel: "accuracy"}, series...)
}
