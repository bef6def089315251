package scenario

import (
	"fmt"
	"sort"
	"sync"

	"spatl/internal/algo"
	"spatl/internal/core"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/hetero"
	"spatl/internal/models"
	"spatl/internal/rl"
)

// Entry describes one registered federation algorithm: the
// transport-free aggregator / trainer cores and the hyperparameter
// merge. Every front end (spatl-bench cells, experiment drivers,
// spatl-node flags) builds an algorithm from the same entry with the
// same Params — in-process as an fl.Federation over the pair
// (NewAlgorithm), over TCP as the pair itself.
type Entry struct {
	Name    string
	Summary string

	// NewAggregator / NewTrainer build the cores (flnet.Aggregator /
	// flnet.Trainer are aliases of these types).
	NewAggregator func(global *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator
	NewTrainer    func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer
	// Tune merges the per-algorithm hyperparameter overrides into the
	// shared training config (LR override, FedProx mu, ...). May be nil.
	Tune func(p Params, cfg *algo.Config)
}

// withDefaults fills the Params fields whose zero value is not the
// algorithm default. The SPATL agent geometry defaults to the paper's
// 16/32; FineTuneEpisodes to the harness's 2-episode batches.
func (p Params) withDefaults() Params {
	if p.AgentDim == 0 {
		p.AgentDim = 16
	}
	if p.AgentHidden == 0 {
		p.AgentHidden = 32
	}
	if p.FineTuneEpisodes == 0 {
		p.FineTuneEpisodes = 2
	}
	return p
}

// spatlOptions assembles the shared SPATL option struct; zero fields
// fall through to algo.SPATLOptions.WithDefaults.
func spatlOptions(p Params) algo.SPATLOptions {
	p = p.withDefaults()
	return algo.SPATLOptions{
		FLOPsBudget:      p.FLOPsBudget,
		AgentCfg:         rl.AgentConfig{Dim: p.AgentDim, HeadHidden: p.AgentHidden, Seed: p.Seed + 31},
		Pretrained:       p.Pretrained,
		FineTuneRounds:   p.FineTuneRounds,
		FineTuneEpisodes: p.FineTuneEpisodes,
	}
}

func ssflOptions(p Params) algo.SSFLOptions {
	return algo.SSFLOptions{KeepRatio: p.KeepRatio}
}

// heteroOptions assembles the heterogeneous-federation options; zero
// fields fall through to hetero.Options.WithDefaults.
func heteroOptions(p Params) hetero.Options {
	return hetero.Options{
		Clusters:      p.Clusters,
		Widths:        p.WidthDist,
		ReassignEvery: p.ReassignEvery,
	}
}

// tuneLR applies the per-algorithm learning-rate override.
func tuneLR(p Params, cfg *algo.Config) {
	if p.LR > 0 {
		cfg.LR = p.LR
	}
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Entry{}
)

// Register adds (or replaces) an algorithm entry.
func Register(e Entry) {
	if e.Name == "" || e.NewAggregator == nil || e.NewTrainer == nil {
		panic("scenario: Register needs Name, NewAggregator and NewTrainer")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[e.Name] = e
}

// Lookup resolves a registered algorithm by name.
func Lookup(name string) (Entry, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return Entry{}, fmt.Errorf("scenario: unknown algorithm %q (have %v)", name, AlgoNames())
	}
	return e, nil
}

// AlgoNames returns the registered algorithm names, sorted. Callers must
// not hold registryMu (Lookup calls this only on the error path, where
// Go's RWMutex allows the nested RLock).
func AlgoNames() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewAlgorithm instantiates a registered algorithm for the in-process
// transport: the entry's pair of cores as an fl.Federation.
func NewAlgorithm(name string, p Params) (*fl.Federation, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	p = p.withDefaults()
	return fl.NewAlgorithm(name,
		func(g *models.SplitModel, cfg algo.Config) algo.Aggregator { return e.NewAggregator(g, p, cfg) },
		func(c *fl.Client, cfg algo.Config) algo.Trainer { return e.NewTrainer(c, p, cfg) }), nil
}

// algoConfig projects the spec onto the transport-free training config
// with the registry's per-algorithm overrides applied — the one place
// hyperparameter merging happens for every transport.
func (s Spec) algoConfig() algo.Config {
	cfg := algo.Config{
		NumClients:    s.Clients,
		LocalEpochs:   s.LocalEpochs,
		BatchSize:     s.BatchSize,
		LR:            s.LR,
		Momentum:      s.Momentum,
		WeightDecay:   s.WeightDecay,
		HalfPrecision: s.HalfPrecision,
		Seed:          s.Seed,
	}
	if e, err := Lookup(s.Algo); err == nil && e.Tune != nil {
		e.Tune(s.Params, &cfg)
	}
	return cfg
}

func init() {
	Register(Entry{
		Name:    "fedavg",
		Summary: "weighted model averaging (McMahan et al.)",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewFedAvgAggregator(g, cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewFedAvgTrainer(c, cfg)
		},
		Tune: tuneLR,
	})
	Register(Entry{
		Name:    "fedprox",
		Summary: "FedAvg + proximal term restraining client drift (Li et al.)",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewFedAvgAggregator(g, cfg) // proximal term is client-side
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewFedProxTrainer(c, cfg)
		},
		Tune: func(p Params, cfg *algo.Config) {
			tuneLR(p, cfg)
			if p.ProxMu > 0 {
				cfg.ProxMu = p.ProxMu
			}
		},
	})
	Register(Entry{
		Name:    "scaffold",
		Summary: "control-variate drift correction, 2x uplink (Karimireddy et al.)",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewSCAFFOLDAggregator(g, cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewSCAFFOLDTrainer(c, cfg)
		},
		Tune: tuneLR,
	})
	Register(Entry{
		Name:    "fednova",
		Summary: "normalized averaging over heterogeneous local work (Wang et al.)",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewFedNovaAggregator(g, cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewFedNovaTrainer(c, cfg)
		},
		Tune: tuneLR,
	})
	Register(Entry{
		Name:    "spatl",
		Summary: "salient parameter aggregation + transfer learning (the paper)",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewSPATLAggregator(g, spatlOptions(p), cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewSPATLTrainer(c, spatlOptions(p), cfg)
		},
		Tune: tuneLR,
	})
	Register(Entry{
		Name:    "hetero",
		Summary: "clustered aggregation over width-heterogeneous clients",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return hetero.NewAggregator(g, heteroOptions(p), cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return hetero.NewTrainer(c, heteroOptions(p), cfg)
		},
		Tune: tuneLR,
	})
	Register(Entry{
		Name:    "ssfl",
		Summary: "sparse-native mask-static training, values-only frames",
		NewAggregator: func(g *models.SplitModel, p Params, cfg algo.Config) algo.Aggregator {
			return algo.NewSSFLAggregator(g, ssflOptions(p), cfg)
		},
		NewTrainer: func(c *algo.Client, p Params, cfg algo.Config) algo.Trainer {
			return algo.NewSSFLTrainer(c, ssflOptions(p), cfg)
		},
		Tune: tuneLR,
	})
}

// withPretrainedAgent resolves a SPATL cell's request for a pre-trained
// selection agent (Params.PretrainRounds) into the agent's weights; no
// other registered algorithm has an agent to pre-train.
func (s Spec) withPretrainedAgent() Spec {
	if s.Algo == "spatl" && s.Params.Pretrained == nil {
		s.Params.Pretrained = PretrainAgentBlob(s)
	}
	return s
}

// pretrainCache memoizes pre-trained SPATL selection agents so a matrix
// (or a multi-experiment driver run) pays for ResNet-56 pre-training
// once per distinct geometry.
var pretrainCache sync.Map

// PretrainAgentBlob pre-trains (and caches) a SPATL selection agent on
// the ResNet-56 pruning task for this spec's geometry — the paper's
// §V-A setup. Returns nil when the spec asks for no pre-training.
func PretrainAgentBlob(spec Spec) []float32 {
	spec = spec.WithDefaults()
	p := spec.Params.withDefaults()
	if p.PretrainRounds <= 0 {
		return nil
	}
	budget := p.FLOPsBudget
	if budget == 0 {
		budget = 0.6
	}
	key := fmt.Sprintf("%d-%d-%d-%g-%g-%d-%d-%g-%d-%d",
		spec.Classes, spec.H, spec.W, spec.Width, spec.Noise,
		p.AgentDim, p.AgentHidden, budget, p.PretrainRounds, spec.Seed)
	if v, ok := pretrainCache.Load(key); ok {
		return v.([]float32)
	}
	seed := spec.Seed
	ms := models.Spec{Arch: "resnet56", Classes: spec.Classes, InC: 3, H: spec.H, W: spec.W, Width: spec.Width}
	m := models.Build(ms, seed+21)
	val := data.SynthCIFAR(data.SynthCIFARConfig{Classes: spec.Classes, H: spec.H, W: spec.W, Noise: spec.Noise},
		40*spec.Classes, seed*3+101, seed+23)
	agentCfg := rl.AgentConfig{Dim: p.AgentDim, HeadHidden: p.AgentHidden, Seed: seed + 31}
	agent, _ := core.PretrainAgent(agentCfg, m, val, budget, p.PretrainRounds, 4, seed+25)
	blob := agent.Save()
	pretrainCache.Store(key, blob)
	return blob
}
