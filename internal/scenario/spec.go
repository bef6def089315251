// Package scenario is the declarative experiment layer: a JSON-loadable
// Spec describes one federation cell — algorithm and per-algorithm
// hyperparameters, dataset and partition skew, population and
// participation, transport topology, simulated network and compute
// heterogeneity — and a Matrix expands axis lists into the cell
// cross-product. The runner fans cells out over a bounded worker pool,
// emits one zero-time telemetry journal per cell, and renders a
// comparison report from the journals (never from in-memory state — the
// journal is the contract).
//
// The layering (DESIGN.md §13): scenario sits above internal/fl,
// internal/flnet, internal/netsim and internal/telemetry, and below
// internal/experiments — every paper driver builds its environments and
// algorithms through this package, so "the paper's table" and "a cell
// of the matrix" are the same code path.
//
// Determinism contract: every cell's seed is derived from its cell key,
// every transport the runner drives emits its journal from sequential
// code, and journals are written in zero-time mode — so the same spec
// run twice (or one cell re-run standalone from its recorded seed)
// produces byte-identical journals.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"

	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/hetero"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// Dataset kinds.
const (
	DataCIFAR   = "cifar"   // SynthCIFAR, the Non-IID benchmark analog
	DataFEMNIST = "femnist" // SynthFEMNIST, the LEAF analog
)

// Partition kinds.
const (
	PartDirichlet = "dirichlet" // label proportions ~ Dir(alpha) per class
	PartShards    = "shards"    // pathological label shards (FedAvg paper)
	PartWriter    = "writer"    // whole writers per client (FEMNIST/LEAF)
)

// Transport kinds.
const (
	TransportSim     = "sim"     // in-process flat collection (fl.Sim, zero Topology)
	TransportSharded = "sharded" // in-process collection tree (fl.Sim with Topology.Shards)
	TransportQuorum  = "quorum"  // in-process deterministic async quorum (fl.Sim with Topology.OnTimeFrac)
	TransportTCP     = "tcp"     // loopback TCP federation (flnet.Server)
)

// Partition selects the non-IID data split and its skew knob.
type Partition struct {
	// Kind is one of the Part* constants; "" defaults to dirichlet for
	// cifar and writer for femnist.
	Kind string `json:"kind,omitempty"`
	// Alpha is the Dirichlet concentration (dirichlet; default 0.5 —
	// the paper's setting; smaller = more skew).
	Alpha float64 `json:"alpha,omitempty"`
	// ShardsPerClient is the shards dealt per client (shards; default 2
	// — the FedAvg paper's pathological setting).
	ShardsPerClient int `json:"shards_per_client,omitempty"`
	// MinSize is the dirichlet resampling floor (default 10).
	MinSize int `json:"min_size,omitempty"`
}

// Transport selects how round payloads move between clients and the
// aggregator.
type Transport struct {
	// Kind is one of the Transport* constants; "" defaults to sim.
	Kind string `json:"kind,omitempty"`
	// Shards is the collection-tree width (sharded; default 2).
	Shards int `json:"shards,omitempty"`
	// OnTimeFrac is the fraction of uploads beating the quorum close
	// (quorum; default 0.75).
	OnTimeFrac float64 `json:"on_time_frac,omitempty"`
}

// Net parameterizes the simulated network and compute population the
// report's time model uses (netsim). The zero value disables the time
// model; it never affects the training run itself.
type Net struct {
	// Profile names a link population ("mobile", "broadband"); the
	// explicit fields below override it when non-zero.
	Profile   string  `json:"profile,omitempty"`
	UpMbps    float64 `json:"up_mbps,omitempty"`
	DownMbps  float64 `json:"down_mbps,omitempty"`
	Spread    float64 `json:"spread,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`

	// ComputeSec is the median per-round local-training time and
	// ComputeSpread its log-normal sigma — the compute-heterogeneity
	// axis. Zero ComputeSec drops the compute term.
	ComputeSec    float64 `json:"compute_sec,omitempty"`
	ComputeSpread float64 `json:"compute_spread,omitempty"`
}

// Params carries the per-algorithm hyperparameters routed through the
// algorithm registry — one bag shared by the in-process and TCP
// constructors, so spatl-bench cells and spatl-node flags configure the
// identical knobs. Zero fields take each algorithm's paper default.
type Params struct {
	// ProxMu is FedProx's proximal coefficient (default 0.01).
	ProxMu float64 `json:"prox_mu,omitempty"`
	// KeepRatio is SSFL's kept-channel fraction (default 0.5).
	KeepRatio float64 `json:"keep_ratio,omitempty"`
	// LR overrides the shared local learning rate for this algorithm
	// only — e.g. a SCAFFOLD-specific step size (0 keeps Spec.LR).
	LR float64 `json:"lr,omitempty"`
	// FLOPsBudget is SPATL's sub-network constraint (default 0.6).
	FLOPsBudget float64 `json:"flops_budget,omitempty"`
	// AgentDim / AgentHidden size SPATL's selection agent (defaults 16 / 32).
	AgentDim    int `json:"agent_dim,omitempty"`
	AgentHidden int `json:"agent_hidden,omitempty"`
	// PretrainRounds pre-trains SPATL's agent on the ResNet-56 pruning
	// task before the federation (0 skips pre-training).
	PretrainRounds int `json:"pretrain_rounds,omitempty"`
	// FineTuneRounds / FineTuneEpisodes drive SPATL's on-federation
	// agent fine-tuning (defaults 10 / 4).
	FineTuneRounds   int `json:"fine_tune_rounds,omitempty"`
	FineTuneEpisodes int `json:"fine_tune_episodes,omitempty"`

	// Clusters is hetero's cluster-model count (default 1).
	Clusters int `json:"clusters,omitempty"`
	// WidthDist is hetero's client width-multiplier cycle — client i
	// trains width WidthDist[i mod len] of the full model (default [1]).
	WidthDist []float64 `json:"width_dist,omitempty"`
	// ReassignEvery is hetero's cluster-reassignment period in rounds
	// (default 5; negative disables reassignment).
	ReassignEvery int `json:"reassign_every,omitempty"`

	// Pretrained injects pre-trained agent weights at runtime (the
	// experiments cache); never serialized.
	Pretrained []float32 `json:"-"`
	// Seed is the runtime seed the agent RNGs derive from; the runner
	// fills it from the cell seed.
	Seed int64 `json:"-"`
}

// Spec describes one federation cell. The zero value is not runnable;
// WithDefaults fills every unset field with a tiny-scale default, so a
// minimal JSON spec ({"algo": "fedavg"}) is complete.
type Spec struct {
	// Name labels the cell in reports; "" derives it from Key().
	Name string `json:"name,omitempty"`

	// Algo names a registered algorithm (see AlgoNames).
	Algo string `json:"algo"`
	// Params are the per-algorithm hyperparameters.
	Params Params `json:"params"`

	// Dataset is cifar (default) or femnist.
	Dataset string `json:"dataset,omitempty"`
	// Arch is the model architecture (default resnet20; femnist forces
	// cnn2).
	Arch    string  `json:"arch,omitempty"`
	Classes int     `json:"classes,omitempty"`
	H       int     `json:"h,omitempty"`
	W       int     `json:"w,omitempty"`
	Width   float64 `json:"width,omitempty"`
	Noise   float64 `json:"noise,omitempty"`

	// Clients is the federation size; Participation the per-round
	// sampling ratio in (0, 1].
	Clients       int     `json:"clients,omitempty"`
	Participation float64 `json:"participation,omitempty"`
	// PerClient is examples per client; Writers the femnist writer count
	// (default 3·Clients).
	PerClient int `json:"per_client,omitempty"`
	Writers   int `json:"writers,omitempty"`

	Rounds      int     `json:"rounds,omitempty"`
	LocalEpochs int     `json:"local_epochs,omitempty"`
	BatchSize   int     `json:"batch_size,omitempty"`
	LR          float64 `json:"lr,omitempty"`
	Momentum    float64 `json:"momentum,omitempty"`
	WeightDecay float64 `json:"weight_decay,omitempty"`
	// TargetAcc is the report's rounds-to-target threshold; it never
	// stops a cell early (cells always run their full Rounds so every
	// cell of a matrix is comparable).
	TargetAcc float64 `json:"target_acc,omitempty"`

	// Churn is the per-round probability a selected client crashes
	// after download and never uploads (deterministic injection;
	// journaled as drop events). Unsupported on the tcp transport.
	Churn float64 `json:"churn,omitempty"`
	// HalfPrecision ships payloads as binary16.
	HalfPrecision bool `json:"half_precision,omitempty"`

	Partition Partition `json:"partition"`
	Transport Transport `json:"transport"`
	Net       Net       `json:"net"`

	// Seed drives everything; a matrix cell's Seed is derived from the
	// cell key (DeriveSeed), recorded here so the cell re-runs
	// standalone byte-identically.
	Seed int64 `json:"seed,omitempty"`
}

// WithDefaults fills unset fields with tiny-scale defaults and
// normalizes kind strings.
func (s Spec) WithDefaults() Spec {
	if s.Algo == "" {
		s.Algo = "fedavg"
	}
	if s.Dataset == "" {
		s.Dataset = DataCIFAR
	}
	if s.Dataset == DataFEMNIST {
		s.Arch = "cnn2"
	} else if s.Arch == "" {
		s.Arch = "resnet20"
	}
	if s.Classes == 0 {
		s.Classes = 6
	}
	if s.H == 0 {
		s.H = 16
	}
	if s.W == 0 {
		s.W = 16
	}
	if s.Width == 0 {
		s.Width = 0.25
	}
	if s.Noise == 0 {
		s.Noise = 0.3
	}
	if s.Clients == 0 {
		s.Clients = 4
	}
	if s.Participation == 0 {
		s.Participation = 1
	}
	if s.PerClient == 0 {
		s.PerClient = 90
	}
	if s.Writers == 0 {
		s.Writers = 3 * s.Clients
	}
	if s.Rounds == 0 {
		s.Rounds = 5
	}
	if s.LocalEpochs == 0 {
		s.LocalEpochs = 2
	}
	if s.BatchSize == 0 {
		s.BatchSize = 16
	}
	if s.LR == 0 {
		s.LR = 0.02
	}
	if s.Momentum == 0 {
		s.Momentum = 0.9
	}
	if s.Partition.Kind == "" {
		if s.Dataset == DataFEMNIST {
			s.Partition.Kind = PartWriter
		} else {
			s.Partition.Kind = PartDirichlet
		}
	}
	if s.Partition.Alpha == 0 {
		s.Partition.Alpha = 0.5
	}
	if s.Partition.ShardsPerClient == 0 {
		s.Partition.ShardsPerClient = 2
	}
	if s.Partition.MinSize == 0 {
		s.Partition.MinSize = 10
	}
	if s.Transport.Kind == "" {
		s.Transport.Kind = TransportSim
	}
	if s.Transport.Shards == 0 {
		s.Transport.Shards = 2
	}
	if s.Transport.OnTimeFrac == 0 {
		s.Transport.OnTimeFrac = 0.75
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate reports the first structural problem with the spec. It is
// called on the defaulted form (WithDefaults is applied first).
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if _, err := Lookup(s.Algo); err != nil {
		return err
	}
	if !models.KnownArch(s.Arch) {
		return fmt.Errorf("scenario: unknown arch %q", s.Arch)
	}
	switch s.Dataset {
	case DataCIFAR, DataFEMNIST:
	default:
		return fmt.Errorf("scenario: unknown dataset %q (cifar|femnist)", s.Dataset)
	}
	switch s.Partition.Kind {
	case PartDirichlet, PartShards:
		if s.Dataset == DataFEMNIST {
			return fmt.Errorf("scenario: partition %q requires the cifar dataset (femnist partitions by writer)", s.Partition.Kind)
		}
	case PartWriter:
		if s.Dataset != DataFEMNIST {
			return fmt.Errorf("scenario: partition %q requires the femnist dataset", PartWriter)
		}
	default:
		return fmt.Errorf("scenario: unknown partition kind %q (dirichlet|shards|writer)", s.Partition.Kind)
	}
	switch s.Transport.Kind {
	case TransportSim, TransportSharded, TransportQuorum:
	case TransportTCP:
		if s.Churn > 0 {
			return fmt.Errorf("scenario: churn injection is not supported on the tcp transport (drops there come from real timeouts)")
		}
	default:
		return fmt.Errorf("scenario: unknown transport kind %q (sim|sharded|quorum|tcp)", s.Transport.Kind)
	}
	if s.Clients < 1 {
		return fmt.Errorf("scenario: clients must be >= 1, got %d", s.Clients)
	}
	if s.Participation <= 0 || s.Participation > 1 {
		return fmt.Errorf("scenario: participation must be in (0, 1], got %v", s.Participation)
	}
	if s.Churn < 0 || s.Churn >= 1 {
		return fmt.Errorf("scenario: churn must be in [0, 1), got %v", s.Churn)
	}
	if s.Rounds < 1 {
		return fmt.Errorf("scenario: rounds must be >= 1, got %d", s.Rounds)
	}
	if s.Partition.Kind == PartDirichlet && s.Partition.Alpha <= 0 {
		return fmt.Errorf("scenario: dirichlet alpha must be > 0, got %v", s.Partition.Alpha)
	}
	if s.Partition.Kind == PartShards && s.Clients*s.Partition.ShardsPerClient > s.Clients*s.PerClient {
		return fmt.Errorf("scenario: shards partition needs >= %d examples, population has %d",
			s.Clients*s.Partition.ShardsPerClient, s.Clients*s.PerClient)
	}
	if s.Transport.Kind == TransportQuorum && (s.Transport.OnTimeFrac <= 0 || s.Transport.OnTimeFrac > 1) {
		return fmt.Errorf("scenario: quorum on_time_frac must be in (0, 1], got %v", s.Transport.OnTimeFrac)
	}
	if s.Net.Profile != "" {
		if _, ok := profileFor(s.Net); !ok {
			return fmt.Errorf("scenario: unknown net profile %q (mobile|broadband)", s.Net.Profile)
		}
	}
	if s.Params.Clusters < 0 || s.Params.Clusters > 255 {
		return fmt.Errorf("scenario: clusters must be in [1, 255], got %d", s.Params.Clusters)
	}
	if s.Params.Clusters > s.Clients {
		return fmt.Errorf("scenario: %d clusters over %d clients (need clusters <= clients)",
			s.Params.Clusters, s.Clients)
	}
	for _, w := range s.Params.WidthDist {
		if w <= 0 || w > 1 {
			return fmt.Errorf("scenario: width_dist entries must be in (0, 1], got %v", w)
		}
	}
	return nil
}

// partTag is the partition's compact key fragment.
func (p Partition) partTag() string {
	switch p.Kind {
	case PartShards:
		return fmt.Sprintf("sh%d", p.ShardsPerClient)
	case PartWriter:
		return "writer"
	default:
		return fmt.Sprintf("dir%g", p.Alpha)
	}
}

// transportTag is the transport's compact key fragment.
func (t Transport) transportTag() string {
	switch t.Kind {
	case TransportSharded:
		return fmt.Sprintf("tree%d", t.Shards)
	case TransportQuorum:
		return fmt.Sprintf("q%g", t.OnTimeFrac)
	case TransportTCP:
		return "tcp"
	default:
		return "sim"
	}
}

// dimsKey is the cell identity without the seed — the string a matrix
// cell's seed is derived from.
func (s Spec) dimsKey() string {
	s = s.WithDefaults()
	parts := []string{
		s.Algo, s.Dataset, s.Arch,
		fmt.Sprintf("c%d", s.Clients),
		fmt.Sprintf("p%g", s.Participation),
		s.Partition.partTag(),
		s.Transport.transportTag(),
	}
	if s.Churn > 0 {
		parts = append(parts, fmt.Sprintf("ch%g", s.Churn))
	}
	if s.Params.Clusters > 0 {
		parts = append(parts, fmt.Sprintf("k%d", s.Params.Clusters))
	}
	if len(s.Params.WidthDist) > 0 {
		tags := make([]string, len(s.Params.WidthDist))
		for i, w := range s.Params.WidthDist {
			tags[i] = fmt.Sprintf("%d", hetero.WidthMilli(w))
		}
		parts = append(parts, "wd"+strings.Join(tags, "-"))
	}
	return strings.Join(parts, "_")
}

// Key returns the cell's unique, filename-safe identity: the axis
// dimensions plus the seed. Journal files are named <Key>.jsonl.
func (s Spec) Key() string {
	return fmt.Sprintf("%s_s%d", s.dimsKey(), s.WithDefaults().Seed)
}

// Label is the human name for reports: Name when set, else Key.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Key()
}

// DeriveSeed mixes a base seed with a cell key into the cell's own
// seed: deterministic, stable across runs and machines, distinct across
// cells (FNV-1a over the key, xor-folded with the base).
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	seed := int64((h.Sum64() ^ uint64(base)*0x9e3779b97f4a7c15) & 0x7fffffffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// SpecHash is a cell's cache identity: FNV-1a over the canonical JSON
// serialization. Unlike Key it covers every field (hyperparameters,
// rounds, net model, ...), so any spec change — not just the key
// dimensions — invalidates a cached cell result.
func SpecHash(s Spec) string {
	b, err := EncodeJSON(s)
	if err != nil {
		return ""
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeJSON is the canonical spec serialization: two-space indented,
// trailing newline. Encode∘Decode∘Encode is byte-identical.
func EncodeJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeSpec parses one spec, rejecting unknown fields.
func DecodeSpec(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// modelSpec maps the scenario onto a models.Spec (cnn2 is the fixed
// FEMNIST architecture, 62 classes at 28×28 greyscale).
func (s Spec) modelSpec() models.Spec {
	if s.Arch == "cnn2" {
		return models.Spec{Arch: "cnn2", Classes: 62, InC: 1, H: 28, W: 28, Width: s.Width}
	}
	return models.Spec{Arch: s.Arch, Classes: s.Classes, InC: 3, H: s.H, W: s.W, Width: s.Width}
}

// flConfig assembles the simulation config, applying the registry's
// per-algorithm hyperparameter overrides.
func (s Spec) flConfig() fl.Config {
	cfg := fl.Config{
		NumClients:    s.Clients,
		SampleRatio:   s.Participation,
		LocalEpochs:   s.LocalEpochs,
		BatchSize:     s.BatchSize,
		LR:            s.LR,
		Momentum:      s.Momentum,
		WeightDecay:   s.WeightDecay,
		DropRate:      s.Churn,
		HalfPrecision: s.HalfPrecision,
		Seed:          s.Seed,
	}
	ac := s.algoConfig()
	cfg.LR, cfg.ProxMu = ac.LR, ac.ProxMu
	return cfg
}

// topology maps the transport onto the in-process round's shape.
func (s Spec) topology() fl.Topology {
	switch s.Transport.Kind {
	case TransportSharded:
		return fl.Topology{Shards: s.Transport.Shards}
	case TransportQuorum:
		return fl.Topology{OnTimeFrac: s.Transport.OnTimeFrac}
	default:
		return fl.Topology{}
	}
}

// BuildEnv constructs the cell's simulation environment: synthetic
// dataset, non-IID partition, per-client train/val splits, the global
// model, and the in-process topology — with tel (may be nil) installed.
// The seed derivations match the historical experiments harness exactly,
// so refactored drivers reproduce their pre-scenario outputs.
func BuildEnv(spec Spec, tel *telemetry.Set) (*fl.Env, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := spec.flConfig()
	var cd []fl.ClientData
	seed := spec.Seed
	switch spec.Dataset {
	case DataFEMNIST:
		total := spec.Clients * spec.PerClient
		set := data.SynthFEMNIST(data.SynthFEMNISTConfig{Writers: spec.Writers}, total, seed*3+401, seed*7+409)
		parts := data.ByWriterPartition(set, spec.Clients, rand.New(rand.NewSource(seed+13)))
		cd = make([]fl.ClientData, len(parts))
		for i, p := range parts {
			tr, va := set.Subset(p).Split(0.8)
			cd[i] = fl.ClientData{Train: tr, Val: va}
		}
	default: // cifar
		total := spec.Clients * spec.PerClient
		ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: spec.Classes, H: spec.H, W: spec.W, Noise: spec.Noise},
			total, seed*3+101, seed*7+303)
		var parts [][]int
		if spec.Partition.Kind == PartShards {
			parts = data.ShardPartition(ds.Y, spec.Clients, spec.Partition.ShardsPerClient,
				rand.New(rand.NewSource(seed+11)))
		} else {
			parts = data.DirichletPartition(ds.Y, spec.Classes, spec.Clients, spec.Partition.Alpha,
				spec.Partition.MinSize, rand.New(rand.NewSource(seed+11)))
		}
		cd = make([]fl.ClientData, len(parts))
		for i, p := range parts {
			tr, va := ds.Subset(p).Split(0.8)
			cd[i] = fl.ClientData{Train: tr, Val: va}
		}
	}
	env := fl.NewEnv(spec.modelSpec(), cfg, cd)
	env.Topo = spec.topology()
	if tel != nil {
		env.EnableTelemetry(tel)
	}
	return env, nil
}
