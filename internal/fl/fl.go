// Package fl is the federated-learning simulation framework: clients
// with private non-IID data, a central aggregation server, and one round
// (Sim) with client sampling, parallel local updates, failure injection
// and an in-process topology, driving whichever aggregator/trainer pair
// from internal/algo it is handed. Every algorithm — SPATL and the
// baselines it is compared against — runs as the same Federation over
// the same round, so comparisons share one harness.
//
// Communication is routed through internal/comm so every reported byte
// was actually serialized. The headline "communication cost" follows the
// paper's accounting: uplink (client → server) volume per round.
package fl

import (
	"fmt"
	"math/rand"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/data"
	"spatl/internal/models"
	"spatl/internal/nn"
	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// Config holds the federated-learning hyperparameters shared by all
// algorithms. The defaults follow §V-A of the paper where applicable
// (10 local update epochs, momentum SGD).
type Config struct {
	NumClients  int
	SampleRatio float64 // fraction of clients participating per round
	LocalEpochs int     // local update epochs per round (paper: 10)
	BatchSize   int
	LR          float64
	// LRSchedule, when set, overrides LR per communication round
	// (nn.ConstantLR, StepLR, CosineLR, WarmupLR...).
	LRSchedule  nn.Schedule
	Momentum    float64
	WeightDecay float64
	ProxMu      float64 // FedProx proximal coefficient
	GradClip    float64 // global-norm gradient clip; 0 disables
	// DropRate is the probability that a selected client crashes after
	// downloading and never uploads its round result — straggler/failure
	// injection for robustness testing. 0 disables.
	DropRate float64
	// HalfPrecision ships all payloads as IEEE 754 binary16, halving
	// wire volume (an extension beyond the paper; composes with salient
	// selection).
	HalfPrecision bool
	Seed          int64
}

// WithDefaults fills zero fields with the standard settings.
func (c Config) WithDefaults() Config {
	if c.NumClients == 0 {
		c.NumClients = 10
	}
	if c.SampleRatio == 0 {
		c.SampleRatio = 1
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// Client is one edge device; it aliases the transport-agnostic
// algo.Client so simulation code and algorithm cores share the type.
type Client = algo.Client

// Topology is the in-process round's shape, read by Sim.Round as two
// values. The zero value is flat, synchronous collection.
type Topology struct {
	// Shards is the collection-tree width; 0 collects flat, one hop.
	Shards int
	// OnTimeFrac is the fraction of a round's uploads that beat the
	// quorum close; the rest fold into the next round as late uploads.
	// 0 or >=1 makes every upload on time.
	OnTimeFrac float64
}

// Env is the shared simulation environment: the server's global model,
// all clients, the communication meter and the experiment RNG.
type Env struct {
	Cfg     Config
	Spec    models.Spec
	Clients []*Client
	Global  *models.SplitModel
	Meter   *comm.Meter
	Rng     *rand.Rand

	// Topo shapes the in-process round (see Sim). The zero value is
	// flat and synchronous.
	Topo Topology

	// Tel, when set via EnableTelemetry, receives spans, metrics and
	// journal events from the round loop and every wired algorithm core.
	// Nil keeps the whole stack telemetry-free.
	Tel *telemetry.Set
}

// EnableTelemetry installs a telemetry set on the environment: the
// communication meter's counters are exposed through the registry under
// "comm.*", the tensor worker-pool gauges under "tensor.pool.*", and
// every Sim built afterwards wires its algorithm cores into the set.
func (e *Env) EnableTelemetry(s *telemetry.Set) {
	e.Tel = s
	if s == nil || s.Reg == nil {
		return
	}
	e.Meter.Bind(s.Reg, "comm")
	tensor.BindPoolMetrics(s.Reg)
}

// ClientData is the per-client dataset pair handed to NewEnv.
type ClientData struct {
	Train, Val *data.Dataset
}

// NewEnv builds a simulation environment: the global model from
// cfg.Seed, and one client model per dataset pair (initialized to the
// same weights as the global model).
func NewEnv(spec models.Spec, cfg Config, cd []ClientData) *Env {
	cfg = cfg.WithDefaults()
	if len(cd) != cfg.NumClients {
		panic(fmt.Sprintf("fl: %d client datasets for %d clients", len(cd), cfg.NumClients))
	}
	env := &Env{
		Cfg:    cfg,
		Spec:   spec,
		Global: models.Build(spec, cfg.Seed),
		Meter:  &comm.Meter{},
		Rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	init := env.Global.State(models.ScopeAll)
	for i, d := range cd {
		m := models.Build(spec, cfg.Seed+int64(1000+i))
		m.SetState(models.ScopeAll, init)
		env.Clients = append(env.Clients, &Client{ID: i, Train: d.Train, Val: d.Val, Model: m})
	}
	return env
}

// SampleClients draws the participating client set for a round: a
// uniform sample without replacement of ceil(ratio·N) clients, at least
// one, sorted ascending. The slice is fresh: Run keeps it in its record.
func (e *Env) SampleClients() []int {
	n := int(float64(e.Cfg.NumClients)*e.Cfg.SampleRatio + 0.5)
	if n < 1 {
		n = 1
	}
	if n > e.Cfg.NumClients {
		n = e.Cfg.NumClients
	}
	return algo.SampleSorted(nil, e.Rng, e.Cfg.NumClients, n)
}

// LRAt returns the learning rate for a communication round, honouring
// the schedule when one is configured.
func (e *Env) LRAt(round int) float64 {
	if e.Cfg.LRSchedule != nil {
		return e.Cfg.LRSchedule.LRAt(round)
	}
	return e.Cfg.LR
}

// AlgoConfig projects the simulation config onto the hyperparameters an
// algorithm core needs (algo.Config drops the transport-owned knobs:
// sampling ratio and drop injection).
func (e *Env) AlgoConfig() algo.Config {
	return algo.Config{
		NumClients:    e.Cfg.NumClients,
		LocalEpochs:   e.Cfg.LocalEpochs,
		BatchSize:     e.Cfg.BatchSize,
		LR:            e.Cfg.LR,
		LRSchedule:    e.Cfg.LRSchedule,
		Momentum:      e.Cfg.Momentum,
		WeightDecay:   e.Cfg.WeightDecay,
		ProxMu:        e.Cfg.ProxMu,
		GradClip:      e.Cfg.GradClip,
		HalfPrecision: e.Cfg.HalfPrecision,
		Seed:          e.Cfg.Seed,
	}
}

// ClientFailed reports whether failure injection drops this client's
// upload this round. Deterministic in (seed, round, client) so runs are
// reproducible.
func (e *Env) ClientFailed(round, clientID int) bool {
	if e.Cfg.DropRate <= 0 {
		return false
	}
	rng := rand.New(rand.NewSource(algo.ClientSeed(e.Cfg.Seed, round, clientID) ^ 0x5ca1ab1e))
	return rng.Float64() < e.Cfg.DropRate
}

// Federation is one federated-learning method: an aggregator and one
// trainer per client, built from the environment by two constructors and
// run on the one Sim. Every algorithm — the registry's
// (internal/scenario) and ad-hoc variants alike — is a Federation; what
// differs between them is the pair of cores.
type Federation struct {
	name       string
	newAgg     func(global *models.SplitModel, cfg algo.Config) algo.Aggregator
	newTrainer func(c *Client, cfg algo.Config) algo.Trainer
	sim        *Sim
}

// NewAlgorithm names a pair of core constructors as a Federation. The
// constructors may return their concrete types, so the cores' own
// (algo.NewFedAvgAggregator, algo.NewFedAvgTrainer) pass as they are.
func NewAlgorithm[A algo.Aggregator, T algo.Trainer](name string,
	newAgg func(global *models.SplitModel, cfg algo.Config) A,
	newTrainer func(c *Client, cfg algo.Config) T) *Federation {
	return &Federation{
		name:       name,
		newAgg:     func(g *models.SplitModel, cfg algo.Config) algo.Aggregator { return newAgg(g, cfg) },
		newTrainer: func(c *Client, cfg algo.Config) algo.Trainer { return newTrainer(c, cfg) },
	}
}

// Name returns the algorithm's name.
func (f *Federation) Name() string { return f.name }

// Setup builds the cores around the environment's global model and
// clients and wires them into a Sim. Call it once before the first
// round.
func (f *Federation) Setup(env *Env) {
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, len(env.Clients))
	for i, c := range env.Clients {
		trainers[i] = f.newTrainer(c, cfg)
	}
	f.sim = NewSim(env, f.newAgg(env.Global, cfg), trainers)
}

// Round runs one communication round over the selected clients,
// mutating the environment (global model, client state, communication
// meter).
func (f *Federation) Round(env *Env, round int, selected []int) { f.sim.Round(round, selected) }

// EvalModel returns the model client c would deploy — the global model
// for the uniform-model baselines, the personalized encoder+predictor
// composition for SPATL — by asking the aggregator (see DeployedModel).
func (f *Federation) EvalModel(env *Env, c *Client) *models.SplitModel {
	return DeployedModel(f.sim.Agg, env.Global, c)
}

// Aggregator returns the live aggregator, for harness code that needs a
// core's extras (control variates, the agreed selection, cluster
// assignments): assert the concrete type. Valid after Setup.
func (f *Federation) Aggregator() algo.Aggregator { return f.sim.Agg }

// Trainers returns the live per-client trainers, indexed by client ID.
func (f *Federation) Trainers() []algo.Trainer { return f.sim.Trainers }

// deployer is the optional method of an aggregator whose clients do not
// all deploy the global model: SPATL and SSFL clients keep private
// predictors, a hetero client deploys its cluster's model.
type deployer interface {
	InstallClientModel(id int, m *models.SplitModel)
}

// DeployedModel returns the model client c deploys after a round of
// agg's federation, on whichever transport it ran: a deployer installs
// it into c's own model; every other aggregator's clients deploy global.
func DeployedModel(agg algo.Aggregator, global *models.SplitModel, c *Client) *models.SplitModel {
	if d, ok := agg.(deployer); ok {
		d.InstallClientModel(c.ID, c.Model)
		return c.Model
	}
	return global
}
