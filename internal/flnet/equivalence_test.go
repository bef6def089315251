package flnet

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/hetero"
	"spatl/internal/models"
	"spatl/internal/rl"
	"spatl/internal/telemetry"
)

// TestCrossTransportEquivalence is the contract of the unified algorithm
// layer: for every algorithm, a federation simulated in-process
// (internal/fl) and one run over loopback TCP (this package) must
// produce bitwise-identical global models, meter identical uplink
// payload bytes, and — with timestamps zeroed — emit byte-identical
// round journals: same cores, same per-(round, client) seeds, same
// lifecycle event sequence, different transport.
func TestCrossTransportEquivalence(t *testing.T) {
	const (
		clients = 3
		rounds  = 2
		classes = 4
		seed    = 33
	)
	spatlOpts := algo.SPATLOptions{AgentCfg: rl.AgentConfig{Dim: 8, HeadHidden: 8, Seed: 6}}
	heteroOpts := hetero.Options{Clusters: 2, Widths: []float64{0.25, 0.5, 1.0}, ReassignEvery: 2}

	mlp := models.Spec{Arch: "mlp", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.5}
	resnet := models.Spec{Arch: "resnet20", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.25}

	// One constructor pair per case: the simulation runs it as an
	// fl.Federation, the TCP server and clients take it as it is.
	cases := []struct {
		name string
		spec models.Spec
		agg  func(g *models.SplitModel, cfg algo.Config) Aggregator
		tr   func(c *algo.Client, cfg algo.Config) Trainer
		// rounds overrides the default round count (0 = default). SSFL
		// needs three: agreement, the index-bearing sparse round, and a
		// values-only round — every wire phase must match bitwise.
		rounds int
	}{
		{
			name: "fedavg", spec: mlp,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator { return algo.NewFedAvgAggregator(g, cfg) },
			tr:  func(c *algo.Client, cfg algo.Config) Trainer { return algo.NewFedAvgTrainer(c, cfg) },
		},
		{
			// The dense path on a conv model: batchnorm state, conv
			// gradient shards and the implicit-GEMM step all cross the wire
			// here, where the mlp cases exercise none of them.
			name: "fedavg-resnet20", spec: resnet,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator { return algo.NewFedAvgAggregator(g, cfg) },
			tr:  func(c *algo.Client, cfg algo.Config) Trainer { return algo.NewFedAvgTrainer(c, cfg) },
		},
		{
			name: "fedprox", spec: mlp,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator { return algo.NewFedAvgAggregator(g, cfg) },
			tr:  func(c *algo.Client, cfg algo.Config) Trainer { return algo.NewFedProxTrainer(c, cfg) },
		},
		{
			name: "scaffold", spec: mlp,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator { return algo.NewSCAFFOLDAggregator(g, cfg) },
			tr:  func(c *algo.Client, cfg algo.Config) Trainer { return algo.NewSCAFFOLDTrainer(c, cfg) },
		},
		{
			name: "fednova", spec: mlp,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator { return algo.NewFedNovaAggregator(g, cfg) },
			tr:  func(c *algo.Client, cfg algo.Config) Trainer { return algo.NewFedNovaTrainer(c, cfg) },
		},
		{
			name: "spatl", spec: resnet,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator {
				return algo.NewSPATLAggregator(g, spatlOpts, cfg)
			},
			tr: func(c *algo.Client, cfg algo.Config) Trainer {
				return algo.NewSPATLTrainer(c, spatlOpts, cfg)
			},
		},
		{
			name: "ssfl", spec: resnet, rounds: 3,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator {
				return algo.NewSSFLAggregator(g, algo.SSFLOptions{}, cfg)
			},
			tr: func(c *algo.Client, cfg algo.Config) Trainer {
				return algo.NewSSFLTrainer(c, algo.SSFLOptions{}, cfg)
			},
		},
		{
			// Three rounds cross one reassignment boundary (ReassignEvery=2
			// commits after round 1), so the post-reassignment broadcast
			// must also match bitwise across transports.
			name: "hetero", spec: resnet, rounds: 3,
			agg: func(g *models.SplitModel, cfg algo.Config) Aggregator {
				return hetero.NewAggregator(g, heteroOpts, cfg)
			},
			tr: func(c *algo.Client, cfg algo.Config) Trainer {
				return hetero.NewTrainer(c, heteroOpts, cfg)
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rounds := rounds
			if tc.rounds != 0 {
				rounds = tc.rounds
			}
			ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*60, 1, 2)
			parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))
			cd := make([]fl.ClientData, clients)
			for i := range cd {
				cd[i].Train, cd[i].Val = ds.Subset(parts[i]).Split(0.8)
			}

			// In-process simulation, full participation.
			env := fl.NewEnv(tc.spec, fl.Config{
				NumClients: clients, SampleRatio: 1, LocalEpochs: 1,
				BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: seed,
			}, cd)
			var simJournal bytes.Buffer
			simTel := telemetry.New(&simJournal)
			simTel.Journal.SetZeroTime(true)
			env.EnableTelemetry(simTel)
			cfg := env.AlgoConfig()
			all := make([]int, clients)
			for i := range all {
				all[i] = i
			}
			alg := fl.NewAlgorithm(tc.name, tc.agg, tc.tr)
			alg.Setup(env)
			for r := 0; r < rounds; r++ {
				alg.Round(env, r, all)
			}

			// The identical federation over TCP: same global init, same
			// client init (mirrors fl.NewEnv), same hyperparameters.
			var tcpJournal bytes.Buffer
			tcpTel := telemetry.New(&tcpJournal)
			tcpTel.Journal.SetZeroTime(true)
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: seed,
				Tel: tcpTel,
			})
			if err != nil {
				t.Fatal(err)
			}
			global := models.Build(tc.spec, seed)
			globalInit := global.State(models.ScopeAll)
			serverErr := make(chan error, 1)
			go func() { serverErr <- srv.Run(tc.agg(global, cfg)) }()

			var wg sync.WaitGroup
			errs := make([]error, clients)
			for i := 0; i < clients; i++ {
				m := models.Build(tc.spec, seed+int64(1000+i))
				m.SetState(models.ScopeAll, globalInit)
				trainer := tc.tr(&algo.Client{ID: i, Train: cd[i].Train, Val: cd[i].Val, Model: m}, cfg)
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = RunClient(srv.Addr(), uint32(i), cd[i].Train.Len(), trainer)
				}(i)
			}
			wg.Wait()
			if err := <-serverErr; err != nil {
				t.Fatalf("server: %v", err)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", i, err)
				}
			}

			simState := env.Global.State(models.ScopeAll)
			tcpState := global.State(models.ScopeAll)
			if len(simState) != len(tcpState) {
				t.Fatalf("state length %d vs %d", len(simState), len(tcpState))
			}
			for j := range simState {
				if math.Float32bits(simState[j]) != math.Float32bits(tcpState[j]) {
					t.Fatalf("global state[%d] differs bitwise: %x (sim) vs %x (tcp)",
						j, math.Float32bits(simState[j]), math.Float32bits(tcpState[j]))
				}
			}
			if up := env.Meter.Up(); up != srv.UpPayloadBytes {
				t.Fatalf("uplink payload bytes differ: %d (sim) vs %d (tcp)", up, srv.UpPayloadBytes)
			}

			// The two transports must have journaled the identical event
			// sequence — byte-for-byte, with timestamps zeroed.
			if err := simTel.Journal.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tcpTel.Journal.Flush(); err != nil {
				t.Fatal(err)
			}
			if simJournal.Len() == 0 {
				t.Fatal("sim journal is empty")
			}
			if !bytes.Equal(simJournal.Bytes(), tcpJournal.Bytes()) {
				t.Fatalf("journals diverge across transports:\nsim:\n%s\ntcp:\n%s",
					simJournal.Bytes(), tcpJournal.Bytes())
			}
		})
	}
}
