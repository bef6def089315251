// Command spatl-node runs federated learning over real TCP — one process
// per role — demonstrating that the algorithms deploy unchanged outside
// the in-process simulator: the server and client cores come from
// internal/algo, the same implementations the simulator drives.
//
// Start a server, then one process per client (here 4 clients):
//
//	spatl-node -role server -addr :7070 -clients 4 -rounds 10
//	spatl-node -role client -addr localhost:7070 -id 0 -of 4
//	spatl-node -role client -addr localhost:7070 -id 1 -of 4
//	...
//
// Every node derives the same synthetic non-IID data split from the
// shared seed, so client i of n always holds shard i. All seven
// algorithms are available via -algo; the server tolerates stragglers
// when -straggler-timeout is set, aggregating each round from the
// clients that reported in time, and -quorum switches it to async
// FedBuff-style rounds that close after that many uploads.
//
// A heterogeneous federation (-algo hetero) maintains -clusters cluster
// models and lets clients train width-sliced sub-networks; -clusters
// and -width must match on every node (the slice specs derive from them
// locally, with no negotiation):
//
//	spatl-node -role server -algo hetero -clusters 2 -width 0.25,0.5,1 -clients 6 -rounds 10
//	spatl-node -role client -algo hetero -clusters 2 -width 0.25,0.5,1 -id 0 -of 6
//	...
//
// At larger scale the federation runs as a two-level aggregation tree:
// a root fans out to edge aggregators, each edge owns a contiguous
// shard of the client-ID space and forwards one pooled payload per
// round (see DESIGN.md §11):
//
//	spatl-node -role root -addr :7071 -shards 2 -clients 4 -rounds 10
//	spatl-node -role edge -addr :7072 -root-addr localhost:7071 -shard 0 -shards 2 -of 4
//	spatl-node -role edge -addr :7073 -root-addr localhost:7071 -shard 1 -shards 2 -of 4
//	spatl-node -role client -addr localhost:7072 -id 0 -of 4
//	...clients 0..1 dial edge 0, clients 2..3 dial edge 1
//
// The tree is a collection topology, not an arithmetic change: a seeded
// run produces the bitwise-identical global model through either shape.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/eval"
	"spatl/internal/flnet"
	"spatl/internal/models"
	"spatl/internal/scenario"
	"spatl/internal/telemetry"
)

func main() {
	var (
		role    = flag.String("role", "", "server | client | root | edge")
		algoF   = flag.String("algo", "fedavg", "federation algorithm: fedavg | fedprox | scaffold | fednova | spatl | ssfl | hetero")
		addr    = flag.String("addr", "localhost:7070", "server address (server: listen, client: dial)")
		clients = flag.Int("clients", 4, "number of clients in the federation")
		id      = flag.Int("id", 0, "this client's id (client)")
		of      = flag.Int("of", 4, "total clients, for data sharding (client)")
		rounds  = flag.Int("rounds", 10, "federated rounds (server)")
		epochs  = flag.Int("epochs", 2, "local epochs per round (client)")
		lr      = flag.Float64("lr", 0.02, "local learning rate (client)")
		seed    = flag.Int64("seed", 1, "shared federation seed (must match across nodes)")
		save    = flag.String("save", "", "write the final model checkpoint here (client)")

		// Per-algorithm hyperparameters, routed through the shared
		// scenario registry — the same knobs spatl-bench matrix cells
		// configure. Must match across every node of a federation.
		mu          = flag.Float64("mu", 0, "fedprox: proximal coefficient override (0 = paper default)")
		keepRatio   = flag.Float64("keep-ratio", 0, "ssfl: kept-channel fraction (0 = default 0.5)")
		algoLR      = flag.Float64("algo-lr", 0, "per-algorithm learning-rate override (takes precedence over -lr)")
		flopsBudget = flag.Float64("flops-budget", 0, "spatl: sub-network FLOPs budget (0 = default 0.6)")

		clusters  = flag.Int("clusters", 0, "hetero: cluster-model count (0 = default 1)")
		widthDist = flag.String("width", "",
			"hetero: comma-separated client width cycle, e.g. 0.25,0.5,1 — client i trains width[i mod len] (empty = full width)")
		reassignEvery = flag.Int("reassign-every", 0, "hetero: cluster reassignment period in rounds (0 = default 5, negative disables)")

		helloTimeout     = flag.Duration("hello-timeout", 30*time.Second, "server: max wait for a client's registration frame")
		stragglerTimeout = flag.Duration("straggler-timeout", 0, "server: max wait for a round upload before dropping the client (0 = wait forever)")
		writeTimeout     = flag.Duration("write-timeout", 30*time.Second, "server: per-broadcast write deadline")
		dialTimeout      = flag.Duration("dial-timeout", 30*time.Second, "client: TCP connect deadline")

		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics (registry JSON), /healthz and /debug/pprof on this address (e.g. :9090)")
		journalPath   = flag.String("journal", "", "append the JSONL round journal to this file")

		quorum   = flag.Int("quorum", 0, "server: close each round once this many uploads arrived; stragglers fold into the next round (0 = synchronous)")
		shards   = flag.Int("shards", 2, "root: number of edge aggregators in the tree")
		shard    = flag.Int("shard", 0, "edge: this edge's shard id (owns clients ShardRange(shard, of, shards))")
		rootAddr = flag.String("root-addr", "localhost:7071", "edge: the tree root's address")
	)
	flag.Parse()
	if *quorum > 0 && *role != "server" {
		// Only the flat server runs quorum rounds; a tree root or an edge
		// would silently ignore the flag.
		fmt.Fprintf(os.Stderr, "spatl-node: -quorum is a server option; -role %s does not take it\n", *role)
		os.Exit(2)
	}

	// Telemetry is optional: with neither flag set, tel stays nil and the
	// whole stack runs with the hooks compiled to a nil-check.
	var tel *telemetry.Set
	if *telemetryAddr != "" || *journalPath != "" {
		var journal *os.File
		if *journalPath != "" {
			var err error
			journal, err = os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer journal.Close()
		}
		if journal != nil {
			tel = telemetry.New(journal)
			defer tel.Journal.Flush()
		} else {
			tel = telemetry.New(nil)
		}
		if *telemetryAddr != "" {
			go func() {
				if err := http.ListenAndServe(*telemetryAddr, telemetry.NewMux(tel.Reg)); err != nil {
					fmt.Fprintln(os.Stderr, "spatl-node: telemetry server:", err)
				}
			}()
			fmt.Printf("telemetry on http://%s/metrics (pprof at /debug/pprof/)\n", *telemetryAddr)
		}
	}

	spec := models.Spec{Arch: "resnet20", Classes: 6, InC: 3, H: 16, W: 16, Width: 0.25}
	// Algorithm construction goes through the scenario registry — the
	// single construction path shared with the in-process simulator and
	// spatl-bench matrix cells.
	entry, err := scenario.Lookup(*algoF)
	if err != nil {
		fatal(fmt.Errorf("unknown -algo %q", *algoF))
	}
	widths, err := parseWidths(*widthDist)
	if err != nil {
		fatal(err)
	}
	params := scenario.Params{
		ProxMu: *mu, KeepRatio: *keepRatio, LR: *algoLR,
		FLOPsBudget: *flopsBudget, Seed: *seed,
		Clusters: *clusters, WidthDist: widths, ReassignEvery: *reassignEvery,
	}
	// The shared hyperparameters; Seed must match across every node so
	// the per-(round, client) training seeds line up. The registry merges
	// the per-algorithm overrides (-mu, -algo-lr, ...) on top.
	cfg := algo.Config{
		NumClients: *clients, LocalEpochs: *epochs, BatchSize: 16,
		LR: *lr, Momentum: 0.9, Seed: *seed,
	}
	if entry.Tune != nil {
		entry.Tune(params, &cfg)
	}

	buildAgg := func(global *models.SplitModel) flnet.Aggregator {
		return entry.NewAggregator(global, params, cfg)
	}

	switch *role {
	case "server":
		srv, err := flnet.NewServer(flnet.ServerConfig{
			Addr: *addr, Clients: *clients, Rounds: *rounds, Seed: *seed,
			HelloTimeout:     *helloTimeout,
			StragglerTimeout: *stragglerTimeout,
			WriteTimeout:     *writeTimeout,
			Quorum:           *quorum,
			Tel:              tel,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spatl-node server listening on %s (%s), waiting for %d clients...\n", srv.Addr(), *algoF, *clients)
		if err := srv.Run(buildAgg(models.Build(spec, *seed))); err != nil {
			fatal(err)
		}
		fmt.Printf("federation finished: %d rounds, uplink %.2f MB, downlink %.2f MB\n",
			*rounds, float64(srv.UpBytes)/(1<<20), float64(srv.DownBytes)/(1<<20))
		if *quorum > 0 {
			fmt.Printf("async quorum %d: %d late uploads folded\n", *quorum, srv.LateUploads())
		}
		for _, st := range srv.ClientStats() {
			if st.Drops > 0 || st.Errors > 0 || !st.Alive {
				fmt.Printf("client %d: alive=%v drops=%d errors=%d\n", st.ID, st.Alive, st.Drops, st.Errors)
			}
		}

	case "root":
		root, err := flnet.NewTreeServer(flnet.TreeServerConfig{
			Addr: *addr, Shards: *shards, Clients: *clients, Rounds: *rounds, Seed: *seed,
			HelloTimeout:     *helloTimeout,
			StragglerTimeout: *stragglerTimeout,
			WriteTimeout:     *writeTimeout,
			Tel:              tel,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spatl-node tree root listening on %s (%s), waiting for %d edges / %d clients...\n",
			root.Addr(), *algoF, *shards, *clients)
		if err := root.Run(buildAgg(models.Build(spec, *seed))); err != nil {
			fatal(err)
		}
		m := root.Meter()
		fmt.Printf("federation finished: %d rounds, client uplink %.2f MB, downlink %.2f MB (relay %.2f / %.2f MB), %d drops\n",
			*rounds, float64(m.Up())/(1<<20), float64(m.Down())/(1<<20),
			float64(m.RelayUp())/(1<<20), float64(m.RelayDown())/(1<<20), root.Drops())
		for sh := 0; sh < *shards; sh++ {
			if d := root.ShardDrops(sh); d > 0 {
				fmt.Printf("shard %d: %d drops\n", sh, d)
			}
		}

	case "edge":
		lo, hi := algo.ShardRange(*shard, *of, *shards)
		edge, err := flnet.NewEdge(flnet.EdgeConfig{
			Addr: *addr, Clients: hi - lo, RootAddr: *rootAddr, Shard: uint32(*shard),
			DialTimeout:      *dialTimeout,
			HelloTimeout:     *helloTimeout,
			StragglerTimeout: *stragglerTimeout,
			WriteTimeout:     *writeTimeout,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spatl-node edge %d/%d listening on %s for clients %d..%d, root %s...\n",
			*shard, *shards, edge.Addr(), lo, hi-1, *rootAddr)
		if err := edge.Run(); err != nil {
			fatal(err)
		}
		fmt.Printf("edge %d done\n", *shard)

	case "client":
		train, val := shardFor(spec, *id, *of, *seed)
		// The model must start from the server's initialization so the
		// federation is reproducible across transports.
		c := &algo.Client{ID: *id, Train: train, Val: val, Model: models.Build(spec, *seed)}
		tr := entry.NewTrainer(c, params, cfg)
		fmt.Printf("spatl-node client %d/%d (%s): %d train / %d val samples, dialing %s...\n",
			*id, *of, *algoF, train.Len(), val.Len(), *addr)
		err := flnet.RunClientOpts(*addr, uint32(*id), train.Len(), tr,
			flnet.ClientOptions{DialTimeout: *dialTimeout, Tel: tel})
		if err != nil {
			fatal(err)
		}
		acc := eval.Accuracy(c.Model, val, 32)
		fmt.Printf("client %d done: local validation accuracy %.3f\n", *id, acc)
		if *save != "" {
			if err := c.Model.SaveFile(*save); err != nil {
				fatal(err)
			}
			fmt.Printf("saved final model to %s\n", *save)
		}

	default:
		fmt.Fprintln(os.Stderr, "spatl-node: -role must be server, client, root or edge")
		os.Exit(2)
	}
}

// parseWidths parses the -width cycle: comma-separated multipliers in
// (0, 1]. Every node of a federation must pass the identical cycle —
// the slice specs are derived locally from it, with no negotiation.
func parseWidths(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || w <= 0 || w > 1 {
			return nil, fmt.Errorf("bad -width entry %q (want multipliers in (0, 1])", f)
		}
		out = append(out, w)
	}
	return out, nil
}

// shardFor regenerates the shared dataset and returns client id's shard
// — every node computes the identical partition from the seed.
func shardFor(spec models.Spec, id, of int, seed int64) (train, val *data.Dataset) {
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: spec.Classes, H: spec.H, W: spec.W},
		of*150, seed*3+101, seed*7+303)
	parts := data.DirichletPartition(ds.Y, spec.Classes, of, 0.5, 10, rand.New(rand.NewSource(seed+11)))
	return ds.Subset(parts[id]).Split(0.8)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spatl-node:", err)
	os.Exit(1)
}
