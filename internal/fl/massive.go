package fl

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// MassiveSim federates hundreds of thousands to a million simulated
// clients in one process. Real clients (models, datasets, SGD) cost
// megabytes each; at 100k+ that is not a simulation, it is an OOM. A
// massive client is three integers — ID, train size, seed — and its
// round upload is synthesized as a patched copy of the round broadcast:
// a valid dense payload, unique per (round, client), produced by memcpy
// instead of training. What remains real is everything this repo's
// server side is: the aggregator core, the shard-pooling wire format,
// the quorum/late-fold semantics and the telemetry. That is the point —
// MassiveSim exists to exercise and benchmark federation mechanics at
// a scale where per-upload overhead dominates.
//
// Rounds run through the sharded collection tree (algo.ShardBuffer →
// FoldShards order) exactly as a sharded Sim does. With OnTimeFrac < 1 the
// round closes at quorum: the deterministic late fraction of sampled
// uploads misses the round and folds into the next one (FedBuff-style),
// journaled as late_upload events and counted in "fl.late_uploads".
//
// A run's memory is one piece of a shard's relay frame, reused for
// every piece, shard, round and call, and nothing that grows with the
// shards or the stragglers: a shard's frame is relayed and folded piece
// by piece, and a straggler is recorded as (client, train size) and its
// upload synthesized when it lands in the next round.
type MassiveConfig struct {
	Clients  int // total simulated clients
	PerRound int // sampled per round (0 = all)
	Shards   int // aggregation-tree width (0 = 1)
	Rounds   int

	// OnTimeFrac is the fraction of sampled uploads that arrive before
	// the quorum closes the round; the rest arrive during the next
	// round and fold late. 0 or 1 keeps every upload synchronous.
	OnTimeFrac float64

	// Spec is the synthetic model; the zero value builds a small MLP.
	Spec models.Spec
	Seed int64

	// FlatCollect bypasses the shard layer: uploads are collected one
	// by one in selection order, the flat server's code path. The
	// baseline for the sharded-vs-flat federation benchmarks.
	FlatCollect bool

	// PerClientEvents journals client_upload per accepted upload. At
	// 100k sampled clients that is 100k journal lines per round, so it
	// is opt-in; shard/round lifecycle events are always emitted.
	PerClientEvents bool

	Tel *telemetry.Set
}

// MassiveResult summarizes a massive federation run.
type MassiveResult struct {
	Rounds      int
	Folded      int64 // uploads folded across all rounds (on-time + late)
	Late        int64 // uploads folded one round after they were computed
	FinalState  []float32
	UpBytes     int64
	RelayBytes  int64
	ShardPushes int64
}

// massivePieceBytes bounds one piece of a relay frame: the uploads
// synthesized together and folded before the next piece overwrites
// them. A piece stays in a core's private cache from its synthesis to
// its fold, so neither the round's speed nor its spread depends on how
// much of a shared last-level cache other processes leave the run. A
// whole ingest_10k shard (≈ 59 MB) did not fit that way, and its rounds
// ran up to 1.4× slower from one run to the next.
const massivePieceBytes = 512 << 10

// massiveArena is what a RunMassive call writes into, drawn from the
// package's spare and put back on return, so neither a round nor a call
// allocates a buffer that grows with the clients. shard is the
// arena proper: one piece of a relay frame, reused for every piece of
// every shard and, before a round's shards, for the landing stragglers.
// late and lateBcast are the stragglers awaiting the next round and the
// broadcast they trained on: a straggler is recorded as who sent it and
// with what weight, its payload nil until it lands. Its bytes are a pure function of that
// broadcast and (round, client), so they are synthesized then, and as
// on a real server nothing of a straggler is held before it arrives.
type massiveArena struct {
	shard     algo.ShardBuffer
	entries   []algo.Upload // a piece's entries, decoded for the fold
	ups       []algo.Upload // the piece's on-time uploads
	perm      []int
	ids       []uint32
	late      []algo.Upload
	lateBcast []byte
}

// massiveSpare is the package's arena pool: the arena the last
// RunMassive call returned, kept for the next. One slot, not a
// sync.Pool: a Pool does not show a Put made on one P to a Get on
// another, and each such miss would allocate the arena anew.
var massiveSpare struct {
	sync.Mutex
	arena *massiveArena
}

// takeArena draws the spare arena, or a new one when another call
// holds it.
func takeArena() *massiveArena {
	massiveSpare.Lock()
	defer massiveSpare.Unlock()
	a := massiveSpare.arena
	massiveSpare.arena = nil
	if a == nil {
		a = new(massiveArena)
	}
	return a
}

// returnArena makes a the spare.
func returnArena(a *massiveArena) {
	a.late = a.late[:0] // the last round's stragglers never land
	massiveSpare.Lock()
	massiveSpare.arena = a
	massiveSpare.Unlock()
}

// permInto is rand.Perm(n) written into dst's storage: the same draws
// in the same order, so the selection and the generator's state are
// rand.Perm's.
func permInto(dst []int, r *rand.Rand, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// synthUploads writes each upload's payload for round: a copy of that
// round's broadcast with one client-and-round-specific float patched —
// a valid dense payload without any training. One goroutine writes a
// whole piece, so it sits in that core's cache when the fold reads it.
func synthUploads(ups []algo.Upload, bcast []byte, round, nState int) {
	for _, up := range ups {
		ci := int(up.Client)
		copy(up.Payload, bcast)
		comm.PatchDensePayload(up.Payload, ci%nState, float32(round+1)*(1+float32(ci%997)/997))
	}
}

// massiveOnTime deterministically decides whether a sampled client's
// upload beats the quorum deadline this round: a stateless draw — the
// splitmix64 finalizer of the (seed, round, client) training seed,
// its top 53 bits read as a uniform in [0, 1) and compared to frac. One
// function shared by RunMassive and Sim; no generator is seeded,
// so deciding costs a few multiplies per upload.
func massiveOnTime(seed int64, round, client int, frac float64) bool {
	if frac <= 0 || frac >= 1 {
		return true
	}
	z := uint64(algo.ClientSeed(seed, round, client)) ^ 0x1a7e
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < frac
}

// RunMassive executes a massive synthetic federation and returns its
// summary. The run is deterministic in the config: same config, same
// final state bitwise, whatever the shard count (the sharded fold is
// order-identical to flat collect). Which uploads miss a round's quorum
// is the lateness draw massiveOnTime: per (Seed, round, client), a hash
// of the client's training seed compared to OnTimeFrac — independent
// across uploads, so the late share of a round is OnTimeFrac only in
// expectation.
func RunMassive(cfg MassiveConfig) (*MassiveResult, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fl: massive sim needs positive Clients and Rounds")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	spec := cfg.Spec
	if spec.Arch == "" {
		spec = models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5}
	}
	global := models.Build(spec, cfg.Seed)
	agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: cfg.Clients, Seed: cfg.Seed})
	tel := cfg.Tel
	algo.Wire(tel, agg)
	var lateCtr telemetry.Counter
	if tel != nil && tel.Reg != nil {
		tel.Reg.Attach("fl.late_uploads", &lateCtr)
	}
	nState := global.StateLen(models.ScopeAll)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &MassiveResult{Rounds: cfg.Rounds}

	a := takeArena()
	defer returnArena(a)
	// Every upload is a dense payload of the whole state; the arena
	// holds one piece of them, whatever the shard and straggler counts.
	piece := max(1, massivePieceBytes/comm.DenseLen(nState))
	sb := &a.shard
	trainSize := func(ci int) int { return 50 + ci%101 }
	for round := 0; round < cfg.Rounds; round++ {
		bcast := agg.Broadcast(round)
		a.perm = permInto(a.perm, rng, cfg.Clients)
		selected := a.perm[:cfg.PerRound]
		sort.Ints(selected)
		a.ids = a.ids[:0]
		for _, ci := range selected {
			a.ids = append(a.ids, uint32(ci))
		}
		agg.BeginRound(round, a.ids)
		tel.Emit(telemetry.RoundStart(round, len(selected), int64(len(bcast))))

		// Stragglers from the previous round land first: fold them into
		// this round before its own collect, FedBuff-style, in the order
		// they were deferred. CollectLate bypasses the streaming cursor,
		// so a late upload never consumes the slot of a client also
		// selected this round. Each is synthesized as it lands, from the
		// broadcast it trained on, into the arena: a piece at a time,
		// each piece's entries free again once CollectLate has folded
		// them.
		n := len(a.lateBcast)
		for lo := 0; lo < len(a.late); lo += piece {
			landing := a.late[lo:min(lo+piece, len(a.late))]
			sb.Reset()
			sb.Grow(len(landing), len(landing)*n)
			for i, up := range landing {
				landing[i].Payload = sb.Reserve(up.Client, up.TrainSize, n)
			}
			synthUploads(landing, a.lateBcast, round-1, nState)
			for _, up := range landing {
				lateCtr.Inc()
				res.Late++
				res.Folded++
				res.UpBytes += int64(n)
				tel.Emit(telemetry.LateUpload(round, int(up.Client), int64(n)))
				agg.CollectLate(round, up.Client, up.TrainSize, up.Payload)
			}
		}
		clear(a.late)
		a.late = a.late[:0]
		a.lateBcast = append(a.lateBcast[:0], bcast...) // this round's stragglers trained on it

		// Shard-major collection, identical order to a sharded Sim. A
		// shard's relay frame is built and folded a piece at a time: its
		// on-time uploads are synthesized where they will be read, in
		// their reserved entries of the arena, and the piece's entries
		// are decoded and collected before the next piece overwrites
		// them. The pieces concatenated are the shard's frame byte for
		// byte, and the fold is chunk-invariant, so the result is that of
		// one whole frame; the shard is pushed once, when its last piece
		// is relayed. A straggler is recorded as who and how heavy,
		// nothing more. FlatCollect bypasses the shard layer: one Collect
		// per upload, straight from its entry.
		onTime := 0
		collected := 0
		pos := 0
		for sh := 0; sh < cfg.Shards; sh++ {
			_, shardHi := algo.ShardRange(sh, cfg.Clients, cfg.Shards)
			lo := pos
			for pos < len(selected) && selected[pos] < shardHi {
				pos++
			}
			if pos == lo {
				continue
			}
			pushed, pushedBytes := 0, 0
			for pieceLo := lo; pieceLo < pos; pieceLo += piece {
				sb.Reset()
				sb.Grow(piece, piece*len(bcast))
				a.ups = a.ups[:0]
				for _, ci := range selected[pieceLo:min(pieceLo+piece, pos)] {
					up := algo.Upload{Client: uint32(ci), TrainSize: trainSize(ci)}
					if !massiveOnTime(cfg.Seed, round, ci, cfg.OnTimeFrac) {
						// Missed the quorum close: folds next round, so this
						// round's cursor must not wait for it.
						agg.MarkAbsent(round, up.Client)
						a.late = append(a.late, up)
						continue
					}
					onTime++
					res.UpBytes += int64(len(bcast))
					if cfg.PerClientEvents {
						tel.Emit(telemetry.ClientUpload(round, ci, int64(len(bcast)), 0))
					}
					up.Payload = sb.Reserve(up.Client, up.TrainSize, len(bcast))
					a.ups = append(a.ups, up)
				}
				synthUploads(a.ups, bcast, round, nState)
				if cfg.FlatCollect {
					for _, up := range a.ups {
						agg.Collect(round, up.Client, up.TrainSize, up.Payload)
					}
					collected += len(a.ups)
				} else {
					a.entries, _ = algo.ShardEntries(a.entries[:0], sb.Payload())
					algo.CollectAll(agg, round, a.entries)
					collected += len(a.entries)
					pushed += sb.Len()
					pushedBytes += len(sb.Payload())
					clear(a.entries)
				}
				clear(a.ups) // nothing but the shard buffer refers to the arena between pieces
			}
			if cfg.FlatCollect {
				continue
			}
			res.RelayBytes += int64(pushedBytes)
			res.ShardPushes++
			tel.Emit(telemetry.ShardPush(round, sh, pushed, int64(pushedBytes)))
		}
		res.Folded += int64(collected)
		if cfg.OnTimeFrac > 0 && cfg.OnTimeFrac < 1 {
			tel.Emit(telemetry.Quorum(round, onTime))
		}
		agg.FinishRound(round)
		tel.Emit(telemetry.Aggregate(round, collected, 0))
		tel.Emit(telemetry.RoundEnd(round, res.UpBytes, 0))
	}
	res.FinalState = global.State(models.ScopeAll)
	return res, nil
}
