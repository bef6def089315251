package fl

import (
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/telemetry"
)

// Sim is the in-process transport: it drives a transport-agnostic
// algorithm core (algo.Aggregator + one algo.Trainer per client) through
// one communication round, adding what a simulated network contributes —
// comm.Meter byte accounting, deterministic failure injection
// (Config.DropRate), parallel client execution, and the topology read
// from Env.Topo: a two-level collection tree when Shards > 0, rounds
// that close at quorum when 0 < OnTimeFrac < 1, both when both.
//
// With shards, clients are partitioned into contiguous shards of the
// client-index order — the in-process analog of flnet's TreeServer +
// Edge — and each shard pools its round uploads into an
// algo.ShardBuffer, the wire format an edge forwards, before they fold.
// Selections are sorted ascending, so shard-major order is selection
// order and the fold is bitwise identical to the flat one at any shard
// count. Client-facing traffic meters into comm up/down either way; the
// pooled shard payloads and the per-edge broadcasts go to the meter's
// relay counters.
//
// With a quorum, which uploads miss a round's close is decided
// deterministically per (seed, round, client) — massiveOnTime, the draw
// RunMassive uses — and a straggler's upload folds into the next round
// instead of being lost (FedBuff-style). Unlike the TCP server's
// wall-clock-raced quorum, a seeded run is bitwise reproducible.
//
// Uploads are collected sequentially in selection order after the
// parallel training phase, so aggregation stays deterministic regardless
// of scheduling. Journal events follow the same rule: the parallel phase
// only measures durations into a slice; every Emit happens from this
// sequential code. Per round: round_start; late_upload per straggler
// carried over from the previous round, in the order they were deferred;
// per selected client, in selection order, client_upload or drop, with
// one shard_push closing each shard's span; quorum_reached; aggregate;
// round_end. That is what makes a seeded run's zero-time journal
// reproducible and byte-identical to flnet's flat server and tree (see
// the cross-transport journal tests).
type Sim struct {
	Env      *Env
	Agg      algo.Aggregator
	Trainers []algo.Trainer // indexed by client ID

	// pending holds the stragglers' uploads awaiting the next round, each
	// payload a pooled copy: a trained upload, unlike RunMassive's, cannot
	// be synthesized when it lands.
	pending []algo.Upload
	shard   algo.ShardBuffer
	entries []algo.Upload
}

// NewSim wires an aggregator and per-client trainers into a Sim,
// installing the environment's telemetry set (if any) on every core.
func NewSim(env *Env, agg algo.Aggregator, trainers []algo.Trainer) *Sim {
	if env.Tel != nil {
		cores := make([]any, 0, len(trainers)+1)
		cores = append(cores, agg)
		for _, t := range trainers {
			cores = append(cores, t)
		}
		algo.Wire(env.Tel, cores...)
	}
	return &Sim{Env: env, Agg: agg, Trainers: trainers}
}

// Round runs one communication round over the selected clients (sorted
// ascending).
func (s *Sim) Round(round int, selected []int) {
	env := s.Env
	tel := env.Tel
	shards, frac := env.Topo.Shards, env.Topo.OnTimeFrac
	payload := s.Agg.Broadcast(round)
	ids := make([]uint32, len(selected))
	for i, ci := range selected {
		ids[i] = uint32(ci)
	}
	s.Agg.BeginRound(round, ids)
	tel.Emit(telemetry.RoundStart(round, len(selected), int64(len(payload))))

	// Stragglers from the previous round land first. CollectLate
	// bypasses the streaming cursor — a late upload never consumes the
	// slot of a client also selected this round — and is the payload
	// copy's last use.
	collected := 0
	for _, lu := range s.pending {
		env.Meter.AddUp(len(lu.Payload))
		tel.Emit(telemetry.LateUpload(round, int(lu.Client), int64(len(lu.Payload))))
		s.Agg.CollectLate(round, lu.Client, lu.TrainSize, lu.Payload)
		comm.PutBuf(lu.Payload)
		collected++
	}
	clear(s.pending)
	s.pending = s.pending[:0]

	ups := make([][]byte, len(selected))
	durs := make([]int64, len(selected))
	sizes := make([]int, len(selected))
	for pos, ci := range selected {
		sizes[pos] = env.Clients[ci].Train.Len()
	}
	ParallelClients(sizes, func(pos int) {
		ci := selected[pos]
		env.Meter.AddDown(len(payload))
		if env.ClientFailed(round, ci) {
			return // crashed after download: upload lost
		}
		t0 := time.Now()
		ups[pos] = s.Trainers[ci].LocalUpdate(round, payload)
		durs[pos] = time.Since(t0).Nanoseconds()
	})

	// One pass in selection order, cut into one span per shard — or a
	// single span holding everything when the topology is flat.
	onTime := 0
	for sh, lo := 0, 0; sh < max(shards, 1); sh++ {
		hi := len(selected)
		if shards > 0 {
			_, shardHi := algo.ShardRange(sh, env.Cfg.NumClients, shards)
			hi = lo
			for hi < len(selected) && selected[hi] < shardHi {
				hi++
			}
		}
		if hi == lo {
			continue // no clients sampled from this shard
		}
		if shards > 0 {
			env.Meter.AddRelayDown(len(payload)) // one broadcast per participating edge
			s.shard.Reset()
		}
		for pos := lo; pos < hi; pos++ {
			ci := selected[pos]
			up, trainSize := ups[pos], env.Clients[ci].Train.Len()
			if up == nil {
				s.Agg.MarkAbsent(round, uint32(ci))
				tel.Emit(telemetry.Drop(round, ci))
				continue
			}
			if !massiveOnTime(env.Cfg.Seed, round, ci, frac) {
				// Missed the quorum close: it folds into the NEXT round's
				// stream, so this round's cursor must not wait for it. The
				// payload is owned by the trainer and reused next round, so
				// defer a pooled copy.
				s.Agg.MarkAbsent(round, uint32(ci))
				cp := comm.GetBuf(len(up))
				copy(cp, up)
				s.pending = append(s.pending, algo.Upload{Client: uint32(ci), TrainSize: trainSize, Payload: cp})
				continue
			}
			onTime++
			env.Meter.AddUp(len(up))
			tel.Emit(telemetry.ClientUpload(round, ci, int64(len(up)), durs[pos]))
			if shards > 0 {
				s.shard.Add(uint32(ci), trainSize, up)
			} else {
				s.Agg.Collect(round, uint32(ci), trainSize, up)
			}
		}
		if shards > 0 {
			// Fold through the pooled wire format — the root's code path.
			env.Meter.AddRelayUp(len(s.shard.Payload()))
			tel.Emit(telemetry.ShardPush(round, sh, s.shard.Len(), int64(len(s.shard.Payload()))))
			s.entries, _ = algo.ShardEntries(s.entries[:0], s.shard.Payload())
			algo.CollectAll(s.Agg, round, s.entries)
		}
		lo = hi
	}
	if frac > 0 && frac < 1 {
		tel.Emit(telemetry.Quorum(round, onTime))
	}
	t0 := time.Now()
	s.Agg.FinishRound(round)
	tel.Emit(telemetry.Aggregate(round, collected+onTime, time.Since(t0).Nanoseconds()))
	tel.Emit(telemetry.RoundEnd(round, env.Meter.Up(), env.Meter.Down()))
}
