//go:build !race

package fl

import (
	"bytes"
	"runtime"
	"testing"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// liveHeapSink is a journal sink that reads the live heap at every round
// boundary: the journal flushes at round_end, and the sink forces a
// collection there and keeps the largest heap in use it sees.
type liveHeapSink struct {
	peak   uint64
	rounds int
}

func (s *liveHeapSink) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"ev":"round_end"`)) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.peak = max(s.peak, ms.HeapAlloc)
		s.rounds++
	}
	return len(p), nil
}

// TestMassiveStragglerMemoryGate holds RunMassive's live heap at each
// round boundary to the arena — one piece of a relay frame — plus a
// small fixed allowance, at a quorum where stragglers outnumber every
// shard: 4 000 clients, 8 shards, half the uploads late. A straggler is
// recorded as (client, train size) and synthesized when it lands, so the
// ≈ 2 000 payloads that miss each round cost nothing until then; holding
// them would add ≈ 2 000 × 32 KiB, and holding a whole shard's frame
// ≈ 270 × 32 KiB. Counts bytes, never a time; built without -race, under
// which sync.Pool drops Puts.
func TestMassiveStragglerMemoryGate(t *testing.T) {
	const clients, shards, rounds, seed, frac = 4000, 8, 3, 5, 0.5
	spec := models.Spec{Arch: "mlp", Classes: 10, InC: 3, H: 8, W: 8, Width: 0.5} // RunMassive's default
	nState := models.Build(spec, seed).StateLen(models.ScopeAll)
	payload := comm.DenseLen(nState)
	var probe algo.ShardBuffer
	probe.Reserve(0, 0, payload)
	entry := uint64(len(probe.Payload())) // one upload in the relay frame

	// Every client is sampled every round, so a shard is its contiguous
	// client range; the smallest shard's on-time count is the least a
	// driver holding whole frames would hold.
	minOnTime, late := clients, 0
	for r := 0; r < rounds; r++ {
		for sh := 0; sh < shards; sh++ {
			lo, hi := algo.ShardRange(sh, clients, shards)
			n := 0
			for ci := lo; ci < hi; ci++ {
				if massiveOnTime(seed, r, ci, frac) {
					n++
				} else {
					late++
				}
			}
			minOnTime = min(minOnTime, n)
		}
	}
	pieceUploads := max(1, massivePieceBytes/payload)
	arena := uint64(pieceUploads) * entry
	const allowance = 2 << 20 // model, aggregator, index slices, journal buffer
	if held := uint64(late/rounds) * uint64(payload); held < 4*(arena+allowance) {
		t.Fatalf("config no longer straggler-dominated: %d B of stragglers per round vs a %d B budget", held, arena+allowance)
	}
	if frame := uint64(minOnTime) * entry; frame < 2*(arena+allowance) {
		t.Fatalf("config no longer frame-dominated: a %d B shard frame vs a %d B budget", frame, arena+allowance)
	}

	// Two collections empty the buffer pools. The baseline may hold the
	// spare arena an earlier run left; this run takes it over, so it does
	// not add to it.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	sink := &liveHeapSink{}
	tel := &telemetry.Set{Reg: telemetry.NewRegistry(), Journal: telemetry.NewJournal(sink)}
	res, err := RunMassive(MassiveConfig{
		Clients: clients, Shards: shards, Rounds: rounds, OnTimeFrac: frac, Seed: seed, Tel: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.rounds != rounds || res.Late == 0 {
		t.Fatalf("saw %d round boundaries and %d late uploads", sink.rounds, res.Late)
	}
	budget := base + arena + allowance
	if sink.peak > budget {
		t.Fatalf("live heap at a round boundary %.1f MiB, budget %.1f MiB (baseline %.1f + arena of %d uploads %.1f + %.1f)",
			mib(sink.peak), mib(budget), mib(base), pieceUploads, mib(arena), mib(allowance))
	}
	t.Logf("live heap peak %.1f MiB over a %.1f MiB baseline; arena %.1f MiB", mib(sink.peak), mib(base), mib(arena))
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
