package algo

import (
	"runtime"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
)

// TestDenseTrainersRefuseMalformedBroadcastWithoutPoolTraffic: the dense
// trainers used to take model-sized comm.GetF32 buffers and then decode
// into them, so a malformed broadcast dropped the buffers on the floor —
// one leaked pool buffer per refused round. Every malformed shape must
// now produce no upload and allocate far less than one state vector per
// call (framing errors allocate a few words): a buffer that left the pool
// and was not returned would be re-allocated, whole, on each call.
func TestDenseTrainersRefuseMalformedBroadcastWithoutPoolTraffic(t *testing.T) {
	spec := models.Spec{Arch: "mlp", Classes: 4, InC: 3, H: 8, W: 8, Width: 0.5}
	cfg := Config{NumClients: 1, LocalEpochs: 1, BatchSize: 8, LR: 0.05}
	global := models.Build(spec, 5)
	for _, tc := range []struct {
		name    string
		agg     Aggregator
		trainer func(c *Client) Trainer
	}{
		{"fedavg", NewFedAvgAggregator(global, cfg), func(c *Client) Trainer { return NewFedAvgTrainer(c, cfg) }},
		{"fednova", NewFedNovaAggregator(global.Clone(), cfg), func(c *Client) Trainer { return NewFedNovaTrainer(c, cfg) }},
		{"scaffold", NewSCAFFOLDAggregator(global.Clone(), cfg), func(c *Client) Trainer { return NewSCAFFOLDTrainer(c, cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := append([]byte(nil), tc.agg.Broadcast(0)...)
			tr := tc.trainer(&Client{ID: 0, Model: models.Build(spec, 6)})
			bad := [][]byte{
				good[:len(good)-1],                      // last vector truncated
				append(append([]byte(nil), good...), 0), // trailing byte
				comm.EncodeDense(make([]float32, 3)),    // well-formed, wrong size
			}
			for i, b := range bad {
				if up := tr.LocalUpdate(0, b); up != nil {
					t.Fatalf("malformed %d: produced a %d-byte upload", i, len(up))
				}
			}
			stateBytes := uint64(4 * global.StateLen(models.ScopeAll))
			for i, b := range bad {
				const runs = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for r := 0; r < runs; r++ {
					tr.LocalUpdate(0, b)
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > stateBytes/8 {
					t.Fatalf("malformed %d: a refused broadcast allocated %d bytes, the state is %d", i, per, stateBytes)
				}
			}
		})
	}
}
