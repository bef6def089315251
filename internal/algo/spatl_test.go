package algo

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"spatl/internal/comm"
	"spatl/internal/models"
	"spatl/internal/nn"
)

// filterSparse is a SPATL-shaped upload over n indices: runs of 144
// (a resnet20 filter row at w0.25), each kept with probability keep —
// so several clients' uploads overlap on most indices and differ on the
// rest.
func filterSparse(rng *rand.Rand, n int, keep float64) *comm.Sparse {
	s := &comm.Sparse{}
	for start := 0; start < n; start += 144 {
		if rng.Float64() >= keep {
			continue
		}
		l := min(144, n-start)
		s.Ranges = append(s.Ranges, comm.Range{Start: uint32(start), Len: uint32(l)})
		for k := 0; k < l; k++ {
			s.Values = append(s.Values, float32(rng.NormFloat64()))
		}
	}
	return s
}

// TestSPATLCallerFoldMatchesRef holds the SPATL server — each upload
// folded on the caller in one walk over its ranges — to the serial
// StreamFoldRefSPATL at GOMAXPROCS 1, 2 and 4, over two rounds whose
// uploads overlap on most indices: a straggler folded through
// CollectLate, an early upload staged until the cursor reaches it, and
// one upload whose control part is malformed.
func TestSPATLCallerFoldMatchesRef(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const clients = 8
			global := models.Build(spec, 21)
			agg := NewSPATLAggregator(global, SPATLOptions{}, Config{NumClients: clients})
			n := global.StateLen(models.ScopeEncoder)
			nCtrl := nn.ParamCount(global.EncoderParams())
			rng := rand.New(rand.NewSource(22))
			ids := []uint32{1, 2, 4, 6}
			for round := 0; round < 2; round++ {
				state0 := global.State(models.ScopeEncoder)
				c0 := append([]float32(nil), agg.c...)
				// Fold order: the straggler (client 7), then the cursor's
				// ascending IDs; client 4 arrives first and is staged.
				var dWs, dCs []*comm.Sparse
				payload := func(badCtrl bool) []byte {
					dW, dC := filterSparse(rng, n, 0.7), filterSparse(rng, nCtrl, 0.7)
					ctrl := comm.EncodeSparse(dC)
					if badCtrl {
						ctrl, dC = []byte{7}, nil
					}
					dWs, dCs = append(dWs, dW), append(dCs, dC)
					return comm.JoinPayloads(comm.EncodeSparse(dW), ctrl)
				}
				agg.BeginRound(round, ids)
				agg.CollectLate(round, 7, 100, payload(false))
				up4 := payload(false)
				ups := [][]byte{payload(false), payload(round == 1), up4, payload(false)}
				agg.Collect(round, 4, 100, up4)
				agg.Collect(round, 1, 100, ups[0])
				agg.Collect(round, 2, 100, ups[1])
				agg.Collect(round, 6, 100, ups[3])
				agg.FinishRound(round)
				// The reference folds in the order the server did: the
				// straggler, then clients 1, 2, 4, 6.
				order := []int{0, 2, 3, 1, 4}
				refW := make([]*comm.Sparse, len(order))
				refC := make([]*comm.Sparse, len(order))
				for i, k := range order {
					refW[i], refC[i] = dWs[k], dCs[k]
				}
				wantState, wantC := StreamFoldRefSPATL(state0, c0, refW, refC, clients)
				bitEq(t, fmt.Sprintf("round %d state", round), global.State(models.ScopeEncoder), wantState)
				bitEq(t, fmt.Sprintf("round %d c", round), agg.c, wantC)
			}
		})
	}
}

// TestSPATLBroadcastMatchesJoin checks the broadcast, encoded straight
// from the model's spans into its body, byte for byte against joining
// separately encoded parts, at both precisions and without gradient
// control.
func TestSPATLBroadcastMatchesJoin(t *testing.T) {
	spec := models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 16, W: 16, Width: 0.25}
	for _, tc := range []struct {
		name string
		opts SPATLOptions
		half bool
	}{
		{"f32", SPATLOptions{}, false},
		{"f16", SPATLOptions{}, true},
		{"no-control", SPATLOptions{DisableGradControl: true}, false},
		{"no-transfer", SPATLOptions{DisableTransfer: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			global := models.Build(spec, 5)
			agg := NewSPATLAggregator(global, tc.opts, Config{NumClients: 4, HalfPrecision: tc.half})
			rng := rand.New(rand.NewSource(6))
			for j := range agg.c {
				agg.c[j] = float32(rng.NormFloat64())
			}
			enc := comm.EncodeDense
			if tc.half {
				enc = encodeDenseF16
			}
			parts := [][]byte{enc(global.State(tc.opts.Scope()))}
			if !tc.opts.DisableGradControl {
				parts = append(parts, enc(agg.c))
			}
			want := comm.JoinPayloads(parts...)
			for round := 0; round < 2; round++ {
				if got := agg.Broadcast(round); !bytes.Equal(got, want) {
					t.Fatalf("round %d: broadcast differs from the joined parts (%d vs %d bytes)", round, len(got), len(want))
				}
			}
		})
	}
}
