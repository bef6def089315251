package fl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatl/internal/telemetry"
)

// hashBits is the 64-bit FNV-1a hash of a float32 vector's bit patterns.
func hashBits(v []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashBytes is the 64-bit FNV-1a hash of a byte string.
func hashBytes(p []byte) string {
	h := fnv.New64a()
	h.Write(p)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMassiveQuorumPinned pins one sampled quorum federation, sharded
// and flat: the final state bitwise, the counts, and every byte of the
// zero-time journal. The values are those of a driver that held each
// straggler's payload from the round it missed until the round it
// landed, so synthesizing a straggler when it lands changes no fold and
// no event.
func TestMassiveQuorumPinned(t *testing.T) {
	for _, tc := range []struct {
		flat                 bool
		state, journal       string
		folded, late, upByte int64
		relay, pushes        int64
	}{
		{false, "f1fcf8dfc4b55df3", "1bfed6da23366a0e", 860, 307, 26017580, 16736545, 20},
		{true, "f1fcf8dfc4b55df3", "58b61260635c7418", 860, 307, 26017580, 0, 0},
	} {
		t.Run(fmt.Sprintf("flat=%v", tc.flat), func(t *testing.T) {
			var journal bytes.Buffer
			tel := telemetry.New(&journal)
			tel.Journal.SetZeroTime(true)
			res, err := RunMassive(MassiveConfig{
				Clients: 600, PerRound: 240, Shards: 5, Rounds: 4, OnTimeFrac: 0.6,
				Seed: 13, FlatCollect: tc.flat, PerClientEvents: true, Tel: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tel.Journal.Flush(); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s %s %d %d %d %d %d", hashBits(res.FinalState), hashBytes(journal.Bytes()),
				res.Folded, res.Late, res.UpBytes, res.RelayBytes, res.ShardPushes)
			want := fmt.Sprintf("%s %s %d %d %d %d %d", tc.state, tc.journal,
				tc.folded, tc.late, tc.upByte, tc.relay, tc.pushes)
			if got != want {
				t.Fatalf("state journal folded late up relay pushes:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// TestPermIntoIsPerm: the reused-buffer permutation draws what
// rand.Perm draws and leaves the generator where rand.Perm leaves it.
func TestPermIntoIsPerm(t *testing.T) {
	var buf []int
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		a, b := rand.New(rand.NewSource(int64(n)+3)), rand.New(rand.NewSource(int64(n)+3))
		for rep := 0; rep < 3; rep++ {
			want := a.Perm(n)
			buf = permInto(buf, b, n)
			if !slices.Equal(buf, want) {
				t.Fatalf("n=%d rep %d: permInto %v, rand.Perm %v", n, rep, buf, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: generators diverged", n)
		}
	}
}
