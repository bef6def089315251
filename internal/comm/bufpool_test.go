package comm

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPoolSizes verifies Get returns the requested length with capacity
// preserved through a Put/Get cycle.
func TestPoolSizes(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 16} {
		b := GetBuf(n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d) len %d", n, len(b))
		}
		PutBuf(b)
		f := GetF32(n)
		if len(f) != n {
			t.Fatalf("GetF32(%d) len %d", n, len(f))
		}
		PutF32(f)
	}
	if GetBuf(0) != nil || GetF32(-1) != nil {
		t.Fatal("non-positive sizes must return nil")
	}
}

// TestPoolHammer drives the payload pools from many goroutines under
// -race: each worker checks exclusive ownership by stamping its buffer
// and verifying the stamp survives until Put.
func TestPoolHammer(t *testing.T) {
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				n := 1 + rng.Intn(4096)
				b := GetBuf(n)
				f := GetF32(n)
				stamp := byte(w + 1)
				b[0], b[n-1] = stamp, stamp
				f[0], f[n-1] = float32(w), float32(w)
				enc := EncodeDenseInto(GetBuf(DenseLen(n)), f)
				dec, err := DecodeDenseAnyInto(GetF32(n), enc)
				if err != nil {
					t.Error(err)
					return
				}
				if b[0] != stamp || b[n-1] != stamp || f[0] != float32(w) || dec[n-1] != float32(w) {
					t.Errorf("worker %d: buffer ownership violated", w)
					return
				}
				PutBuf(enc)
				PutF32(dec)
				PutBuf(b)
				PutF32(f)
			}
		}(w)
	}
	wg.Wait()
}
