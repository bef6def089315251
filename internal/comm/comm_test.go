package comm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDenseRoundTrip(t *testing.T) {
	in := []float32{1.5, -2.25, 0, 3e-9, -1e9}
	buf := EncodeDense(in)
	if len(buf) != 1+4+4*len(in) {
		t.Fatalf("encoded length %d", len(buf))
	}
	out, err := DecodeDenseAnyInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestDenseRoundTripProperty(t *testing.T) {
	f := func(vals []float32) bool {
		out, err := DecodeDenseAnyInto(nil, EncodeDense(vals))
		if err != nil || len(out) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN compares unequal to itself; compare bit patterns via
			// re-encode instead.
			if vals[i] != out[i] && !(vals[i] != vals[i] && out[i] != out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDenseRejectsGarbage(t *testing.T) {
	if _, err := DecodeDenseAnyInto(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for short buffer")
	}
	buf := EncodeDense([]float32{1, 2})
	buf[0] = 0xFF
	if _, err := DecodeDenseAnyInto(nil, buf); err == nil {
		t.Fatal("expected error for wrong tag")
	}
	buf = EncodeDense([]float32{1, 2})
	if _, err := DecodeDenseAnyInto(nil, buf[:len(buf)-1]); err == nil {
		t.Fatal("expected error for truncated buffer")
	}
}

func TestSparseRoundTrip(t *testing.T) {
	s := &Sparse{
		Ranges: []Range{{Start: 2, Len: 3}, {Start: 10, Len: 1}},
		Values: []float32{1, 2, 3, 4},
	}
	buf := EncodeSparse(s)
	out, err := decodeSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ranges) != 2 || out.Ranges[0] != s.Ranges[0] || out.Ranges[1] != s.Ranges[1] {
		t.Fatalf("ranges mismatch: %v", out.Ranges)
	}
	for i := range s.Values {
		if out.Values[i] != s.Values[i] {
			t.Fatalf("values mismatch at %d", i)
		}
	}
}

func TestSparseValidate(t *testing.T) {
	bad := &Sparse{Ranges: []Range{{0, 2}}, Values: []float32{1}}
	if bad.Validate() == nil {
		t.Fatal("expected count mismatch error")
	}
	bad = &Sparse{Ranges: []Range{{0, 0}}, Values: nil}
	if bad.Validate() == nil {
		t.Fatal("expected zero-length range error")
	}
	bad = &Sparse{Ranges: []Range{{5, 3}, {6, 2}}, Values: make([]float32, 5)}
	if bad.Validate() == nil {
		t.Fatal("expected overlap error")
	}
}

func TestGatherScatterInverse(t *testing.T) {
	state := make([]float32, 20)
	for i := range state {
		state[i] = float32(i)
	}
	ranges := []Range{{Start: 3, Len: 4}, {Start: 12, Len: 2}}
	s := GatherSparse(state, ranges)
	if s.Count() != 6 {
		t.Fatalf("count = %d", s.Count())
	}
	dst := make([]float32, 20)
	count := make([]int32, 20)
	ScatterAdd(dst, count, s)
	for _, r := range ranges {
		for i := r.Start; i < r.Start+r.Len; i++ {
			if dst[i] != state[i] {
				t.Fatalf("scatter mismatch at %d: %v vs %v", i, dst[i], state[i])
			}
			if count[i] != 1 {
				t.Fatalf("count at %d = %d", i, count[i])
			}
		}
	}
	// Untouched indices stay zero.
	if dst[0] != 0 || count[0] != 0 || dst[19] != 0 {
		t.Fatal("scatter touched indices outside ranges")
	}
}

func TestScatterAddAccumulates(t *testing.T) {
	dst := make([]float32, 5)
	count := make([]int32, 5)
	s := &Sparse{Ranges: []Range{{1, 2}}, Values: []float32{10, 20}}
	ScatterAdd(dst, count, s)
	ScatterAdd(dst, count, s)
	if dst[1] != 20 || dst[2] != 40 || count[1] != 2 {
		t.Fatalf("accumulation wrong: %v %v", dst, count)
	}
}

// Property: gather-then-scatter over random sorted non-overlapping
// ranges reproduces exactly the gathered elements.
func TestGatherScatterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		state := make([]float32, n)
		for i := range state {
			state[i] = float32(rng.NormFloat64())
		}
		var ranges []Range
		pos := 0
		for pos < n-2 {
			pos += rng.Intn(5)
			l := 1 + rng.Intn(4)
			if pos+l > n {
				break
			}
			ranges = append(ranges, Range{Start: uint32(pos), Len: uint32(l)})
			pos += l
		}
		if len(ranges) == 0 {
			return true
		}
		s := GatherSparse(state, ranges)
		if s.Validate() != nil {
			return false
		}
		dec, err := decodeSparse(EncodeSparse(s))
		if err != nil {
			return false
		}
		dst := make([]float32, n)
		ScatterAdd(dst, nil, dec)
		for _, r := range ranges {
			for i := r.Start; i < r.Start+r.Len; i++ {
				if dst[i] != state[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSmallerThanDenseWhenSparse(t *testing.T) {
	n := 10000
	state := make([]float32, n)
	dense := EncodeDense(state)
	// 30% of elements in a handful of runs.
	s := GatherSparse(state, []Range{{0, 1000}, {4000, 1000}, {8000, 1000}})
	sparse := EncodeSparse(s)
	if len(sparse) >= len(dense)/2 {
		t.Fatalf("sparse %dB should be well under half of dense %dB", len(sparse), len(dense))
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.AddUp(10)
			m.AddDown(3)
		}()
	}
	wg.Wait()
	if m.Up() != 500 || m.Down() != 150 {
		t.Fatalf("meter got up=%d down=%d", m.Up(), m.Down())
	}
	m.Reset()
	if m.Up() != 0 || m.Down() != 0 {
		t.Fatal("reset failed")
	}
}

func TestByteFormatters(t *testing.T) {
	if MB(1024*1024) != 1 {
		t.Fatal("MB wrong")
	}
}

// decodeSparse decodes a sparse payload at either precision into a
// fresh Sparse.
func decodeSparse(buf []byte) (*Sparse, error) {
	s := &Sparse{}
	return s, DecodeSparseAnyInto(s, buf)
}

// decodeSparseVals decodes a values-only frame at either precision into
// a fresh slice.
func decodeSparseVals(buf []byte) ([]float32, error) {
	v, err := ViewSparseVals(buf)
	if err != nil {
		return nil, err
	}
	return v.decodeInto(nil), nil
}
