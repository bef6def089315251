package comm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSparseValsBulkMatchesRef demands bitwise identity between the bulk
// and reference values-only codecs at both precisions and every tail
// length.
func TestSparseValsBulkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range codecLens {
		v := randVals(rng, n)
		ref := RefEncodeSparseVals(v)
		if got := EncodeSparseValsInto(nil, v); !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: bulk EncodeSparseValsInto differs from reference", n)
		}
		want, err := RefDecodeSparseVals(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeSparseVals(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got, want) {
			t.Fatalf("n=%d: bulk values-only decode differs from reference", n)
		}

		ref16 := RefEncodeSparseValsF16(v)
		if got := EncodeSparseValsF16Into(nil, v); !bytes.Equal(got, ref16) {
			t.Fatalf("n=%d: bulk EncodeSparseValsF16Into differs from reference", n)
		}
		want16, err := RefDecodeSparseValsF16(ref16)
		if err != nil {
			t.Fatal(err)
		}
		got16, err := decodeSparseVals(ref16)
		if err != nil {
			t.Fatal(err)
		}
		if !bitwiseEqual(got16, want16) {
			t.Fatalf("n=%d: bulk f16 values-only decode differs from reference", n)
		}
	}
}

// TestSparseValsRejectsOtherFrames: a values-only decoder must reject
// every other frame kind (and vice versa) — the magic byte is the only
// thing distinguishing a values-only frame from a dense one.
func TestSparseValsRejectsOtherFrames(t *testing.T) {
	v := []float32{1, 2, 3}
	if _, err := decodeSparseVals(EncodeDense(v)); err == nil {
		t.Fatal("values-only decoder accepted a dense frame")
	}
	if _, err := DecodeDenseAnyInto(nil, EncodeSparseValsInto(nil, v)); err == nil {
		t.Fatal("dense decoder accepted a values-only frame")
	}
	s := &Sparse{Ranges: []Range{{0, 3}}, Values: v}
	if _, err := decodeSparseVals(EncodeSparse(s)); err == nil {
		t.Fatal("values-only decoder accepted a full sparse frame")
	}
	if _, err := decodeSparseVals(nil); err == nil {
		t.Fatal("values-only decoder accepted an empty frame")
	}
	if _, err := decodeSparseVals([]byte{magicSparseVals, 9, 0, 0, 0, 1}); err == nil {
		t.Fatal("values-only decoder accepted a truncated frame")
	}
}

// TestScatterCopyGatherRoundTrip: gather then scatter-copy must restore
// exactly the covered runs and nothing else.
func TestScatterCopyGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	state := randVals(rng, 64)
	ranges := []Range{{2, 5}, {10, 1}, {30, 20}}
	var s Sparse
	GatherSparseInto(&s, state, ranges)

	dst := make([]float32, 64)
	for i := range dst {
		dst[i] = -99
	}
	if !ScatterCopy(dst, s.Values, ranges) {
		t.Fatal("ScatterCopy rejected a matching payload")
	}
	covered := make([]bool, 64)
	for _, r := range ranges {
		for i := r.Start; i < r.Start+r.Len; i++ {
			covered[i] = true
		}
	}
	for i := range dst {
		if covered[i] && dst[i] != state[i] {
			t.Fatalf("index %d: scatter-copied %v, want %v", i, dst[i], state[i])
		}
		if !covered[i] && dst[i] != -99 {
			t.Fatalf("index %d: ScatterCopy touched an uncovered index", i)
		}
	}
	if ScatterCopy(dst, s.Values[:len(s.Values)-1], ranges) {
		t.Fatal("ScatterCopy accepted a short value vector")
	}
}

// TestComplementRanges checks the complement partition: complement runs
// plus selection runs must tile [0, n) exactly.
func TestComplementRanges(t *testing.T) {
	cases := []struct {
		ranges []Range
		n      int
		want   []Range
	}{
		{nil, 10, []Range{{0, 10}}},
		{[]Range{{0, 10}}, 10, nil},
		{[]Range{{0, 3}, {7, 3}}, 10, []Range{{3, 4}}},
		{[]Range{{2, 5}}, 10, []Range{{0, 2}, {7, 3}}},
		{[]Range{{0, 1}, {2, 1}, {4, 1}}, 5, []Range{{1, 1}, {3, 1}}},
	}
	for ci, c := range cases {
		got := ComplementRanges(c.ranges, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", ci, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("case %d: got %v, want %v", ci, got, c.want)
			}
		}
	}
	// Randomized tiling property.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(200)
		s := randSparse(rng, rng.Intn(n))
		last := 0
		if len(s.Ranges) > 0 {
			r := s.Ranges[len(s.Ranges)-1]
			last = int(r.Start + r.Len)
		}
		if last > n {
			n = last
		}
		comp := ComplementRanges(s.Ranges, n)
		covered := make([]int, n)
		for _, r := range s.Ranges {
			for i := r.Start; i < r.Start+r.Len; i++ {
				covered[i]++
			}
		}
		for _, r := range comp {
			for i := r.Start; i < r.Start+r.Len; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("iter %d: index %d covered %d times", iter, i, c)
			}
		}
	}
}

// TestZeroRanges zeroes exactly the covered runs.
func TestZeroRanges(t *testing.T) {
	dst := []float32{1, 2, 3, 4, 5, 6}
	ZeroRanges(dst, []Range{{1, 2}, {5, 1}})
	want := []float32{1, 0, 0, 4, 5, 0}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("got %v, want %v", dst, want)
		}
	}
}
