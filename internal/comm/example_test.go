package comm_test

import (
	"fmt"

	"spatl/internal/comm"
)

// ExampleGatherSparse shows the salient-parameter round trip: gather the
// selected index ranges of a state vector, ship them, and scatter-add
// into the server's accumulator with per-index participation counts
// (SPATL eq. 12).
func ExampleGatherSparse() {
	state := []float32{10, 11, 12, 13, 14, 15}
	ranges := []comm.Range{{Start: 1, Len: 2}, {Start: 4, Len: 1}}

	payload := comm.EncodeSparse(comm.GatherSparse(state, ranges))
	fmt.Println("wire bytes:", len(payload), "vs dense:", len(comm.EncodeDense(state)))

	sparse := &comm.Sparse{}
	comm.DecodeSparseAnyInto(sparse, payload)
	sum := make([]float32, len(state))
	count := make([]int32, len(state))
	comm.ScatterAdd(sum, count, sparse)
	fmt.Println("sum:", sum)
	fmt.Println("count:", count)
	// Output:
	// wire bytes: 37 vs dense: 29
	// sum: [0 11 12 0 14 0]
	// count: [0 1 1 0 1 0]
}

// ExampleEncodeDenseF16Into shows the half-precision wire format: half the
// bytes, values quantized to binary16.
func ExampleEncodeDenseF16Into() {
	vals := []float32{0.5, -1.25, 3}
	full := comm.EncodeDense(vals)
	half := comm.EncodeDenseF16Into(nil, vals)
	fmt.Println("f32 bytes:", len(full), "f16 bytes:", len(half))
	back, _ := comm.DecodeDenseAnyInto(nil, half)
	fmt.Println("round trip:", back)
	// Output:
	// f32 bytes: 17 f16 bytes: 11
	// round trip: [0.5 -1.25 3]
}
