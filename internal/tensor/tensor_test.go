package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 3)
	if x.Data[2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).Set(1, 2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	Wrap(nil, []float32{1, 2, 3}, 2, 2)
}

// TestReshapeSharesData: a reshape is Wrap over the same array, so a
// write through either header shows through the other.
func TestReshapeSharesData(t *testing.T) {
	x := Wrap(nil, []float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Wrap(nil, x.Data, 3, 2)
	y.Set(99, 0, 1)
	if x.Data[1] != 99 {
		t.Fatal("a reshape must share the underlying data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := Wrap(nil, []float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := Wrap(nil, []float32{1, 2, 3}, 3)
	b := Wrap(nil, []float32{10, 20, 30}, 3)
	s := a.Add(b)
	want := []float32{11, 22, 33}
	for i := range want {
		if s.Data[i] != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, s.Data[i], want[i])
		}
	}
	d := b.Sub(a)
	for i, w := range []float32{9, 18, 27} {
		if d.Data[i] != w {
			t.Fatalf("Sub[%d] = %v, want %v", i, d.Data[i], w)
		}
	}
	a.Scale(2)
	if a.Data[2] != 6 {
		t.Fatal("Scale failed")
	}
}

func TestReductions(t *testing.T) {
	x := Wrap(nil, []float32{-1, 2, -3, 4}, 4)
	if x.Sum() != 2 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.AbsSum() != 10 {
		t.Fatalf("AbsSum = %v", x.AbsSum())
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {65, 40, 70}, {130, 33, 90}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := New(m, k), New(k, n)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		got := New(m, n)
		MatMulInto(got, a, b)
		want := naiveMatMul(a, b)
		for i := range want.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("MatMulInto(%dx%dx%d) mismatch at %d: %v vs %v", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := New(9, 5), New(11, 5)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got := New(9, 11)
	MatMulTransBInto(got, a, b)
	// naive: bT is (5,11)
	bt := New(5, 11)
	for i := 0; i < 11; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(b.Data[i*5+j], j, i)
		}
	}
	want := naiveMatMul(a, bt)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransBInto mismatch at %d", i)
		}
	}
}

func TestMatMulTransAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := New(6, 9), New(6, 7) // Aᵀ is (9,6)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got := New(9, 7)
	MatMulTransAInto(got, a, b)
	at := New(9, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 9; j++ {
			at.Set(a.Data[i*9+j], j, i)
		}
	}
	want := naiveMatMul(at, b)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
			t.Fatalf("MatMulTransAInto mismatch at %d", i)
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// Property: (A·B)·x == A·(B·x) for random small matrices (associativity
// of the implementation, checked against itself via vector application).
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a, b, x := New(m, k), New(k, n), New(n, 1)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		x.Randn(rng, 1)
		mul := func(a, b *Tensor) *Tensor {
			c := New(a.Dim(0), b.Dim(1))
			MatMulInto(c, a, b)
			return c
		}
		left := mul(mul(a, b), x)
		right := mul(a, mul(b, x))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: col must equal the input plane.
	d := NewConvDims(2, 3, 3, 1, 1, 1, 0)
	x := make([]float32, 2*3*3)
	for i := range x {
		x[i] = float32(i)
	}
	col := make([]float32, d.InC*d.K*d.K*d.OutH*d.OutW)
	Im2Col(col, x, d)
	for i := range x {
		if col[i] != x[i] {
			t.Fatalf("identity im2col mismatch at %d: %v vs %v", i, col[i], x[i])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	d := NewConvDims(1, 2, 2, 1, 3, 1, 1)
	x := []float32{1, 2, 3, 4}
	col := make([]float32, d.InC*d.K*d.K*d.OutH*d.OutW)
	Im2Col(col, x, d)
	// Output is 2x2. First kernel cell (ky=0,kx=0) touches positions that
	// are padding for output (0,0): value must be 0; for output (1,1) it
	// reads input (0,0) = 1.
	cols := d.OutH * d.OutW
	if col[0] != 0 {
		t.Fatalf("pad cell should be 0, got %v", col[0])
	}
	if col[cols-1] != 1 {
		t.Fatalf("kernel (0,0) at output (1,1) should read x[0]=1, got %v", col[cols-1])
	}
}

// Property: Col2Im is the adjoint of Im2Col — <Im2Col(x), c> == <x, Col2Im(c)>.
// This is exactly the relationship conv backprop relies on.
func TestIm2ColCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 3 + rng.Intn(4)
		w := 3 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		inC := 1 + rng.Intn(3)
		if h+2*pad < k || w+2*pad < k {
			return true
		}
		d := NewConvDims(inC, h, w, 1, k, stride, pad)
		n := inC * h * w
		cn := inC * k * k * d.OutH * d.OutW
		x := make([]float32, n)
		c := make([]float32, cn)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range c {
			c[i] = float32(rng.NormFloat64())
		}
		colX := make([]float32, cn)
		Im2Col(colX, x, d)
		imC := make([]float32, n)
		Col2Im(imC, c, d)
		var lhs, rhs float64
		for i := range colX {
			lhs += float64(colX[i]) * float64(c[i])
		}
		for i := range x {
			rhs += float64(x[i]) * float64(imC[i])
		}
		return math.Abs(lhs-rhs) <= 1e-3*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewConvDimsOutputShape(t *testing.T) {
	d := NewConvDims(3, 32, 32, 16, 3, 1, 1)
	if d.OutH != 32 || d.OutW != 32 {
		t.Fatalf("same-pad 3x3 should keep 32x32, got %dx%d", d.OutH, d.OutW)
	}
	d = NewConvDims(16, 32, 32, 32, 3, 2, 1)
	if d.OutH != 16 || d.OutW != 16 {
		t.Fatalf("stride-2 should halve, got %dx%d", d.OutH, d.OutW)
	}
}

func TestParallelCoversRangeOnce(t *testing.T) {
	n := 1000
	seen := make([]int32, n)
	Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestRandnDeterministic(t *testing.T) {
	a, b := New(100), New(100)
	a.Randn(rand.New(rand.NewSource(7)), 1)
	b.Randn(rand.New(rand.NewSource(7)), 1)
	if !a.Equal(b) {
		t.Fatal("same seed must give identical tensors")
	}
}

func TestKaimingNormalScale(t *testing.T) {
	x := New(100000)
	x.KaimingNormal(rand.New(rand.NewSource(9)), 50)
	var s float64
	for _, v := range x.Data {
		s += float64(v) * float64(v)
	}
	std := math.Sqrt(s / float64(x.Len()))
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want) > 0.01 {
		t.Fatalf("empirical std %v, want ~%v", std, want)
	}
}

func TestMulInPlaceAndFill(t *testing.T) {
	a := Wrap(nil, []float32{1, 2, 3}, 3)
	a.Fill(7)
	for _, v := range a.Data {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestCopyFromAndString(t *testing.T) {
	a := New(2, 2)
	b := Wrap(nil, []float32{1, 2, 3, 4}, 4)
	a.CopyFrom(b) // same element count, different shape is allowed
	if a.Data[3] != 4 {
		t.Fatal("CopyFrom failed")
	}
	if a.String() != "Tensor[2 2]" {
		t.Fatalf("String = %q", a.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size mismatch")
		}
	}()
	a.CopyFrom(New(3))
}

func TestReshapePanicsOnCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Wrap(nil, New(2, 3).Data, 4, 2)
}

func TestNewPanicsOnNonPositiveDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

// TestReuseHitAllocatesNothing pins the steady-state cost of a layer's
// buffer reuse: when the shape matches, Reuse returns t and its variadic
// shape stays on the caller's stack; a Recycle and Reuse round trip
// through the pool allocates nothing either.
func TestReuseHitAllocatesNothing(t *testing.T) {
	buf := New(4, 3, 8, 8)
	n, h := 4, 8 // not constants: the shape is built at run time, as a layer builds it
	if a := testing.AllocsPerRun(100, func() {
		if Reuse(buf, n, 3, h, h) != buf {
			t.Fatal("Reuse did not return the matching tensor")
		}
	}); a != 0 {
		t.Fatalf("a Reuse hit allocates %v objects, want 0", a)
	}
	Recycle(buf) // the pool now holds buf's array
	if a := testing.AllocsPerRun(100, func() {
		Reuse(buf, n, 3, h, h)
		Recycle(buf)
	}); a != 0 {
		t.Fatalf("a Recycle and Reuse round trip allocates %v objects, want 0", a)
	}
	if got := Reuse(buf, n, 3, h, h+1); got.Dim(3) != h+1 || got.Len() != n*3*h*(h+1) {
		t.Fatalf("a Reuse miss returned shape %v, %d elements", got.Shape(), got.Len())
	}
}

// TestReuseShapeChangeKeepsArray: a Reuse that changes a tensor's shape
// keeps its header and re-slices its backing array (checked by pointer)
// while the capacity suffices — a shrink, a regrow, a rank change — and
// swaps in a pooled array when it must grow; after Recycle the header
// stays and the next Reuse draws a pooled array. Contents are the
// caller's to write: nothing is zero-filled.
func TestReuseShapeChangeKeepsArray(t *testing.T) {
	shaped := func(step string, x *Tensor, shape ...int) {
		t.Helper()
		n := 1
		for _, d := range shape {
			n *= d
		}
		if !slices.Equal(x.Shape(), shape) || x.Len() != n {
			t.Fatalf("%s: shape %v, %d elements, want %v", step, x.Shape(), x.Len(), shape)
		}
	}
	buf := New(16, 4, 3, 3)
	array := &buf.Data[0]
	buf.Fill(7)
	if Reuse(buf, 8, 4, 3, 3) != buf || &buf.Data[0] != array {
		t.Fatal("shrinking the batch left the header or the backing array")
	}
	shaped("shrink", buf, 8, 4, 3, 3)
	if buf.Data[0] != 7 {
		t.Fatalf("a re-slice rewrote the array: element 0 is %v", buf.Data[0])
	}
	if Reuse(buf, 16, 4, 3, 3) != buf || &buf.Data[0] != array {
		t.Fatal("regrowing within capacity left the header or the backing array")
	}
	shaped("regrow", buf, 16, 4, 3, 3)
	if Reuse(buf, 16, 4*3*3) != buf || &buf.Data[0] != array {
		t.Fatal("a rank change within capacity left the header or the backing array")
	}
	shaped("rank change", buf, 16, 4*3*3)
	if Reuse(buf, 32, 4, 3, 3) != buf || &buf.Data[0] == array {
		t.Fatal("growing past capacity kept the old array or left the header")
	}
	shaped("grow", buf, 32, 4, 3, 3)
	Recycle(buf)
	if buf.Data != nil {
		t.Fatal("Recycle left the tensor its array")
	}
	Recycle(buf) // a second Recycle, and one of nil, are no-ops
	Recycle(nil)
	if Reuse(buf, 32, 4, 3, 3) != buf || buf.Data == nil {
		t.Fatal("a Reuse after Recycle left the header or drew no array")
	}
	shaped("after recycle", buf, 32, 4, 3, 3)
	shaped("nil", Reuse(nil, 2, 4, 3, 3), 2, 4, 3, 3)
}

func TestEqualShapeSensitivity(t *testing.T) {
	a := Wrap(nil, []float32{1, 2, 3, 4}, 2, 2)
	b := Wrap(nil, []float32{1, 2, 3, 4}, 4)
	if a.Equal(b) {
		t.Fatal("different shapes must not be Equal")
	}
	c := Wrap(nil, []float32{1, 2, 3, 5}, 2, 2)
	if a.Equal(c) {
		t.Fatal("different data must not be Equal")
	}
}
