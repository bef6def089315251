package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fillRand fills t with reproducible values in [-2,2), avoiding exact zeros.
func fillRand(t *Tensor, rng *rand.Rand) {
	for i := range t.Data {
		v := rng.Float32()*4 - 2
		if v == 0 {
			v = 0.5
		}
		t.Data[i] = v
	}
}

// zeroOut sets about frac of t's elements to zero, one in eight of them
// −0: the shape SPATL's pruned filter matrices take. Zeros need no kernel
// of their own; the dense tile must still match the reference bit for bit.
func zeroOut(t *Tensor, rng *rand.Rand, frac float64) {
	for i := range t.Data {
		if rng.Float64() < frac {
			t.Data[i] = 0
			if rng.Intn(8) == 0 {
				t.Data[i] = float32(math.Copysign(0, -1))
			}
		}
	}
}

// zeroFracs are the left-operand zero fractions the product tests sweep:
// dense, and mostly zero.
var zeroFracs = []float64{0, 0.8}

// oddShapes crosses every tile boundary of the entry points: m below/at/above
// the 4-row tile, n below/at/above the 8-lane tail and the 16-column panel,
// odd k, and degenerate m=1 / n=1 / k=1 cases.
var oddShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 64, 33},
	{2, 3, 5},
	{3, 17, 2},
	{5, 31, 7},
	{7, 16, 5},
	{8, 16, 5},
	{9, 33, 17},   // odd everything, one panel plus a one-lane tail
	{13, 5, 1},    // single-column tail
	{16, 144, 36}, // conv-like shape, n not a multiple of 4
	{17, 9, 31},   // n just under two panels
	{10, 8, 32},   // n exactly two panels
	{11, 8, 37},   // two panels and a tail
	{33, 65, 67},  // multiple panels with tails in every dimension
}

func TestMatMulKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, zf := range zeroFracs {
		for _, s := range oddShapes {
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			fillRand(a, rng)
			fillRand(b, rng)
			zeroOut(a, rng, zf)
			want := RefMatMul(a, b)

			into := New(s.m, s.n)
			fillRand(into, rng) // must be fully overwritten
			MatMulInto(into, a, b)
			for i := range want.Data {
				if into.Data[i] != want.Data[i] {
					t.Fatalf("MatMulInto(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, into.Data[i], want.Data[i])
				}
			}

			cs := make([]float32, s.m*s.n)
			MatMulSlice(cs, a.Data, b.Data, s.m, s.k, s.n)
			for i := range want.Data {
				if cs[i] != want.Data[i] {
					t.Fatalf("MatMulSlice(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, cs[i], want.Data[i])
				}
			}
		}
	}
}

func TestMatMulTransBKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range oddShapes {
		a := New(s.m, s.k)
		b := New(s.n, s.k)
		fillRand(a, rng)
		fillRand(b, rng)
		want := RefMatMulTransB(a, b)

		got := make([]float32, s.m*s.n)
		MatMulTransBSlice(got, a.Data, b.Data, s.m, s.k, s.n)
		for i := range want.Data {
			if got[i] != want.Data[i] {
				t.Fatalf("MatMulTransBSlice(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, got[i], want.Data[i])
			}
		}

		into := New(s.m, s.n)
		fillRand(into, rng)
		MatMulTransBInto(into, a, b)
		for i := range want.Data {
			if into.Data[i] != want.Data[i] {
				t.Fatalf("MatMulTransBInto(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, into.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulTransBAccBitwise: Gemm with acc over a transposed B forms
// each dot product first and adds it to C once, so C += A·Bᵀ is bitwise
// the product computed apart and then added.
func TestMatMulTransBAccBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range oddShapes {
		a := New(s.m, s.k)
		b := New(s.n, s.k)
		fillRand(a, rng)
		fillRand(b, rng)
		init := New(s.m, s.n)
		fillRand(init, rng)

		// Reference: materialize the product, then add once per element —
		// the rounding the Acc kernel promises to reproduce bitwise.
		prod := RefMatMulTransB(a, b)
		want := make([]float32, s.m*s.n)
		for i := range want {
			want[i] = init.Data[i] + prod.Data[i]
		}

		got := make([]float32, s.m*s.n)
		copy(got, init.Data)
		bt := make([]float32, s.k*s.n)
		TransposeSlice(bt, b.Data, s.n, s.k)
		Gemm(got, s.n, a.Data, s.k, 1, bt, s.n, nil, s.m, s.k, s.n, true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Gemm acc (%dx%dx%d)[%d] = %v, want %v", s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulSparsePath holds the dense products to the reference on a left
// operand with ~80% zeros, the shape SPATL's pruned filter matrices take.
// There is no zero-skipping kernel; the dense tile must agree bit for bit.
func TestMatMulSparsePath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, s := range []struct{ m, k, n int }{{9, 33, 17}, {16, 64, 40}, {3, 12, 5}} {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillRand(a, rng)
		fillRand(b, rng)
		zeroOut(a, rng, 0.8)
		zeros := 0
		for _, v := range a.Data {
			if v == 0 {
				zeros++
			}
		}
		if 2*zeros < len(a.Data) {
			t.Fatalf("test operand (%dx%d) has only %d/%d zeros", s.m, s.k, zeros, len(a.Data))
		}

		want := RefMatMul(a, b)
		got := New(s.m, s.n)
		MatMulInto(got, a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("sparse MatMulInto(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, got.Data[i], want.Data[i])
			}
		}

		at := New(s.k, s.m)
		TransposeSlice(at.Data, a.Data, s.m, s.k)
		wantTA := RefMatMulTransA(at, b)
		gotTA := make([]float32, s.m*s.n)
		MatMulTransASlice(gotTA, at.Data, b.Data, s.m, s.k, s.n)
		for i := range wantTA.Data {
			if gotTA[i] != wantTA.Data[i] {
				t.Fatalf("sparse MatMulTransASlice(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, gotTA[i], wantTA.Data[i])
			}
		}
	}
}

func TestMatMulTransAKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, zf := range zeroFracs {
		for _, s := range oddShapes {
			a := New(s.k, s.m)
			b := New(s.k, s.n)
			fillRand(a, rng)
			fillRand(b, rng)
			zeroOut(a, rng, zf)
			want := RefMatMulTransA(a, b)

			into := New(s.m, s.n)
			fillRand(into, rng)
			MatMulTransAInto(into, a, b)
			for i := range want.Data {
				if into.Data[i] != want.Data[i] {
					t.Fatalf("MatMulTransAInto(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, into.Data[i], want.Data[i])
				}
			}

			cs := make([]float32, s.m*s.n)
			MatMulTransASlice(cs, a.Data, b.Data, s.m, s.k, s.n)
			for i := range want.Data {
				if cs[i] != want.Data[i] {
					t.Fatalf("MatMulTransASlice(%dx%dx%d)[%d] = %v, ref %v", s.m, s.k, s.n, i, cs[i], want.Data[i])
				}
			}
		}
	}
}

// TestIm2ColPatchMatchesTranspose defines the patch-major lowering dW
// multiplies against as TransposeSlice ∘ Im2Col and checks TransposeViews
// builds exactly that, on the vector kernel and on the portable body, from
// both kinds of views Conv2D feeds it: the rows of the Im2Col matrix (any
// stride; every slot must match) and, for stride 1, the taps of the
// zero-bordered image at the padded pitch (every valid position must
// match; the junk positions between rows are not compared). The sweep
// covers row counts 8, 9, 36, 72, 144 and spans 8, 22, 78, 286 — the
// blocks flush with either end — and counts below 8, which fall back.
func TestIm2ColPatchMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lowerings := []struct {
		name string
		fn   func(dst, src []float32, offs []int32, span int)
	}{{"TransposeViews", TransposeViews}, {"transposeViewsGo", transposeViewsGo}}
	seenRows, seenSpans := map[int]bool{}, map[int]bool{}
	check := func(d ConvDims) {
		x := make([]float32, d.InC*d.H*d.W)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		rows, cols := d.InC*d.K*d.K, d.OutH*d.OutW
		col := make([]float32, rows*cols)
		Im2Col(col, x, d)
		want := make([]float32, cols*rows)
		TransposeSlice(want, col, rows, cols)

		// The zero-bordered image and where each lowered row starts in it.
		hp, wp := d.H+2*d.Pad, d.W+2*d.Pad
		flat := (d.OutH-1)*wp + d.OutW
		xp := make([]float32, d.InC*hp*wp)
		for c := 0; c < d.InC; c++ {
			CopyRows(xp[(c*hp+d.Pad)*wp+d.Pad:], wp, x[c*d.H*d.W:], d.W, d.H, d.W)
		}
		rowOffs, taps := make([]int32, 0, rows), make([]int32, 0, rows)
		for c := 0; c < d.InC; c++ {
			for ky := 0; ky < d.K; ky++ {
				for kx := 0; kx < d.K; kx++ {
					rowOffs = append(rowOffs, int32(len(rowOffs)*cols))
					taps = append(taps, int32(c*hp*wp+ky*wp+kx))
				}
			}
		}
		seenRows[rows], seenSpans[cols] = true, true
		for _, l := range lowerings {
			got := make([]float32, cols*rows)
			for i := range got {
				got[i] = -999 // every slot must be written
			}
			l.fn(got, col, rowOffs, cols)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s over Im2Col rows %+v: element %d = %v, want %v", l.name, d, i, got[i], want[i])
				}
			}
			if d.Stride != 1 {
				continue
			}
			seenSpans[flat] = true
			got = make([]float32, flat*rows)
			l.fn(got, xp, taps, flat)
			for oy := 0; oy < d.OutH; oy++ {
				for ox := 0; ox < d.OutW; ox++ {
					for r := 0; r < rows; r++ {
						if g, w := got[(oy*wp+ox)*rows+r], want[(oy*d.OutW+ox)*rows+r]; g != w {
							t.Fatalf("%s over padded taps %+v: position (%d,%d) row %d = %v, want %v", l.name, d, oy, ox, r, g, w)
						}
					}
				}
			}
		}
	}
	for _, k := range []int{1, 3, 5} {
		for _, pad := range []int{0, 1, 2} {
			for _, stride := range []int{1, 2} {
				for _, in := range [][3]int{{3, 6, 7}, {4, 16, 16}, {8, 8, 8}, {16, 4, 4}, {1, 5, 9}, {8, 2, 4}, {2, 2, 2}} {
					if in[1]+2*pad < k || in[2]+2*pad < k {
						continue // the kernel does not fit
					}
					check(NewConvDims(in[0], in[1], in[2], 4, k, stride, pad))
				}
			}
		}
	}
	for _, rows := range []int{3, 8, 9, 36, 72, 144} {
		if !seenRows[rows] {
			t.Errorf("sweep never lowered %d rows", rows)
		}
	}
	for _, span := range []int{4, 8, 22, 78, 286} {
		if !seenSpans[span] {
			t.Errorf("sweep never lowered a span of %d", span)
		}
	}
}

// TestParallelPoolHammer runs many concurrent Parallel invocations (with
// nesting) under an elevated GOMAXPROCS and checks every invocation covers
// its index range exactly once. Run with -race this also proves the pool
// hands out disjoint chunks.
func TestParallelPoolHammer(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	const callers = 8
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				n := 1 + (g*131+it*17)%997
				marks := make([]int32, n)
				Parallel(n, func(lo, hi int) {
					// Nested region exercises deadlock freedom when all
					// workers are already busy.
					Parallel(4, func(_, _ int) {})
					for i := lo; i < hi; i++ {
						marks[i]++
					}
				})
				for i, m := range marks {
					if m != 1 {
						t.Errorf("caller %d iter %d: index %d visited %d times", g, it, i, m)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelDeterministicChunks checks the dispatch path on an idle
// pool: with no other region running, a region's chunk boundaries are a
// pure function of (n, GOMAXPROCS). (Callers may not rely on the cuts —
// a busy machine runs the region on its caller — only on the partition.)
func TestParallelDeterministicChunks(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	boundaries := func(n int) map[[2]int]bool {
		var mu sync.Mutex
		m := map[[2]int]bool{}
		Parallel(n, func(lo, hi int) {
			mu.Lock()
			m[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return m
	}
	for _, n := range []int{1, 3, 7, 64, 1000} {
		b1, b2 := boundaries(n), boundaries(n)
		if len(b1) != len(b2) {
			t.Fatalf("n=%d: chunk count varies between runs: %d vs %d", n, len(b1), len(b2))
		}
		for k := range b1 {
			if !b2[k] {
				t.Fatalf("n=%d: chunk %v present in one run only", n, k)
			}
		}
	}
}

// TestParallelOfferSurvivesBacklog pins that what a region is given does
// not depend on what earlier regions left behind. Every worker is held
// inside a region body (GOMAXPROCS raised past the pool's size, so that is
// not saturation) while a run of short regions passes with no helper to
// answer their offers — the state a round's tail leaves when the workers'
// threads wake slowly. The workers come free only once the next region is
// under way, and its two chunks must still run side by side, which they
// show by meeting. A pool that loses the offer to the backlog runs them
// one after the other on the caller — for fl.ParallelClients, a whole
// round on one core.
func TestParallelOfferSurvivesBacklog(t *testing.T) {
	ensurePool()
	nw := int(poolWorkers.Load())
	old := runtime.GOMAXPROCS(nw + 3)
	defer runtime.GOMAXPROCS(old)

	release := make(chan struct{})
	var held, holder sync.WaitGroup
	held.Add(nw + 1)
	holder.Add(1)
	go func() {
		defer holder.Done()
		Parallel(nw+1, func(_, _ int) { held.Done(); <-release })
	}()
	held.Wait()
	for i := 0; i < 8*nw; i++ {
		Parallel(2, func(_, _ int) {})
	}

	meet := make(chan struct{})
	var free sync.Once
	var alone atomic.Bool
	Parallel(2, func(_, _ int) {
		free.Do(func() { close(release) })
		select {
		case meet <- struct{}{}:
		case <-meet:
		case <-time.After(5 * time.Second):
			alone.Store(true)
		}
	})
	holder.Wait()
	if alone.Load() {
		t.Fatal("after a backlog of short regions, the region's two chunks ran one after the other")
	}
}

// TestParallelLateHelperClaimsOnlyLiveChunks runs a long stream of short
// regions back to back, every fourth one nesting a region per chunk, so
// that workers keep waking after the region they were kicked for has
// returned and its slot holds a later one. Every visit stamps its index
// with its region's generation; an index visited twice in one region, or
// left unstamped, or stamped afterwards by a region that already returned,
// shows in that region's own check. Under -race a helper that reads a
// slot's fields without owning a chunk is a reported race.
func TestParallelLateHelperClaimsOnlyLiveChunks(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprint("GOMAXPROCS=", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const regions = 100_000
			stamp := make([]atomic.Uint32, 64)
			var dup atomic.Int32            // across regions: a late duplicate lands in a later check
			work := make([]int, len(stamp)) // owned by the index's range, like a layer's output
			for g := uint32(1); g <= regions; g++ {
				n := 2 + int(g*7919)%(len(stamp)-1)
				spin := int(g%16) * 8 // most regions end before a kicked worker wakes, some not
				visit := func(lo, hi int) {
					for i := lo; i < hi; i++ {
						if stamp[i].Swap(g) == g {
							dup.Add(1)
						}
						for k := 0; k < spin; k++ {
							work[i] += k
						}
					}
				}
				if g%4 == 0 {
					Parallel(n, func(lo, hi int) {
						Parallel(hi-lo, func(a, b int) { visit(lo+a, lo+b) })
					})
				} else {
					Parallel(n, visit)
				}
				if d := dup.Load(); d != 0 {
					t.Fatalf("by region %d (n=%d): %d indices visited twice", g, n, d)
				}
				for i := 0; i < n; i++ {
					if s := stamp[i].Load(); s != g {
						t.Fatalf("region %d (n=%d): index %d stamped by region %d", g, n, i, s)
					}
				}
			}
		})
	}
}

// TestScratchPoolHammer checks concurrent Get/Put cycles return correctly
// sized, privately owned buffers. Under -race it proves buffers are never
// handed to two goroutines at once.
func TestScratchPoolHammer(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)

	var fail atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 500; it++ {
				n := 1 + (g*977+it*31)%5000
				s := GetScratch(n)
				if len(s) != n {
					fail.Add(1)
					return
				}
				tag := float32(g*1000000 + it)
				for i := range s {
					s[i] = tag
				}
				for i := range s {
					if s[i] != tag {
						fail.Add(1)
						return
					}
				}
				PutScratch(s)
			}
		}(g)
	}
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatalf("%d goroutines observed a corrupted or mis-sized scratch buffer", fail.Load())
	}
}

func TestGetScratchEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1 << poolMinBits, (1 << 20) + 1} {
		s := GetScratch(n)
		if len(s) != n {
			t.Fatalf("GetScratch(%d) returned len %d", n, len(s))
		}
		PutScratch(s)
	}
	PutScratch(nil)                  // must not panic
	PutScratch(make([]float32, 3))   // below pooled minimum: dropped
	PutScratch(make([]float32, 100)) // non-power-of-two cap is fine
}
