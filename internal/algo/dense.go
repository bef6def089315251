package algo

import "spatl/internal/comm"

// The dense upload path, shared by FedAvg/FedProx, FedNova, SCAFFOLD and
// SSFL. An upload is one or two dense-layout vectors (FedAvg: the state;
// FedNova: d and v; SCAFFOLD: Δw and Δc; SSFL: the saliency scores, then
// the packed kept values of a values-only frame) and each is folded as
// acc[j] += wᵢ·f64(xᵢ[j]) in the stream engine's fold order. The path
// is one pass over the wire bytes: a header check that takes no buffer,
// then a fused decode→fold kernel reading the values where the
// transport left them. Nothing is decoded into a []float32, nothing is
// copied unless the upload has to park, and a parked upload is a pooled
// copy of its bytes — half the memory of its decoded form for f16.

// foldBlock is how many accumulator indices one block of the run fold
// covers: 16 KiB of float64 accumulator, which stays in L1 while the
// block walks every payload of the run. The per-index fold chain would
// be bitwise identical at any value.
const foldBlock = 2048

// denseUpload is one client's header-checked round contribution, still
// wire bytes.
type denseUpload struct {
	raw   []byte            // the whole payload; a pooled copy once owned
	owned bool              // raw came from comm.GetBuf and returns there
	part  [2]comm.DenseView // views into raw; FedAvg uses part[0] only
	w     float64           // fold weight (data size; 1 for SCAFFOLD)
	tau   float64           // FedNova's local step count τᵢ
}

// initDense wires a dense aggregator's engine, once, from its
// constructor: parse is the aggregator's payload framing and length
// checks — header reads only, no buffer taken — and foldRun its
// accumulators. An upload is folded from the caller's bytes; the one
// that parks is copied into a pooled buffer and parsed again over the
// copy.
func initDense(s *Stream[denseUpload], parse func(uint32, int, []byte) (denseUpload, bool), foldRun func([]denseUpload)) {
	s.Init(parse, foldRun, releaseDense, func(u denseUpload) denseUpload {
		buf := comm.GetBuf(len(u.raw))
		copy(buf, u.raw)
		own, _ := parse(0, 0, buf) // same bytes: passes as u did
		own.owned, own.w = true, u.w
		return own
	})
}

// releaseDense returns a parked upload's pooled copy.
func releaseDense(u denseUpload) {
	if u.owned {
		comm.PutBuf(u.raw)
	}
}

// foldDense accumulates acc[j] += wᵢ·f64(xᵢ[j]) for part of every
// upload of the run, in run order per index, over fixed-size index
// blocks walked on the caller: each block walks the payloads in run
// order, so the per-index chain is the serial one. No second core: it
// cost more than it saved on the default model, whose pieces are in the
// caller's cache, and saved under 5 % of a full-width resnet20 round
// (DESIGN §14).
func foldDense(acc []float64, run []denseUpload, part int) {
	for lo := 0; lo < len(acc); lo += foldBlock {
		blk := acc[lo:min(lo+foldBlock, len(acc))]
		for i := range run {
			u := &run[i]
			u.part[part].AccumScaled(blk, lo, u.w)
		}
	}
}

// zeroed returns s resized to n and cleared — the start of a round's
// accumulation.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
