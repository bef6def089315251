package algo

import "spatl/internal/comm"

// StreamFoldRef* are the serial ground-truth kernels for the streaming
// two-phase reduce.
// Each replays exactly what the streaming aggregators compute: fold
// clients one at a time IN THE GIVEN ORDER into float64 accumulators of
// the unscaled terms, then finalize with one division per index. The
// permutation suite feeds the streaming engine arbitrary arrival orders
// and asserts bitwise identity against these kernels called in
// canonical (ascending client ID) order — per index, both sides run the
// identical float64 chain acc += wᵢ·f64(xᵢ) … f32(acc/Σw).
//
// Nil rows model dropped uploads and are skipped without consuming a
// weight, matching a fold that never happened.

// StreamFoldRefFedAvg is the streaming ground truth for the FedAvg /
// FedProx dense reduce: Σwᵢxᵢ / Σwᵢ. Returns nil when nothing folded
// (the aggregator leaves the global model untouched).
func StreamFoldRefFedAvg(states [][]float32, weights []float64) []float32 {
	if len(states) == 0 {
		return nil
	}
	var acc []float64
	sumW := 0.0
	for si, st := range states {
		if st == nil {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(st))
		}
		w := weights[si]
		sumW += w
		for j, v := range st {
			acc[j] += w * float64(v)
		}
	}
	if acc == nil || sumW == 0 {
		return nil
	}
	out := make([]float32, len(acc))
	for j := range acc {
		out[j] = float32(acc[j] / sumW)
	}
	return out
}

// StreamFoldRefFedNova is the streaming ground truth for the FedNova
// reduce: τ_eff = Σwᵢτᵢ/Σwᵢ ; x ← x_g − τ_eff·(Σwᵢdᵢ/Σwᵢ) ;
// v = Σwᵢvᵢ/Σwᵢ. Returns (nil, nil) when nothing folded.
func StreamFoldRefFedNova(global []float32, ds, vs [][]float32, taus, ws []float64) (state, velocity []float32) {
	accD := make([]float64, len(global))
	var accV []float64
	sumW, sumWTau := 0.0, 0.0
	folded := false
	for i, d := range ds {
		if d == nil {
			continue
		}
		folded = true
		if accV == nil {
			accV = make([]float64, len(vs[i]))
		}
		w := ws[i]
		sumW += w
		sumWTau += w * taus[i]
		for j, v := range d {
			accD[j] += w * float64(v)
		}
		for j, v := range vs[i] {
			accV[j] += w * float64(v)
		}
	}
	if !folded || sumW == 0 {
		return nil, nil
	}
	tauEff := sumWTau / sumW
	state = make([]float32, len(global))
	for j := range global {
		state[j] = float32(float64(global[j]) - tauEff*(accD[j]/sumW))
	}
	velocity = make([]float32, len(accV))
	for j := range accV {
		velocity[j] = float32(accV[j] / sumW)
	}
	return state, velocity
}

// StreamFoldRefSCAFFOLD is the streaming ground truth for the SCAFFOLD
// reduce: x ← x_g + (ΣΔwᵢ)/|S| ; c ← c + (ΣΔcᵢ)/N, with the sums folded
// client by client in float64. Returns (nil, nil) when nothing folded.
func StreamFoldRefSCAFFOLD(global, c []float32, dWs, dCs [][]float32, numClients int) (state, newC []float32) {
	accW := make([]float64, len(global))
	accC := make([]float64, len(c))
	folded := 0
	for i, dW := range dWs {
		if dW == nil {
			continue
		}
		folded++
		for j, v := range dW {
			accW[j] += float64(v)
		}
		for j, v := range dCs[i] {
			accC[j] += float64(v)
		}
	}
	if folded == 0 {
		return nil, nil
	}
	invS := float64(folded)
	state = make([]float32, len(global))
	for j := range global {
		state[j] = float32(float64(global[j]) + accW[j]/invS)
	}
	newC = make([]float32, len(c))
	invN := float64(numClients)
	for j := range c {
		newC[j] = float32(float64(c[j]) + accC[j]/invN)
	}
	return state, newC
}

// refScatterAccum densifies one sparse upload into the float64
// accumulator: acc[j] += f64(value), count[j]++ at every covered index.
func refScatterAccum(acc []float64, count []int32, s *comm.Sparse) {
	off := 0
	for _, r := range s.Ranges {
		start, n := int(r.Start), int(r.Len)
		for k := 0; k < n; k++ {
			acc[start+k] += float64(s.Values[off+k])
			count[start+k]++
		}
		off += n
	}
}

// StreamFoldRefSPATL is the streaming ground truth for the SPATL
// salient-index reduce (eq. 12): per index, the mean of the
// contributing deltas folded in float64, added onto the global state;
// and eq. 11's 1/N-scaled control update at the uploaded control
// indices. dCs entries may be nil (a bad control part keeps the weight
// delta). Returns (nil, nil) when nothing folded.
func StreamFoldRefSPATL(global, c []float32, dWs, dCs []*comm.Sparse, numClients int) (state, newC []float32) {
	acc := make([]float64, len(global))
	count := make([]int32, len(global))
	accC := make([]float64, len(c))
	folded := false
	for i, dW := range dWs {
		if dW == nil {
			continue
		}
		folded = true
		refScatterAccum(acc, count, dW)
		if i < len(dCs) && dCs[i] != nil {
			off := 0
			for _, r := range dCs[i].Ranges {
				start, n := int(r.Start), int(r.Len)
				for k := 0; k < n; k++ {
					accC[start+k] += float64(dCs[i].Values[off+k])
				}
				off += n
			}
		}
	}
	if !folded {
		return nil, nil
	}
	state = make([]float32, len(global))
	copy(state, global)
	for j := range state {
		if count[j] > 0 {
			state[j] += float32(acc[j] / float64(count[j]))
		}
	}
	newC = make([]float32, len(c))
	invN := float64(numClients)
	for j := range c {
		newC[j] = float32(float64(c[j]) + accC[j]/invN)
	}
	return state, newC
}

// StreamFoldRefSSFLScores is the streaming ground truth for the SSFL
// mask-agreement score reduce: the weighted mean of the per-channel
// saliency vectors, folded in float64 and left in float64 (the mask
// derivation consumes it directly). Returns nil when nothing folded.
func StreamFoldRefSSFLScores(scores [][]float32, weights []float64) []float64 {
	var acc []float64
	sumW := 0.0
	for si, s := range scores {
		if s == nil {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(s))
		}
		w := weights[si]
		sumW += w
		for j, v := range s {
			acc[j] += w * float64(v)
		}
	}
	if acc == nil || sumW == 0 {
		return nil
	}
	for j := range acc {
		acc[j] /= sumW
	}
	return acc
}

// StreamFoldRefSSFLPacked is the streaming ground truth for the SSFL
// mask-static packed reduce: the dense FedAvg fold applied to the
// packed value vectors — the mask is data, it never enters the
// floating-point order.
func StreamFoldRefSSFLPacked(packed [][]float32, weights []float64) []float32 {
	return StreamFoldRefFedAvg(packed, weights)
}

// SSFLReduceReference is the retained dense reference for the packed
// sparse reduce: densify every upload onto the global state, run the
// serial dense streaming fold, return the new state (nil when nothing
// survived). FinishRound's packed reduction must match it bitwise at any
// GOMAXPROCS — the complement contributes exact zeros to every term, and
// at the kept indices both reductions fold clients in ascending order in
// float64.
func SSFLReduceReference(global []float32, packed [][]float32, weights []float64, ranges []comm.Range) []float32 {
	states := make([][]float32, len(packed))
	for i, p := range packed {
		if p == nil {
			continue
		}
		st := append([]float32(nil), global...)
		if !comm.ScatterCopy(st, p, ranges) {
			continue
		}
		states[i] = st
	}
	return StreamFoldRefFedAvg(states, weights)
}
