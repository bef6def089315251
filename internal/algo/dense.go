package algo

import (
	"spatl/internal/comm"
	"spatl/internal/telemetry"
)

// The dense upload path, shared by FedAvg/FedProx, FedNova and
// SCAFFOLD. An upload is one or two dense vectors (FedAvg: the state;
// FedNova: d and v; SCAFFOLD: Δw and Δc) and each is folded as
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

// denseIngest is the server-side upload path of a dense aggregator: the
// stream engine over denseUpload, the drop counter, and the Collect
// entry points. The embedding aggregator supplies parse (its payload
// framing and length checks — header reads only) and the engine's
// foldRun (its accumulators), and gets Collect, CollectLate,
// CollectBatch, Dropped and SetTelemetry promoted.
type denseIngest struct {
	Telemetered
	Stream[denseUpload]

	// parse checks one payload's framing and every dense header in it
	// against the model and returns the views. It must take no buffer
	// and allocate nothing: a rejected upload costs only the check.
	parse func(trainSize int, payload []byte) (denseUpload, bool)

	curRound int
	dropped  telemetry.Counter
}

// initDense wires the engine; called once from the aggregator's
// constructor.
func (d *denseIngest) initDense(parse func(int, []byte) (denseUpload, bool), foldRun func([]denseUpload)) {
	d.parse = parse
	release := func(u denseUpload) {
		if u.owned {
			comm.PutBuf(u.raw)
		}
	}
	// Parking is the one place an upload outlives its Collect call: copy
	// the bytes into a pooled buffer and re-take the views over the copy.
	own := func(u denseUpload) denseUpload {
		buf := comm.GetBuf(len(u.raw))
		copy(buf, u.raw)
		own, _ := d.parse(0, buf) // same bytes: passes as u did
		own.owned, own.w = true, u.w
		return own
	}
	d.Init(foldRun, release, own)
}

// Dropped reports how many malformed uploads have been discarded since
// construction; surfaced so operators can tell a skewed aggregate from a
// healthy one.
func (d *denseIngest) Dropped() int64 { return d.dropped.Value() }

// SetTelemetry implements Wirer, additionally exposing the drop counter
// and the stream gauges through the registry — the same counter Dropped
// reads.
func (d *denseIngest) SetTelemetry(s *telemetry.Set) {
	d.Telemetered.SetTelemetry(s)
	if s != nil && s.Reg != nil {
		s.Reg.Attach("algo.uploads_dropped", &d.dropped)
		d.WireStream(s.Reg)
	}
}

// admit is the front half of every Collect: observe the size, check the
// headers. A rejected upload is counted and, when it came from a
// selected client, its position resolved as absent — the cursor never
// waits for a contribution that was refused.
func (d *denseIngest) admit(client uint32, trainSize int, payload []byte) (denseUpload, bool) {
	d.ObserveSize("payload.up", len(payload))
	u, ok := d.parse(trainSize, payload)
	if !ok {
		d.dropped.Add(1)
		d.skip(client)
	}
	return u, ok
}

// Collect implements Aggregator: check the upload's headers and hand it
// to the streaming engine — folded from the caller's bytes when it is
// at the cursor, parked as a pooled byte copy when it is early. payload
// may be reused as soon as Collect returns.
func (d *denseIngest) Collect(round int, client uint32, trainSize int, payload []byte) {
	defer d.RoundSpan(round, "agg.collect").End()
	d.curRound = round
	if u, ok := d.admit(client, trainSize, payload); ok {
		d.route(client, u)
	}
	d.flush()
}

// CollectLate implements Aggregator: a carried-over straggler
// upload folds at its delivery position, outside the cursor.
func (d *denseIngest) CollectLate(round int, client uint32, trainSize int, payload []byte) {
	defer d.RoundSpan(round, "agg.collect").End()
	d.curRound = round
	d.ObserveSize("payload.up", len(payload))
	if u, ok := d.parse(trainSize, payload); ok {
		d.FoldNow(u)
	} else {
		d.dropped.Add(1)
	}
}

// CollectBatch implements BatchCollector: equivalent to Collect called
// on each upload in order, with every upload the cursor can reach folded
// as one run — for a shard's entries in selection order, the whole
// batch.
func (d *denseIngest) CollectBatch(round int, ups []Upload) {
	defer d.RoundSpan(round, "agg.collect").End()
	d.curRound = round
	for _, up := range ups {
		if u, ok := d.admit(up.Client, up.TrainSize, up.Payload); ok {
			d.route(up.Client, u)
		}
	}
	d.flush()
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
