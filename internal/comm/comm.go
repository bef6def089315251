// Package comm implements the wire format and cost accounting for
// federated-learning communication. Every payload that would cross the
// network in a real deployment is actually serialized here, so the byte
// counts reported by the experiment harness are exact, not modeled:
// dense payloads carry float32 weights; sparse payloads carry the
// salient-parameter values plus their index ranges (SPATL §IV-C1,
// "negligible burdens").
//
// Following the paper's accounting (§V-C, eq. 13), the headline
// communication cost is the per-round uplink (client → server) volume;
// the Meter tracks both directions so downlink can be reported too.
//
// The codecs come in two speeds: the scalar reference implementations in
// ref.go define the format, and the bulk implementations here move
// float32 values with an AVX2 copy on amd64 (little-endian bytes are the
// values' memory image) and eight per loop pass elsewhere, packing value
// pairs into single 64-bit little-endian words. Bulk and reference codecs
// are bitwise-equivalence tested against each other. Every codec has an *Into variant that
// reuses a caller-supplied buffer (typically from the payload pool in
// bufpool.go), so steady-state rounds serialize with no allocation.
package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatl/internal/telemetry"
	"spatl/internal/tensor"
)

// magic bytes distinguish payload kinds on the wire.
const (
	magicDense  = 0x44 // 'D'
	magicSparse = 0x53 // 'S'
)

// DenseLen returns the encoded size of an n-element dense float32
// payload — useful for pre-sizing pooled buffers.
func DenseLen(n int) int { return 1 + 4 + 4*n }

// putF32Bulk stores vals little-endian into dst (len(dst) ≥ 4*len(vals)):
// the AVX2 copy kernel takes what it can (tensor.VecPutF32LE, a byte copy
// on little-endian amd64), and the rest goes eight values per pass, two
// packed per 64-bit store — all of it on other machines.
func putF32Bulk(dst []byte, vals []float32) {
	k := tensor.VecPutF32LE(dst, vals)
	dst, vals = dst[4*k:], vals[k:]
	for len(vals) >= 8 {
		d := dst[:32]
		binary.LittleEndian.PutUint64(d[0:8], uint64(math.Float32bits(vals[0]))|uint64(math.Float32bits(vals[1]))<<32)
		binary.LittleEndian.PutUint64(d[8:16], uint64(math.Float32bits(vals[2]))|uint64(math.Float32bits(vals[3]))<<32)
		binary.LittleEndian.PutUint64(d[16:24], uint64(math.Float32bits(vals[4]))|uint64(math.Float32bits(vals[5]))<<32)
		binary.LittleEndian.PutUint64(d[24:32], uint64(math.Float32bits(vals[6]))|uint64(math.Float32bits(vals[7]))<<32)
		dst = dst[32:]
		vals = vals[8:]
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getF32Bulk loads len(out) little-endian float32s from src: the AVX2
// copy kernel takes what it can (tensor.VecGetF32LE), and the rest goes
// eight per pass, two unpacked per 64-bit load.
func getF32Bulk(out []float32, src []byte) {
	k := tensor.VecGetF32LE(out, src)
	out, src = out[k:], src[4*k:]
	for len(out) >= 8 {
		s := src[:32]
		u0 := binary.LittleEndian.Uint64(s[0:8])
		u1 := binary.LittleEndian.Uint64(s[8:16])
		u2 := binary.LittleEndian.Uint64(s[16:24])
		u3 := binary.LittleEndian.Uint64(s[24:32])
		out[0] = math.Float32frombits(uint32(u0))
		out[1] = math.Float32frombits(uint32(u0 >> 32))
		out[2] = math.Float32frombits(uint32(u1))
		out[3] = math.Float32frombits(uint32(u1 >> 32))
		out[4] = math.Float32frombits(uint32(u2))
		out[5] = math.Float32frombits(uint32(u2 >> 32))
		out[6] = math.Float32frombits(uint32(u3))
		out[7] = math.Float32frombits(uint32(u3 >> 32))
		out = out[8:]
		src = src[32:]
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// wireCount reads the uint32 element count at b[:4] of a payload of
// avail bytes whose elements take size bytes each. A count whose
// elements alone would overrun the payload comes back as avail/size+1:
// still too many, so every length check rejects it, where the count
// converted as it stands would, on a 32-bit int, turn negative or wrap
// its byte length and pass.
func wireCount(b []byte, size, avail int) int {
	c := uint64(binary.LittleEndian.Uint32(b))
	if most := uint64(avail / size); c > most {
		return int(most) + 1
	}
	return int(c)
}

// sizeBytes returns dst resized to length n, reusing its backing array
// when the capacity suffices.
func sizeBytes(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

// sizeF32 returns dst resized to length n, reusing its backing array
// when the capacity suffices.
func sizeF32(dst []float32, n int) []float32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float32, n)
}

// EncodeDense serializes a flat float32 vector: 1-byte tag, uint32
// length, then little-endian float32 values.
func EncodeDense(values []float32) []byte {
	return EncodeDenseInto(nil, values)
}

// EncodeDenseInto is EncodeDense writing into dst (reused when its
// capacity suffices, reallocated otherwise). Returns the encoded slice.
func EncodeDenseInto(dst []byte, values []float32) []byte {
	buf := DenseHeaderInto(dst, len(values))
	PutDenseValues(buf, 0, values)
	return buf
}

// DenseHeaderInto sizes dst (reused when its capacity suffices) for an
// n-value dense payload and writes its header. The values are written
// with PutDenseValues, in spans, straight from where they live.
func DenseHeaderInto(dst []byte, n int) []byte {
	buf := sizeBytes(dst, DenseLen(n))
	buf[0] = magicDense
	binary.LittleEndian.PutUint32(buf[1:5], uint32(n))
	return buf
}

// PutDenseValues writes vals as values off … off+len(vals)−1 of the dense
// payload buf, laid out by DenseHeaderInto.
func PutDenseValues(buf []byte, off int, vals []float32) {
	putF32Bulk(buf[5+4*off:], vals)
}

// PatchDensePayload overwrites element i of an encoded float32 dense
// payload in place — the cheap way to derive many distinct valid
// payloads from one template (massive-scale simulation). It is a no-op
// on payloads that are not plain dense or do not contain index i.
func PatchDensePayload(buf []byte, i int, v float32) {
	if len(buf) < 5 || buf[0] != magicDense || i < 0 {
		return
	}
	off := 5 + 4*i
	if off+4 > len(buf) {
		return
	}
	binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(v))
}

// Range is a contiguous index run [Start, Start+Len) into a flat state
// vector. Salient-parameter selection operates at filter granularity, so
// selected indices naturally form a small number of runs; shipping runs
// instead of individual indices keeps the index overhead negligible.
type Range struct {
	Start, Len uint32
}

// Sparse is a sparse state-delta payload: values laid out run by run.
type Sparse struct {
	Ranges []Range
	Values []float32
}

// Count returns the total number of indexed elements.
func (s *Sparse) Count() int {
	n := 0
	for _, r := range s.Ranges {
		n += int(r.Len)
	}
	return n
}

// EncodedLen returns the size of the payload EncodeSparse produces.
func (s *Sparse) EncodedLen() int {
	return 1 + 4 + 8*len(s.Ranges) + 4 + 4*len(s.Values)
}

// Validate checks internal consistency: values length matches ranges, no
// zero-length or overlapping runs (runs must be sorted by Start).
// Counts and ends are taken in uint64, so no run length wraps them.
func (s *Sparse) Validate() error {
	var count uint64
	for _, r := range s.Ranges {
		count += uint64(r.Len)
	}
	if count != uint64(len(s.Values)) {
		return fmt.Errorf("comm: sparse payload has %d values for %d indexed elements", len(s.Values), count)
	}
	prevEnd := uint64(0)
	for i, r := range s.Ranges {
		if r.Len == 0 {
			return fmt.Errorf("comm: zero-length range at %d", i)
		}
		if i > 0 && uint64(r.Start) < prevEnd {
			return fmt.Errorf("comm: ranges overlap or are unsorted at %d", i)
		}
		prevEnd = uint64(r.Start) + uint64(r.Len)
	}
	return nil
}

// EncodeSparse serializes a sparse payload: tag, uint32 range count,
// (start,len) pairs, uint32 value count, float32 values.
func EncodeSparse(s *Sparse) []byte {
	return EncodeSparseInto(nil, s)
}

// EncodeSparseInto is EncodeSparse writing into dst (reused when its
// capacity suffices, reallocated otherwise). Returns the encoded slice.
func EncodeSparseInto(dst []byte, s *Sparse) []byte {
	buf := sizeBytes(dst, s.EncodedLen())
	buf[0] = magicSparse
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(s.Ranges)))
	off := 5
	for _, r := range s.Ranges {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(r.Start)|uint64(r.Len)<<32)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(s.Values)))
	off += 4
	putF32Bulk(buf[off:], s.Values)
	return buf
}

// DecodeSparseInto parses a payload produced by EncodeSparse into s,
// reusing s.Ranges and s.Values when their capacities suffice. On error
// the fields of s keep their prior lengths (though backing contents may have been scribbled),
// so the buffers remain reusable.
func DecodeSparseInto(s *Sparse, buf []byte) error {
	if len(buf) < 5 || buf[0] != magicSparse {
		return fmt.Errorf("comm: not a sparse payload")
	}
	nr := wireCount(buf[1:5], 8, len(buf))
	off := 5
	if len(buf) < off+8*nr+4 {
		return fmt.Errorf("comm: sparse payload truncated in ranges")
	}
	ranges := s.Ranges[:0]
	if cap(ranges) < nr {
		ranges = make([]Range, 0, nr)
	}
	for i := 0; i < nr; i++ {
		u := binary.LittleEndian.Uint64(buf[off : off+8])
		ranges = append(ranges, Range{Start: uint32(u), Len: uint32(u >> 32)})
		off += 8
	}
	nv := wireCount(buf[off:], 4, len(buf))
	off += 4
	if len(buf) != off+4*nv {
		return fmt.Errorf("comm: sparse payload length %d, want %d", len(buf), off+4*nv)
	}
	out := Sparse{Ranges: ranges, Values: sizeF32(s.Values, nv)}
	getF32Bulk(out.Values, buf[off:])
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}

// GatherSparse extracts the elements of state covered by ranges into a
// sparse payload.
func GatherSparse(state []float32, ranges []Range) *Sparse {
	s := &Sparse{Ranges: ranges}
	s.Values = gatherValues(nil, state, ranges)
	return s
}

// GatherSparseInto is GatherSparse reusing s.Values when its capacity
// suffices. s.Ranges aliases ranges.
func GatherSparseInto(s *Sparse, state []float32, ranges []Range) {
	s.Ranges = ranges
	s.Values = gatherValues(s.Values, state, ranges)
}

// gatherValues copies the covered runs of state into dst, run by run.
func gatherValues(dst, state []float32, ranges []Range) []float32 {
	n := 0
	for _, r := range ranges {
		n += int(r.Len)
	}
	dst = sizeF32(dst, n)
	off := 0
	for _, r := range ranges {
		off += copy(dst[off:], state[r.Start:r.Start+r.Len])
	}
	return dst
}

// ScatterAdd adds each sparse value into dst at its index, and — when
// count is non-nil — increments count at every touched index. The server
// uses this to implement per-index averaged salient aggregation (SPATL
// eq. 12).
func ScatterAdd(dst []float32, count []int32, s *Sparse) {
	off := 0
	if count == nil {
		for _, r := range s.Ranges {
			n := int(r.Len)
			scatterSpan(dst[r.Start:int(r.Start)+n], s.Values[off:off+n])
			off += n
		}
		return
	}
	for _, r := range s.Ranges {
		n := int(r.Len)
		d := dst[r.Start : int(r.Start)+n]
		c := count[r.Start : int(r.Start)+n]
		v := s.Values[off : off+n]
		// One fused pass: salient runs are typically a few dozen indices,
		// where a second sweep for the counts costs more than it saves.
		for i := range d {
			d[i] += v[i]
			c[i]++
		}
		off += n
	}
}

// scatterSpanMin is the run length below which a sparse span is added with
// a plain loop: the vector kernel's call overhead outweighs its throughput
// on the short runs salient-parameter payloads are made of. Elementwise
// adds have no accumulation order, so the cutoff never changes a result.
const scatterSpanMin = 64

func scatterSpan(d, v []float32) {
	if len(d) >= scatterSpanMin {
		tensor.VecAdd(d, v)
		return
	}
	for i, x := range v {
		d[i] += x
	}
}

// Meter accumulates communication volume on lock-free atomic counters —
// it is hammered concurrently by every client inside a parallel round.
// The counters are telemetry.Counters, so Bind can expose them through
// a registry; the accessors below are thin wrappers over those same
// counters, keeping exactly one source of truth for traffic totals.
type Meter struct {
	up   telemetry.Counter
	down telemetry.Counter

	// Relay counters attribute the extra hop of a two-level aggregation
	// tree: pooled shard payloads moving edge→root (relay up) and
	// broadcasts moving root→edge (relay down). Client-facing traffic
	// stays in up/down — identical whichever topology carried it — so
	// cross-transport byte accounting keeps matching; the relay pair is
	// the tree's own overhead, reported separately.
	relayUp   telemetry.Counter
	relayDown telemetry.Counter
}

// Bind registers the meter's counters in reg as "<prefix>.up_bytes",
// "<prefix>.down_bytes", "<prefix>.relay_up_bytes" and
// "<prefix>.relay_down_bytes". The registry reads the very counters the
// meter increments — no copies, no second accounting path.
func (m *Meter) Bind(reg *telemetry.Registry, prefix string) {
	reg.Attach(prefix+".up_bytes", &m.up)
	reg.Attach(prefix+".down_bytes", &m.down)
	reg.Attach(prefix+".relay_up_bytes", &m.relayUp)
	reg.Attach(prefix+".relay_down_bytes", &m.relayDown)
}

// AddUp records client→server bytes.
func (m *Meter) AddUp(n int) { m.up.Add(int64(n)) }

// AddDown records server→client bytes.
func (m *Meter) AddDown(n int) { m.down.Add(int64(n)) }

// AddRelayUp records edge→root pooled shard bytes.
func (m *Meter) AddRelayUp(n int) { m.relayUp.Add(int64(n)) }

// AddRelayDown records root→edge broadcast bytes.
func (m *Meter) AddRelayDown(n int) { m.relayDown.Add(int64(n)) }

// Up returns total client→server bytes.
func (m *Meter) Up() int64 { return m.up.Value() }

// Down returns total server→client bytes.
func (m *Meter) Down() int64 { return m.down.Value() }

// RelayUp returns total edge→root pooled shard bytes.
func (m *Meter) RelayUp() int64 { return m.relayUp.Value() }

// RelayDown returns total root→edge broadcast bytes.
func (m *Meter) RelayDown() int64 { return m.relayDown.Value() }

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.up.Reset()
	m.down.Reset()
	m.relayUp.Reset()
	m.relayDown.Reset()
}

// MB formats a byte count as mebibytes.
func MB(n int64) float64 { return float64(n) / (1024 * 1024) }
