package algo

import (
	"encoding/binary"
	"fmt"
)

// Sharded aggregation: at 10k+ sampled clients per round, the uploads of
// a round arrive through many connections at once. The shard layer
// partitions the selection into contiguous shards, lets each shard buffer
// its uploads independently (edge aggregators over TCP, concurrent
// collectors in-process), and folds the pooled shard payloads back into
// the flat aggregator in fixed shard-ID order.
//
// Determinism contract: shards partition the selection *contiguously in
// selection order*, and the fold replays uploads in (shard ID, within-shard
// arrival) order — which is exactly the flat selection order. Every
// aggregator folds through the stream cursor (stream.go), so the fold
// order (and therefore the floating-point reduction) is identical to the
// flat path: the sharded fold is bitwise identical to the flat collect at
// any shard count. The batch path (BatchCollector) hands a shard's
// entries to the cursor in one call, so the uploads the cursor can reach
// fold as one run.

// Upload is one client's round contribution as a transport delivered it:
// the identity and data weight from the hello handshake plus the opaque
// algorithm payload.
type Upload struct {
	Client    uint32
	TrainSize int
	Payload   []byte
}

// ShardRange returns the half-open range [lo, hi) of selection positions
// owned by shard s when total positions are split into numShards
// contiguous, balanced shards. Every position belongs to exactly one
// shard and shard order preserves selection order.
func ShardRange(s, total, numShards int) (lo, hi int) {
	return s * total / numShards, (s + 1) * total / numShards
}

// shardEntryHeader is the per-entry wire overhead inside a pooled shard
// payload: client ID, train size and payload length, little-endian.
const shardEntryHeader = 4 + 4 + 4

// ShardBuffer accumulates one shard's validated uploads in arrival order,
// building the pooled wire payload incrementally — the same bytes an edge
// aggregator forwards upstream. One goroutine owns a buffer at a time;
// distinct shards may be filled concurrently.
type ShardBuffer struct {
	buf []byte
	n   int
}

// Add appends one client's upload to the shard (the payload is copied, so
// transport buffers may be recycled immediately).
func (s *ShardBuffer) Add(client uint32, trainSize int, payload []byte) {
	copy(s.Reserve(client, trainSize, len(payload)), payload)
}

// Grow makes room for entries more uploads carrying payloadBytes between
// them, so that many Reserve or Add calls proceed without moving the
// buffer. An empty buffer lets go of its old array before allocating the
// new one, so the two are never live at once.
func (s *ShardBuffer) Grow(entries, payloadBytes int) {
	if need := len(s.buf) + entries*shardEntryHeader + payloadBytes; need > cap(s.buf) {
		if len(s.buf) == 0 {
			s.buf = nil
		}
		buf := make([]byte, len(s.buf), need)
		copy(buf, s.buf)
		s.buf = buf
	}
}

// Reserve appends one client's entry with an n-byte payload and returns
// the payload's slot inside the buffer, for a producer that can write
// the upload in place instead of handing Add a copy to copy again. The
// slot's contents are unspecified until the caller fills them. It stays
// valid until Reset — but a later Reserve or Add that outgrows the
// buffer moves it, so a caller holding several slots at once calls Grow
// first.
func (s *ShardBuffer) Reserve(client uint32, trainSize, n int) []byte {
	off := len(s.buf) + shardEntryHeader
	if off+n > cap(s.buf) {
		s.buf = append(s.buf, make([]byte, shardEntryHeader+n)...)
	} else {
		s.buf = s.buf[:off+n]
	}
	h := s.buf[off-shardEntryHeader : off]
	binary.LittleEndian.PutUint32(h[0:4], client)
	binary.LittleEndian.PutUint32(h[4:8], uint32(trainSize))
	binary.LittleEndian.PutUint32(h[8:12], uint32(n))
	s.n++
	return s.buf[off : off+n : off+n]
}

// Len reports how many uploads the shard holds.
func (s *ShardBuffer) Len() int { return s.n }

// Payload returns the pooled shard payload — the concatenated entries in
// arrival order, ready to forward upstream. The slice aliases the
// buffer; it is valid until the next Add, Reserve or Reset.
func (s *ShardBuffer) Payload() []byte { return s.buf }

// Reset clears the shard for the next round, keeping the backing buffer.
func (s *ShardBuffer) Reset() {
	s.buf = s.buf[:0]
	s.n = 0
}

// DecodeShardPayload walks a pooled shard payload, calling fn for each
// entry in order. Payload slices alias buf and are only valid during the
// call. A malformed payload stops the walk with an error; entries already
// delivered stand.
func DecodeShardPayload(buf []byte, fn func(u Upload)) error {
	for len(buf) > 0 {
		if len(buf) < shardEntryHeader {
			return fmt.Errorf("algo: truncated shard entry header (%d bytes)", len(buf))
		}
		client := binary.LittleEndian.Uint32(buf[0:4])
		trainSize := binary.LittleEndian.Uint32(buf[4:8])
		n := binary.LittleEndian.Uint32(buf[8:12])
		buf = buf[shardEntryHeader:]
		if uint64(n) > uint64(len(buf)) {
			return fmt.Errorf("algo: shard entry length %d exceeds remaining %d", n, len(buf))
		}
		fn(Upload{Client: client, TrainSize: int(trainSize), Payload: buf[:n]})
		buf = buf[n:]
	}
	return nil
}

// ShardEntries decodes a pooled shard payload into an Upload slice
// (payloads alias buf), appending to dst.
func ShardEntries(dst []Upload, buf []byte) ([]Upload, error) {
	err := DecodeShardPayload(buf, func(u Upload) { dst = append(dst, u) })
	return dst, err
}

// BatchCollector is the optional fast path of an Aggregator: deliver a
// whole batch of uploads at once, so every upload the cursor can reach
// folds as one run instead of one run per Collect. CollectBatch must be
// equivalent to calling Collect on each upload in order; the stream
// engine's is, and every aggregator here embeds it.
type BatchCollector interface {
	CollectBatch(round int, ups []Upload)
}

// CollectAll feeds uploads to agg in order, through CollectBatch when
// the aggregator has one and the sequential Collect contract otherwise.
func CollectAll(agg Aggregator, round int, ups []Upload) {
	if len(ups) == 0 {
		return
	}
	if bc, ok := agg.(BatchCollector); ok {
		bc.CollectBatch(round, ups)
		return
	}
	for _, u := range ups {
		agg.Collect(round, u.Client, u.TrainSize, u.Payload)
	}
}
