package comm

import (
	"encoding/binary"
	"fmt"
)

// Heterogeneous-federation frames (internal/hetero): a federation whose
// clients do not share a model shape needs two payloads the homogeneous
// codecs cannot express. The broadcast must carry one model per cluster
// plus the full assignment table (every client learns its own cluster
// and — at reassignment — its next one, from the same frame). The
// upload must carry the shape metadata the server validates against its
// own bookkeeping: which cluster the client trained under and which
// width slice its values cover. The slice's index ranges travel in the
// upload itself, EncodeSparse-style, so a decoded frame is
// self-describing and the fuzz harness can exercise slice-spec
// truncation without any out-of-band state.
//
// Both frames reuse the bulk float32 packers and the *Into buffer-reuse
// discipline of the other codecs; steady-state rounds serialize with no
// allocation.

const (
	magicHeteroBcast  = 0x47 // 'G'
	magicHeteroUpdate = 0x48 // 'H'
)

// HeteroBcast is the server→client frame of a clustered federation:
// the per-client cluster assignment table and one full-width model per
// cluster, cluster-major.
type HeteroBcast struct {
	Clusters int       // number of cluster models, 1..255
	Assign   []uint8   // per-client cluster, indexed by client ID
	StateLen int       // flat state length of one model
	Models   []float32 // Clusters×StateLen, cluster-major
}

// Model returns cluster k's flat state, aliasing the frame's backing
// array.
func (h *HeteroBcast) Model(k int) []float32 {
	return h.Models[k*h.StateLen : (k+1)*h.StateLen]
}

// Validate checks internal consistency: cluster count in range, models
// buffer exactly cluster-major, every assignment in range.
func (h *HeteroBcast) Validate() error {
	if h.Clusters < 1 || h.Clusters > 255 {
		return fmt.Errorf("comm: hetero broadcast has %d clusters, want 1..255", h.Clusters)
	}
	if len(h.Models) != h.Clusters*h.StateLen {
		return fmt.Errorf("comm: hetero broadcast has %d model values for %d clusters × state %d", len(h.Models), h.Clusters, h.StateLen)
	}
	for i, c := range h.Assign {
		if int(c) >= h.Clusters {
			return fmt.Errorf("comm: client %d assigned to cluster %d of %d", i, c, h.Clusters)
		}
	}
	return nil
}

// HeteroBcastLen returns the encoded size of a k-cluster, n-client
// broadcast over stateLen-element models — useful for pre-sizing pooled
// buffers.
func HeteroBcastLen(k, n, stateLen int) int {
	return 1 + 1 + 4 + n + 4 + 4*k*stateLen
}

// EncodedLen returns the size of the payload EncodeHeteroBcast produces.
func (h *HeteroBcast) EncodedLen() int {
	return HeteroBcastLen(h.Clusters, len(h.Assign), h.StateLen)
}

// EncodeHeteroBcast serializes a cluster broadcast: tag, uint8 cluster
// count, uint32 client count, assignment bytes, uint32 state length,
// cluster-major float32 models.
func EncodeHeteroBcast(h *HeteroBcast) []byte {
	return EncodeHeteroBcastInto(nil, h)
}

// EncodeHeteroBcastInto is EncodeHeteroBcast writing into dst (reused
// when its capacity suffices, reallocated otherwise).
func EncodeHeteroBcastInto(dst []byte, h *HeteroBcast) []byte {
	buf := sizeBytes(dst, h.EncodedLen())
	buf[0] = magicHeteroBcast
	buf[1] = uint8(h.Clusters)
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(h.Assign)))
	off := 6 + copy(buf[6:], h.Assign)
	binary.LittleEndian.PutUint32(buf[off:], uint32(h.StateLen))
	off += 4
	putF32Bulk(buf[off:], h.Models)
	return buf
}

// DecodeHeteroBcastInto parses a payload produced by EncodeHeteroBcast
// into h, reusing h.Assign and h.Models when their capacities suffice.
// On error the fields of h keep their prior lengths (though backing
// contents may have been scribbled), so the buffers remain reusable.
func DecodeHeteroBcastInto(h *HeteroBcast, buf []byte) error {
	if len(buf) < 6 || buf[0] != magicHeteroBcast {
		return fmt.Errorf("comm: not a hetero broadcast payload")
	}
	k := int(buf[1])
	n := wireCount(buf[2:6], 1, len(buf))
	off := 6
	if len(buf) < off+n+4 {
		return fmt.Errorf("comm: hetero broadcast truncated in assignment")
	}
	assign := sizeBytes(h.Assign, n)
	copy(assign, buf[off:off+n])
	off += n
	stateLen := wireCount(buf[off:], 4*max(k, 1), len(buf))
	off += 4
	nv := k * stateLen
	if len(buf) != off+4*nv {
		return fmt.Errorf("comm: hetero broadcast length %d, want %d", len(buf), off+4*nv)
	}
	out := HeteroBcast{Clusters: k, Assign: assign, StateLen: stateLen, Models: sizeF32(h.Models, nv)}
	getF32Bulk(out.Models, buf[off:])
	if err := out.Validate(); err != nil {
		return err
	}
	*h = out
	return nil
}

// HeteroUpdate is the client→server frame of a clustered federation: a
// sparse slice upload stamped with the cluster the client trained under
// and the width multiplier (in thousandths) its slice was derived from.
// The server validates both against its own assignment and width tables
// before folding; a mismatch means the client trained against a stale
// or corrupted broadcast and the upload is dropped.
type HeteroUpdate struct {
	Cluster    uint8
	WidthMilli uint16 // width multiplier ×1000 (250, 500, 1000, ...)
	Sparse            // the slice's index ranges + packed values
}

// HeteroUpdateLen returns the encoded size of an upload carrying
// nRanges index runs and nVals values — useful for pre-sizing pooled
// buffers.
func HeteroUpdateLen(nRanges, nVals int) int {
	return 1 + 1 + 2 + 4 + 8*nRanges + 4 + 4*nVals
}

// EncodedLen returns the size of the payload EncodeHeteroUpdateInto produces.
func (u *HeteroUpdate) EncodedLen() int {
	return HeteroUpdateLen(len(u.Ranges), len(u.Values))
}

// EncodeHeteroUpdateInto serializes a slice upload into dst (reused when
// its capacity suffices, reallocated otherwise): tag, uint8 cluster,
// uint16 width-milli, then the EncodeSparse range/value layout (uint32
// range count, packed (start,len) pairs, uint32 value count, float32
// values).
func EncodeHeteroUpdateInto(dst []byte, u *HeteroUpdate) []byte {
	buf := sizeBytes(dst, u.EncodedLen())
	buf[0] = magicHeteroUpdate
	buf[1] = u.Cluster
	binary.LittleEndian.PutUint16(buf[2:4], u.WidthMilli)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(u.Ranges)))
	off := 8
	for _, r := range u.Ranges {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(r.Start)|uint64(r.Len)<<32)
		off += 8
	}
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(u.Values)))
	off += 4
	putF32Bulk(buf[off:], u.Values)
	return buf
}

// DecodeHeteroUpdateInto parses a payload produced by
// EncodeHeteroUpdateInto into u, reusing u.Ranges and u.Values when
// their capacities suffice. On error the fields of u keep their prior
// lengths (though backing contents may have been scribbled), so the
// buffers remain reusable.
func DecodeHeteroUpdateInto(u *HeteroUpdate, buf []byte) error {
	if len(buf) < 8 || buf[0] != magicHeteroUpdate {
		return fmt.Errorf("comm: not a hetero update payload")
	}
	cluster := buf[1]
	widthMilli := binary.LittleEndian.Uint16(buf[2:4])
	nr := wireCount(buf[4:8], 8, len(buf))
	off := 8
	if len(buf) < off+8*nr+4 {
		return fmt.Errorf("comm: hetero update truncated in ranges")
	}
	ranges := u.Ranges[:0]
	if cap(ranges) < nr {
		ranges = make([]Range, 0, nr)
	}
	for i := 0; i < nr; i++ {
		w := binary.LittleEndian.Uint64(buf[off : off+8])
		ranges = append(ranges, Range{Start: uint32(w), Len: uint32(w >> 32)})
		off += 8
	}
	nv := wireCount(buf[off:], 4, len(buf))
	off += 4
	if len(buf) != off+4*nv {
		return fmt.Errorf("comm: hetero update length %d, want %d", len(buf), off+4*nv)
	}
	out := HeteroUpdate{Cluster: cluster, WidthMilli: widthMilli, Sparse: Sparse{Ranges: ranges, Values: sizeF32(u.Values, nv)}}
	getF32Bulk(out.Values, buf[off:])
	if err := out.Validate(); err != nil {
		return err
	}
	*u = out
	return nil
}
