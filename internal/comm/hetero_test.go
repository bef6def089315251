package comm

import (
	"bytes"
	"testing"
)

func sampleBcast() *HeteroBcast {
	return &HeteroBcast{
		Clusters: 2,
		Assign:   []uint8{0, 1, 1, 0, 1},
		StateLen: 3,
		Models:   []float32{1, 2, 3, -4, 5.5, 0},
	}
}

func sampleUpdate() *HeteroUpdate {
	return &HeteroUpdate{
		Cluster:    1,
		WidthMilli: 500,
		Sparse: Sparse{
			Ranges: []Range{{0, 2}, {5, 3}},
			Values: []float32{1, -2, 3, 4.25, -5},
		},
	}
}

func TestHeteroBcastRoundTrip(t *testing.T) {
	h := sampleBcast()
	buf := EncodeHeteroBcast(h)
	if len(buf) != h.EncodedLen() {
		t.Fatalf("encoded length %d, want %d", len(buf), h.EncodedLen())
	}
	got := &HeteroBcast{}
	err := DecodeHeteroBcastInto(got, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Clusters != h.Clusters || got.StateLen != h.StateLen {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Assign, h.Assign) {
		t.Fatalf("assign mismatch: %v", got.Assign)
	}
	for i := range h.Models {
		if got.Models[i] != h.Models[i] {
			t.Fatalf("model value %d: %v != %v", i, got.Models[i], h.Models[i])
		}
	}
	if m := got.Model(1); m[0] != -4 || m[2] != 0 {
		t.Fatalf("Model(1) = %v", m)
	}
	// Into variant reuses capacity: decode a second frame into the same
	// struct and ensure no reallocation of the value buffer.
	prev := &got.Models[0]
	if err := DecodeHeteroBcastInto(got, buf); err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if &got.Models[0] != prev {
		t.Fatalf("DecodeHeteroBcastInto reallocated a sufficient buffer")
	}
}

func TestHeteroBcastRejects(t *testing.T) {
	h := sampleBcast()
	good := EncodeHeteroBcast(h)
	cases := map[string][]byte{
		"empty":            {},
		"wrong magic":      append([]byte{magicDense}, good[1:]...),
		"zero clusters":    func() []byte { b := append([]byte(nil), good...); b[1] = 0; return b }(),
		"assign oob":       func() []byte { b := append([]byte(nil), good...); b[6] = 9; return b }(),
		"truncated assign": good[:7],
		"truncated models": good[:len(good)-1],
	}
	for name, buf := range cases {
		if err := DecodeHeteroBcastInto(&HeteroBcast{}, buf); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestHeteroUpdateRoundTrip(t *testing.T) {
	u := sampleUpdate()
	buf := EncodeHeteroUpdateInto(nil, u)
	if len(buf) != u.EncodedLen() {
		t.Fatalf("encoded length %d, want %d", len(buf), u.EncodedLen())
	}
	got := &HeteroUpdate{}
	err := DecodeHeteroUpdateInto(got, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Cluster != u.Cluster || got.WidthMilli != u.WidthMilli {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Ranges) != len(u.Ranges) || got.Ranges[1] != u.Ranges[1] {
		t.Fatalf("ranges mismatch: %v", got.Ranges)
	}
	for i := range u.Values {
		if got.Values[i] != u.Values[i] {
			t.Fatalf("value %d: %v != %v", i, got.Values[i], u.Values[i])
		}
	}
	if re := EncodeHeteroUpdateInto(nil, got); !bytes.Equal(re, buf) {
		t.Fatalf("round-trip re-encode differs")
	}
}

func TestHeteroUpdateRejects(t *testing.T) {
	u := sampleUpdate()
	good := EncodeHeteroUpdateInto(nil, u)
	overlap := &HeteroUpdate{Cluster: 0, WidthMilli: 1000, Sparse: Sparse{
		Ranges: []Range{{0, 4}, {2, 2}}, Values: []float32{1, 2, 3, 4, 5, 6},
	}}
	cases := map[string][]byte{
		"empty":            {},
		"wrong magic":      append([]byte{magicSparse}, good[1:]...),
		"truncated header": good[:6],
		"truncated ranges": good[:12],
		"truncated values": good[:len(good)-2],
		"overlapping runs": EncodeHeteroUpdateInto(nil, overlap),
	}
	for name, buf := range cases {
		if err := DecodeHeteroUpdateInto(&HeteroUpdate{}, buf); err == nil {
			t.Errorf("%s: decode accepted malformed payload", name)
		}
	}
}

func TestHeteroKindOf(t *testing.T) {
	if k := KindOf(EncodeHeteroBcast(sampleBcast())); k != FrameHeteroBcast {
		t.Fatalf("broadcast kind = %v", k)
	}
	if k := KindOf(EncodeHeteroUpdateInto(nil, sampleUpdate())); k != FrameHeteroUpdate {
		t.Fatalf("update kind = %v", k)
	}
	// Cross-kind rejection: each decoder refuses the other family.
	if err := DecodeHeteroBcastInto(&HeteroBcast{}, EncodeHeteroUpdateInto(nil, sampleUpdate())); err == nil {
		t.Fatalf("broadcast decoder accepted an update frame")
	}
	if err := DecodeHeteroUpdateInto(&HeteroUpdate{}, EncodeHeteroBcast(sampleBcast())); err == nil {
		t.Fatalf("update decoder accepted a broadcast frame")
	}
}
