package algo

import (
	"bytes"
	"testing"
)

// FuzzShardPayload hammers the pooled shard wire format: the decoder
// must never panic on hostile bytes, must reject anything a ShardBuffer
// would not have produced, and accepted payloads must re-encode to the
// identical bytes (the format has exactly one encoding per entry list).
func FuzzShardPayload(f *testing.F) {
	var sb ShardBuffer
	sb.Add(3, 50, []byte{1, 2, 3})
	sb.Add(4, 70, nil)
	sb.Add(9, 10, bytes.Repeat([]byte{0xAB}, 40))
	f.Add(append([]byte(nil), sb.Payload()...))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ShardEntries(nil, data)
		if err != nil {
			return
		}
		var re, inPlace ShardBuffer
		inPlace.Grow(len(entries), len(data))
		for _, e := range entries {
			re.Add(e.Client, e.TrainSize, e.Payload)
			copy(inPlace.Reserve(e.Client, e.TrainSize, len(e.Payload)), e.Payload)
		}
		if !bytes.Equal(re.Payload(), data) {
			t.Fatalf("accepted payload does not round-trip:\n in: %x\nout: %x", data, re.Payload())
		}
		// Entries written in place into reserved slots are the same bytes.
		if !bytes.Equal(inPlace.Payload(), data) || inPlace.Len() != re.Len() {
			t.Fatalf("Reserve does not round-trip as Add does:\n in: %x\nout: %x", data, inPlace.Payload())
		}
	})
}
