package flnet

import (
	"bytes"
	"testing"

	"spatl/internal/algo"
)

// FuzzReadFrame ensures the frame parser never panics or over-allocates
// on hostile input, and that valid frames round-trip.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, Frame{Type: MsgUpdate, Client: 3, Round: 9, Payload: []byte("abc")})
	f.Add(seed.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1})
	f.Add([]byte{})
	// A pooled shard frame — the tree root's hot input.
	var sb algo.ShardBuffer
	sb.Add(7, 120, []byte("payload-a"))
	sb.Add(9, 80, []byte("payload-b"))
	var shard bytes.Buffer
	WriteFrame(&shard, Frame{Type: MsgShardUpdate, Client: 1, Round: 2, Payload: sb.Payload()})
	f.Add(shard.Bytes())
	// A hello-typed frame one payload byte longer than a hello can be: fine
	// for ReadFrame, refused by the registrar's bound on the prefix alone.
	var fat bytes.Buffer
	WriteFrame(&fat, Frame{Type: MsgHello, Client: 1, Payload: make([]byte, helloLen+1)})
	f.Add(fat.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// The registrar's read: nothing longer than a hello passes its bound.
		if hello, err := readFrame(bytes.NewReader(data), frameBodyMin+helloLen); err == nil {
			if len(hello.Payload) > helloLen {
				t.Fatalf("the hello bound let a %d-byte payload through", len(hello.Payload))
			}
			hello.Release()
		}
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		fr2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Client != fr.Client || fr2.Round != fr.Round ||
			!bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatal("frame round trip mismatch")
		}
	})
}
