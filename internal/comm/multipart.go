package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Multi-part framing: algorithms often ship several payloads per message
// (model delta + control delta + step count). JoinPayloads concatenates
// them with uint32 length prefixes into one opaque blob; SplitPayloads
// reverses it. The framing lives here, next to the payload codecs,
// because it is part of the wire format — transports only move the
// joined bytes.

// JoinPayloads concatenates multiple byte payloads into one blob with
// uint32 length prefixes, so an algorithm can ship several comm payloads
// (e.g. model delta + control delta) per message.
func JoinPayloads(parts ...[]byte) []byte {
	return JoinPayloadsInto(nil, parts...)
}

// JoinPayloadsInto is JoinPayloads appending into dst[:0]'s backing
// array (grown when the capacity is insufficient), so aggregators and
// trainers can frame rounds into a reusable buffer.
func JoinPayloadsInto(dst []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += 4 + len(p)
	}
	out := dst[:0]
	if cap(out) < n {
		out = make([]byte, 0, n)
	}
	var lenBuf [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(p)))
		out = append(out, lenBuf[:]...)
		out = append(out, p...)
	}
	return out
}

// SplitPayloads reverses JoinPayloads. The returned parts alias buf.
func SplitPayloads(buf []byte) ([][]byte, error) {
	var out [][]byte
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("comm: truncated payload header")
		}
		n := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		if uint64(n) > uint64(len(buf)) {
			return nil, fmt.Errorf("comm: payload part length %d exceeds remaining %d", n, len(buf))
		}
		out = append(out, buf[:n])
		buf = buf[n:]
	}
	return out, nil
}

// ErrPartCount is SplitPayloadsInto's one error: the blob is truncated
// or does not hold exactly the expected number of parts. A fixed value,
// so rejecting a hostile upload allocates nothing.
var ErrPartCount = errors.New("comm: joined payload is truncated or has the wrong part count")

// SplitPayloadsInto reverses JoinPayloads for a receiver that knows how
// many parts the message has: it fills parts (which alias buf) and
// fails unless buf holds exactly len(parts) well-formed parts. Unlike
// SplitPayloads it allocates nothing, whatever the input.
func SplitPayloadsInto(parts [][]byte, buf []byte) error {
	for i := range parts {
		if len(buf) < 4 {
			return ErrPartCount
		}
		n := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		if uint64(n) > uint64(len(buf)) {
			return ErrPartCount
		}
		parts[i] = buf[:n]
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return ErrPartCount
	}
	return nil
}
