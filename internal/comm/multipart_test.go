package comm

import (
	"bytes"
	"testing"
)

func TestJoinSplitPayloads(t *testing.T) {
	parts := [][]byte{[]byte("abc"), {}, []byte("xy")}
	joined := JoinPayloads(parts...)
	got, err := SplitPayloads(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parts = %d", len(got))
	}
	for i := range parts {
		if !bytes.Equal(got[i], parts[i]) {
			t.Fatalf("part %d mismatch", i)
		}
	}
}

func TestJoinPayloadsIntoReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	out := JoinPayloadsInto(buf, []byte("hello"), []byte("world"))
	if &out[0] != &buf[:1][0] {
		t.Fatal("sufficient capacity must be reused")
	}
	parts, err := SplitPayloads(out)
	if err != nil || len(parts) != 2 {
		t.Fatalf("split: %v, %d parts", err, len(parts))
	}
}

// TestSplitPayloadsMalformedSweep drives the splitter through the
// hostile-input cases a network peer could produce.
func TestSplitPayloadsMalformedSweep(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		ok   bool
		n    int // expected part count when ok
	}{
		{"empty buffer", nil, true, 0},
		{"single empty part", []byte{0, 0, 0, 0}, true, 1},
		{"two empty parts", []byte{0, 0, 0, 0, 0, 0, 0, 0}, true, 2},
		{"truncated header 1B", []byte{5}, false, 0},
		{"truncated header 3B", []byte{1, 2, 3}, false, 0},
		{"oversized part length", []byte{0xFF, 0, 0, 0, 1}, false, 0},
		{"huge length prefix", []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}, false, 0},
		{"length one past end", []byte{3, 0, 0, 0, 1, 2}, false, 0},
		{"valid then truncated header", []byte{1, 0, 0, 0, 9, 7}, false, 0},
		{"valid then oversized", []byte{1, 0, 0, 0, 9, 4, 0, 0, 0, 1}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The fixed-count splitter succeeds exactly when the blob is
			// well formed and holds that many parts — and then agrees.
			for k := 0; k <= 3; k++ {
				var fixed [3][]byte
				err := SplitPayloadsInto(fixed[:k], tc.buf)
				if (err == nil) != (tc.ok && tc.n == k) {
					t.Fatalf("SplitPayloadsInto(%d parts): err = %v", k, err)
				}
				if err == nil {
					want, _ := SplitPayloads(tc.buf)
					for i := range want {
						if !bytes.Equal(fixed[i], want[i]) {
							t.Fatalf("SplitPayloadsInto part %d = %x, want %x", i, fixed[i], want[i])
						}
					}
				}
			}
			parts, err := SplitPayloads(tc.buf)
			if tc.ok {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(parts) != tc.n {
					t.Fatalf("parts = %d, want %d", len(parts), tc.n)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error, got %d parts", len(parts))
			}
		})
	}
}

func TestSplitPayloadsZeroLengthPartsRoundTrip(t *testing.T) {
	joined := JoinPayloads([]byte{}, []byte("mid"), []byte{})
	parts, err := SplitPayloads(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || len(parts[0]) != 0 || len(parts[2]) != 0 {
		t.Fatalf("zero-length parts must survive the round trip: %v", parts)
	}
	if string(parts[1]) != "mid" {
		t.Fatalf("middle part corrupted: %q", parts[1])
	}
}
