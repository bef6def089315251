package models

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// checkpointMagic identifies SPATL model checkpoints; the trailing byte
// is the format version.
var checkpointMagic = []byte("SPATLCKPT\x01")

// Save serializes the model — spec and full state (weights + BatchNorm
// running statistics) — into a self-describing binary checkpoint.
func (m *SplitModel) Save() []byte {
	var buf bytes.Buffer
	buf.Write(checkpointMagic)
	writeString(&buf, m.Spec.Arch)
	writeInts(&buf, m.Spec.Classes, m.Spec.InC, m.Spec.H, m.Spec.W)
	binary.Write(&buf, binary.LittleEndian, m.Spec.Width)
	state := m.State(ScopeAll)
	binary.Write(&buf, binary.LittleEndian, uint32(len(state)))
	for _, v := range state {
		binary.Write(&buf, binary.LittleEndian, math.Float32bits(v))
	}
	return buf.Bytes()
}

// Load reconstructs a model from a checkpoint produced by Save.
func Load(blob []byte) (*SplitModel, error) {
	r := bytes.NewReader(blob)
	magic := make([]byte, len(checkpointMagic))
	if _, err := r.Read(magic); err != nil || !bytes.Equal(magic, checkpointMagic) {
		return nil, fmt.Errorf("models: not a SPATL checkpoint")
	}
	var spec Spec
	var err error
	if spec.Arch, err = readString(r); err != nil {
		return nil, fmt.Errorf("models: corrupt checkpoint: %w", err)
	}
	ints := make([]int32, 4)
	if err := binary.Read(r, binary.LittleEndian, ints); err != nil {
		return nil, fmt.Errorf("models: corrupt checkpoint: %w", err)
	}
	spec.Classes, spec.InC, spec.H, spec.W = int(ints[0]), int(ints[1]), int(ints[2]), int(ints[3])
	if err := binary.Read(r, binary.LittleEndian, &spec.Width); err != nil {
		return nil, fmt.Errorf("models: corrupt checkpoint: %w", err)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("models: corrupt checkpoint: %w", err)
	}
	state := make([]float32, n)
	for i := range state {
		var bits uint32
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("models: checkpoint truncated at weight %d: %w", i, err)
		}
		state[i] = math.Float32frombits(bits)
	}
	m := Build(spec, 0)
	if m.StateLen(ScopeAll) != len(state) {
		return nil, fmt.Errorf("models: checkpoint state length %d does not match %s (%d)",
			len(state), spec, m.StateLen(ScopeAll))
	}
	m.SetState(ScopeAll, state)
	return m, nil
}

// SaveFile writes a checkpoint to disk.
func (m *SplitModel) SaveFile(path string) error {
	return os.WriteFile(path, m.Save(), 0o644)
}

func writeInts(buf *bytes.Buffer, vals ...int) {
	for _, v := range vals {
		binary.Write(buf, binary.LittleEndian, int32(v))
	}
}

func writeString(buf *bytes.Buffer, s string) {
	binary.Write(buf, binary.LittleEndian, uint32(len(s)))
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("string length %d implausible", n)
	}
	b := make([]byte, n)
	if _, err := r.Read(b); err != nil {
		return "", err
	}
	return string(b), nil
}
