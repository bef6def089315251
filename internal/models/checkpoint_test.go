package models

import (
	"os"
	"path/filepath"
	"testing"

	"spatl/internal/nn"
	"spatl/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	for _, arch := range []string{"resnet20", "vgg11", "mlp"} {
		t.Run(arch, func(t *testing.T) {
			spec := specFor(arch)
			m := Build(spec, 7)
			x := tensor.New(3, spec.InC, spec.H, spec.W)
			x.Randn(nn.Rng(8), 1)
			m.Forward(x, true) // move BN stats

			blob := m.Save()
			m2, err := Load(blob)
			if err != nil {
				t.Fatal(err)
			}
			if m2.Spec != spec {
				t.Fatalf("spec round trip: %v vs %v", m2.Spec, spec)
			}
			o1, o2 := m.Forward(x, false), m2.Forward(x, false)
			for i := range o1.Data {
				if o1.Data[i] != o2.Data[i] {
					t.Fatal("loaded model output differs")
				}
			}
		})
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	spec := specFor("mlp")
	m := Build(spec, 9)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := m.State(ScopeAll), m2.State(ScopeAll)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("file round trip mismatch")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not a checkpoint")); err == nil {
		t.Fatal("expected error for garbage")
	}
	blob := Build(specFor("mlp"), 1).Save()
	if _, err := Load(blob[:len(blob)-4]); err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
	blob[0] ^= 0xFF
	if _, err := Load(blob); err == nil {
		t.Fatal("expected error for corrupted magic")
	}
}
