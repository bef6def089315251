package data

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFakeCIFAR writes n records of the CIFAR-10 binary layout.
func writeFakeCIFAR(t *testing.T, path string, n int, seed int64) []int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blob := make([]byte, n*cifarRecord)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		l := rng.Intn(10)
		labels[i] = l
		blob[i*cifarRecord] = byte(l)
		for j := 1; j < cifarRecord; j++ {
			blob[i*cifarRecord+j] = byte(rng.Intn(256))
		}
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return labels
}

func TestLoadCIFAR10File(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data_batch_1.bin")
	labels := writeFakeCIFAR(t, path, 7, 1)
	ds, err := LoadCIFAR10File(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 7 || ds.Classes != 10 {
		t.Fatalf("loaded %d examples, classes %d", ds.Len(), ds.Classes)
	}
	sh := ds.X.Shape()
	if sh[1] != 3 || sh[2] != 32 || sh[3] != 32 {
		t.Fatalf("shape %v", sh)
	}
	for i, l := range labels {
		if ds.Y[i] != l {
			t.Fatalf("label %d = %d, want %d", i, ds.Y[i], l)
		}
	}
	// Pixels normalized to [-1, 1].
	for _, v := range ds.X.Data {
		if v < -1 || v > 1 {
			t.Fatalf("pixel %v outside [-1,1]", v)
		}
	}
}

func TestLoadCIFAR10DirConcatenates(t *testing.T) {
	dir := t.TempDir()
	writeFakeCIFAR(t, filepath.Join(dir, "data_batch_1.bin"), 4, 2)
	writeFakeCIFAR(t, filepath.Join(dir, "data_batch_2.bin"), 6, 3)
	writeFakeCIFAR(t, filepath.Join(dir, "test_batch.bin"), 3, 4)
	train, err := LoadCIFAR10Dir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 10 {
		t.Fatalf("train size %d, want 10", train.Len())
	}
	test, err := LoadCIFAR10Dir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if test.Len() != 3 {
		t.Fatalf("test size %d, want 3", test.Len())
	}
}

func TestLoadCIFAR10Rejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "data_batch_1.bin")
	if err := os.WriteFile(bad, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCIFAR10File(bad); err == nil {
		t.Fatal("expected error for truncated file")
	}
	// Bad label.
	blob := make([]byte, cifarRecord)
	blob[0] = 99
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCIFAR10File(bad); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
	if _, err := LoadCIFAR10Dir(t.TempDir(), false); err == nil {
		t.Fatal("expected error for empty directory")
	}
}

const leafSample = `{
	"users": ["writer_a", "writer_b"],
	"user_data": {
		"writer_a": {"x": [[%s]], "y": [3]},
		"writer_b": {"x": [[%s], [%s]], "y": [7, 61]}
	}
}`

func leafPixels() string {
	vals := make([]string, 784)
	for i := range vals {
		vals[i] = "0.5"
	}
	return strings.Join(vals, ",")
}

func TestLoadedCIFARWorksWithPartitioner(t *testing.T) {
	dir := t.TempDir()
	writeFakeCIFAR(t, filepath.Join(dir, "data_batch_1.bin"), 200, 5)
	ds, err := LoadCIFAR10Dir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	parts := DirichletPartition(ds.Y, ds.Classes, 4, 0.5, 5, rand.New(rand.NewSource(6)))
	seen := 0
	for _, p := range parts {
		seen += len(p)
	}
	if seen != ds.Len() {
		t.Fatalf("partition covers %d of %d", seen, ds.Len())
	}
}
