package data

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"spatl/internal/tensor"
)

// This file loads CIFAR-10 in its standard binary layout
// (data_batch_*.bin / test_batch.bin: 1 coarse label byte + 3072 pixel
// bytes per record, CHW order, 10000 records per file), for environments
// that have it on disk. The experiment harness defaults to the synthetic
// stand-ins (this repository must work fully offline).

// cifarRecord is 1 label byte + 3×32×32 pixels.
const cifarRecord = 1 + 3*32*32

// LoadCIFAR10File parses one CIFAR-10 binary batch file.
func LoadCIFAR10File(path string) (*Dataset, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCIFAR10(blob, path)
}

func parseCIFAR10(blob []byte, name string) (*Dataset, error) {
	if len(blob) == 0 || len(blob)%cifarRecord != 0 {
		return nil, fmt.Errorf("data: %s: size %d is not a multiple of the %d-byte CIFAR-10 record", name, len(blob), cifarRecord)
	}
	n := len(blob) / cifarRecord
	ds := &Dataset{X: tensor.New(n, 3, 32, 32), Y: make([]int, n), Classes: 10}
	for i := 0; i < n; i++ {
		rec := blob[i*cifarRecord : (i+1)*cifarRecord]
		label := int(rec[0])
		if label > 9 {
			return nil, fmt.Errorf("data: %s: record %d has label %d > 9", name, i, label)
		}
		ds.Y[i] = label
		pix := rec[1:]
		base := i * 3 * 32 * 32
		for j, p := range pix {
			// Normalize to roughly zero-mean unit-range, as the synthetic
			// generator produces.
			ds.X.Data[base+j] = float32(p)/127.5 - 1
		}
	}
	return ds, nil
}

// LoadCIFAR10Dir loads and concatenates every data_batch_*.bin in dir
// (the canonical cifar-10-batches-bin layout). Pass test=true to load
// test_batch.bin instead.
func LoadCIFAR10Dir(dir string, test bool) (*Dataset, error) {
	pattern := filepath.Join(dir, "data_batch_*.bin")
	if test {
		pattern = filepath.Join(dir, "test_batch.bin")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("data: no CIFAR-10 batch files match %s", pattern)
	}
	sort.Strings(files)
	var all *Dataset
	for _, f := range files {
		ds, err := LoadCIFAR10File(f)
		if err != nil {
			return nil, err
		}
		if all == nil {
			all = ds
			continue
		}
		all = concat(all, ds)
	}
	return all, nil
}

// concat merges two datasets with identical shapes.
func concat(a, b *Dataset) *Dataset {
	c, h, w := a.X.Dim(1), a.X.Dim(2), a.X.Dim(3)
	out := &Dataset{X: tensor.New(a.Len()+b.Len(), c, h, w), Y: make([]int, 0, a.Len()+b.Len()), Classes: a.Classes}
	copy(out.X.Data, a.X.Data)
	copy(out.X.Data[a.X.Len():], b.X.Data)
	out.Y = append(out.Y, a.Y...)
	out.Y = append(out.Y, b.Y...)
	return out
}
