package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// median returns the middle of v (mean of the two middles for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// tail returns the highest percentile of v that still has at least ten
// samples beyond it, and that percentile (in percent). With fewer than
// twenty samples no percentile above the median qualifies and the
// maximum is returned with percentile 100, so the caller always has a
// number and can print what it is.
func tail(v []float64) (value, pct float64) {
	n := len(v)
	if n == 0 {
		return 0, 100
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n < 20 {
		return s[n-1], 100
	}
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// hashF32 fingerprints a state vector by its exact bit pattern.
func hashF32(v []float32) string {
	if len(v) == 0 {
		return "empty"
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// peakRSSMB reads the process's resident-set high-water mark, VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fingerprint identifies the machine and build a result was taken on;
// -compare refuses to compare results whose fingerprints differ.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two results are comparable: everything
// but the commit must match (comparing two commits is the point).
func (f fingerprint) sameMachine(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Commit)
}

func machineFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, else the HEAD of
// a .git directory in the working directory, else "unknown" (the
// driver's checkout is not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD holds the hash itself
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
