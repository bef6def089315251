package netsim

import (
	"math"
	"testing"
)

func TestLinkTransferTimes(t *testing.T) {
	l := Link{UpMbps: 8, DownMbps: 80, LatencyMs: 100}
	// 1 MB up at 8 Mbps = 1 second + 0.1 latency.
	if got := l.UploadSec(1e6); math.Abs(got-1.1) > 1e-9 {
		t.Fatalf("UploadSec = %v, want 1.1", got)
	}
	// 1 MB down at 80 Mbps = 0.1 + 0.1.
	if got := l.DownloadSec(1e6); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("DownloadSec = %v, want 0.2", got)
	}
}

func TestSampleLinksDistribution(t *testing.T) {
	links := SampleLinks(2000, Mobile, 1)
	if len(links) != 2000 {
		t.Fatalf("len = %d", len(links))
	}
	// Median of samples should be near the profile median (log-normal is
	// median-preserving).
	ups := make([]float64, len(links))
	for i, l := range links {
		if l.UpMbps <= 0 || l.DownMbps <= 0 || l.LatencyMs <= 0 {
			t.Fatal("non-positive link parameter")
		}
		ups[i] = l.UpMbps
	}
	// Crude median via counting below the profile median.
	below := 0
	for _, u := range ups {
		if u < Mobile.MedianUpMbps {
			below++
		}
	}
	frac := float64(below) / float64(len(ups))
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("fraction below median = %.3f, want ≈0.5", frac)
	}
	// Deterministic by seed.
	again := SampleLinks(2000, Mobile, 1)
	if again[7] != links[7] {
		t.Fatal("same seed must give same links")
	}
}

func TestRoundTimeIsStragglerBound(t *testing.T) {
	links := []Link{
		{UpMbps: 100, DownMbps: 100, LatencyMs: 0},
		{UpMbps: 1, DownMbps: 1, LatencyMs: 0}, // straggler
	}
	fast := RoundTime(links, []int{0}, 1e6, 1e6, 0)
	both := RoundTime(links, []int{0, 1}, 1e6, 1e6, 0)
	if both <= fast {
		t.Fatal("round time must be bound by the slowest participant")
	}
	slow := RoundTime(links, []int{1}, 1e6, 1e6, 0)
	if math.Abs(both-slow) > 1e-9 {
		t.Fatal("with the straggler selected, it dominates")
	}
	// Compute time adds to everyone.
	withCompute := RoundTime(links, []int{1}, 1e6, 1e6, 5)
	if math.Abs(withCompute-(slow+5)) > 1e-9 {
		t.Fatalf("compute time not added: %v vs %v", withCompute, slow+5)
	}
}

func TestProfileByName(t *testing.T) {
	if p, ok := ProfileByName("mobile"); !ok || p != Mobile {
		t.Fatal("mobile profile not resolved")
	}
	if p, ok := ProfileByName("broadband"); !ok || p != Broadband {
		t.Fatal("broadband profile not resolved")
	}
	if _, ok := ProfileByName("carrier-pigeon"); ok {
		t.Fatal("unknown profile resolved")
	}
}

func TestSampleComputeDeterministicAndSpread(t *testing.T) {
	a := SampleCompute(50, ComputeProfile{MedianSec: 2, Spread: 0.8}, 9)
	b := SampleCompute(50, ComputeProfile{MedianSec: 2, Spread: 0.8}, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleCompute not deterministic in seed")
		}
		if a[i] <= 0 {
			t.Fatal("non-positive compute time")
		}
	}
	homo := SampleCompute(5, ComputeProfile{MedianSec: 2}, 9)
	for _, v := range homo {
		if v != 2 {
			t.Fatalf("spread 0 must be homogeneous, got %v", v)
		}
	}
}

func TestRoundTimeVarWaitsForSlowest(t *testing.T) {
	links := []Link{
		{UpMbps: 8, DownMbps: 8, LatencyMs: 0},
		{UpMbps: 1, DownMbps: 8, LatencyMs: 0}, // slow uplink
	}
	up := []int64{1e6, 1e6}
	compute := []float64{1, 1}
	got := RoundTimeVar(links, []int{0, 1}, 1e6, up, compute)
	// Client 1 dominates: 1MB down at 8Mbps (1s) + 1s compute + 1MB up
	// at 1Mbps (8s) = 10s.
	if got < 9.9 || got > 10.1 {
		t.Fatalf("round time %v, want ~10s", got)
	}
	// A lost upload still costs download + compute.
	lost := RoundTimeVar(links, []int{1}, 1e6, []int64{0}, compute)
	if lost < 1.9 || lost > 2.1 {
		t.Fatalf("lost-upload time %v, want ~2s", lost)
	}
}
