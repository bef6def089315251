// Package netsim converts measured communication volume into simulated
// wall-clock time over heterogeneous edge links. The paper argues from
// bytes; deployments care about seconds — synchronous federated rounds
// wait for the slowest selected client (the straggler), so per-round
// time is the max over participants of download + compute + upload.
//
// Link populations are sampled log-normally around profile medians,
// reflecting the long-tailed uplink distributions of real mobile fleets.
package netsim

import (
	"math"
	"math/rand"
)

// Link is one client's connectivity.
type Link struct {
	UpMbps    float64
	DownMbps  float64
	LatencyMs float64
}

// UploadSec returns the time to push n bytes over the uplink, including
// one latency round trip.
func (l Link) UploadSec(n int64) float64 {
	return float64(n)*8/(l.UpMbps*1e6) + l.LatencyMs/1000
}

// DownloadSec returns the time to pull n bytes over the downlink,
// including one latency round trip.
func (l Link) DownloadSec(n int64) float64 {
	return float64(n)*8/(l.DownMbps*1e6) + l.LatencyMs/1000
}

// Profile parameterizes a link population: medians plus a log-normal
// spread (sigma of ln-rate; 0 = homogeneous fleet).
type Profile struct {
	MedianUpMbps   float64
	MedianDownMbps float64
	Spread         float64
	LatencyMs      float64
}

// Mobile approximates a 4G edge fleet: asymmetric, long-tailed.
var Mobile = Profile{MedianUpMbps: 8, MedianDownMbps: 40, Spread: 0.6, LatencyMs: 50}

// Broadband approximates fixed-line clients.
var Broadband = Profile{MedianUpMbps: 40, MedianDownMbps: 200, Spread: 0.4, LatencyMs: 15}

// ProfileByName resolves the named link populations ("mobile",
// "broadband"); ok is false for unknown names.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "mobile":
		return Mobile, true
	case "broadband":
		return Broadband, true
	}
	return Profile{}, false
}

// ComputeProfile parameterizes per-client local-training time:
// log-normal around a median, the same long-tailed shape the link
// populations use — the compute-heterogeneity axis (a phone SoC vs a
// desktop GPU differ by orders of magnitude on the same local epoch).
type ComputeProfile struct {
	MedianSec float64
	Spread    float64 // sigma of ln-time; 0 = homogeneous fleet
}

// SampleCompute draws n per-client local-update durations from the
// profile.
func SampleCompute(n int, p ComputeProfile, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = p.MedianSec * math.Exp(rng.NormFloat64()*p.Spread)
	}
	return out
}

// SampleLinks draws n client links from the profile.
func SampleLinks(n int, p Profile, seed int64) []Link {
	rng := rand.New(rand.NewSource(seed))
	links := make([]Link, n)
	for i := range links {
		links[i] = Link{
			UpMbps:    p.MedianUpMbps * math.Exp(rng.NormFloat64()*p.Spread),
			DownMbps:  p.MedianDownMbps * math.Exp(rng.NormFloat64()*p.Spread),
			LatencyMs: p.LatencyMs * (0.5 + rng.Float64()),
		}
	}
	return links
}

// Churn models infrastructure failure across rounds: each round, a
// unit (an edge aggregator, a relay, a client) vanishes independently
// with probability P. Decisions are deterministic in (Seed, round,
// unit) so churn scenarios replay identically — the same property the
// rest of the stack's failure injection has (fl.Config.DropRate).
type Churn struct {
	P    float64
	Seed int64
}

// Fails reports whether the unit vanishes in the given round.
func (c Churn) Fails(round, unit int) bool {
	if c.P <= 0 {
		return false
	}
	if c.P >= 1 {
		return true
	}
	rng := rand.New(rand.NewSource(c.Seed ^ int64(round)*1_000_003 ^ int64(unit)*8_191))
	return rng.Float64() < c.P
}

// RoundTime returns the synchronous-round wall time for the selected
// clients: every participant downloads downBytes, computes for
// computeSec, uploads upBytes; the server waits for the slowest.
func RoundTime(links []Link, selected []int, downBytes, upBytes int64, computeSec float64) float64 {
	var worst float64
	for _, ci := range selected {
		l := links[ci]
		t := l.DownloadSec(downBytes) + computeSec + l.UploadSec(upBytes)
		if t > worst {
			worst = t
		}
	}
	return worst
}

// RoundTimeVar is RoundTime with per-client upload volume and compute
// time: participant i (= selected[i]) downloads downBytes, computes for
// computeSec[selected[i]] and uploads upBytes[i]; the server waits for
// the slowest. upBytes entries may be 0 for participants whose upload
// was lost (they still cost download + compute straggler time).
// computeSec may be nil (no compute term).
func RoundTimeVar(links []Link, selected []int, downBytes int64, upBytes []int64, computeSec []float64) float64 {
	var worst float64
	for i, ci := range selected {
		l := links[ci]
		t := l.DownloadSec(downBytes)
		if computeSec != nil {
			t += computeSec[ci]
		}
		if i < len(upBytes) && upBytes[i] > 0 {
			t += l.UploadSec(upBytes[i])
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
