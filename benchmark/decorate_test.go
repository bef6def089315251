package main

import (
	"testing"

	"spatl/internal/algo"
	"spatl/internal/models"
)

// The drivers type-assert their aggregator for algo.StreamingAggregator
// and silently fall back to arrival-order folding when it is missing; a
// decorator that hid the streaming methods would change what is
// measured.
func TestTimedAggStillStreams(t *testing.T) {
	inner := algo.NewFedAvgAggregator(models.Build(ingestSpec, 1), algo.Config{NumClients: 2})
	var agg algo.Aggregator = newTimedAgg(inner, nil, false)
	if _, ok := agg.(algo.StreamingAggregator); !ok {
		t.Fatal("timedAgg does not satisfy algo.StreamingAggregator")
	}
	var tr algo.Trainer = &timedTrainer{Trainer: &replayTrainer{nState: 8}}
	if up := tr.LocalUpdate(0, inner.Broadcast(0)); len(up) == 0 {
		t.Fatal("decorated replay trainer returned no upload")
	}
}

// A decorated run — tracer off, and tracer on — ends with the same
// model hash and byte counters as the bare scenario.NewAlgorithm run of
// the same spec.
func TestDecoratedEqualsBare(t *testing.T) {
	const rounds = 2
	for _, algoName := range []string{"fedavg", "spatl"} {
		bare, err := bareConvCounts(algoName, 3, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
				tr.on.Store(true)
			}
			fed, err := setupConv(algoName, 3, 0, tr, false)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				fed.sim.Round(r, fed.env.SampleClients())
			}
			if got := stateCounts(fed.env); !sameCounts(got, bare) {
				t.Errorf("%s traced=%v: decorated %v, bare %v", algoName, traced, got, bare)
			}
			if traced && len(tr.byName(spanLocalUpdate)) != rounds*4 {
				t.Errorf("%s: %d local_update spans, want %d", algoName, len(tr.byName(spanLocalUpdate)), rounds*4)
			}
			if fed.agg.rounds() != rounds {
				t.Errorf("%s: decorator saw %d rounds, want %d", algoName, fed.agg.rounds(), rounds)
			}
		}
	}
}

// covered partitions a round exactly: the categories and the self time
// add up to the round, with overlapping spans counted once.
func TestCoveredPartitionsRound(t *testing.T) {
	rs := roundSpans{
		round: span{Name: spanRound, Start: 0, End: 100e6},
		children: []span{
			{Name: spanBroadcast, Start: 0, End: 10e6},
			{Name: spanLocalUpdate, Start: 12e6, End: 60e6, Client: 0},
			{Name: spanLocalUpdate, Start: 15e6, End: 80e6, Client: 1},
			{Name: spanCollect, Start: 70e6, End: 75e6, Client: 0}, // beside client 1's update
			{Name: spanCollect, Start: 82e6, End: 90e6, Client: 1},
			{Name: spanFinishRound, Start: 90e6, End: 99e6},
		},
	}
	by, self := rs.covered()
	want := map[string]float64{spanBroadcast: 10, spanLocalUpdate: 63, spanCollect: 13, spanFinishRound: 9}
	total := self
	for name, ms := range want {
		if by[name] != ms {
			t.Errorf("%s: %g ms, want %g", name, by[name], ms)
		}
		total += by[name]
	}
	if self != 5 || total != 100 {
		t.Errorf("self %g ms (want 5), total %g ms (want 100)", self, total)
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	got, pct := tail(v)
	if got != 989 || pct != 99 {
		t.Errorf("tail of 0..999 = %g at p%g, want 989 at p99 (ten samples beyond)", got, pct)
	}
	if got, pct := tail(v[:5]); got != 4 || pct != 100 {
		t.Errorf("tail of 5 samples = %g at p%g, want the maximum at p100", got, pct)
	}
}
