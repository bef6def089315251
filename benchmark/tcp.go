package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/flnet"
	"spatl/internal/models"
)

// Constants of tcp_wire.
const (
	tcpClients = 2
	// flnet.Server runs a fixed number of rounds, so a time-bounded run
	// is a sequence of episodes: each is one federation — listen, two
	// hellos, tcpEpisodeRounds rounds, final frame, close. Every
	// episode is also a sample of set-up and of shutdown.
	tcpEpisodeRounds = 500
)

// tcpSpec is the full-width CIFAR-10 resnet20: 1.1 MB frames each way.
var tcpSpec = models.Spec{Arch: "resnet20", Classes: 10, InC: 3, H: 32, W: 32, Width: 1}

func tcpTrainSize(client int) int { return 100 + client }

// tcpCounters are the countable outcomes of an episode; a run adds
// those of its episodes up.
type tcpCounters struct {
	roundsS                float64 // first Broadcast → last FinishRound
	mallocs                uint64  // from the first Broadcast to the end
	uploads, dropped       int64
	drops, errs, late      int64 // flnet.Server's counters
	upBytes, downBytes     int64 // payload bytes, the final frame included
	stagedPeak, stagedOver int64
	clientErrs             int64
}

func (c *tcpCounters) add(o tcpCounters) {
	c.roundsS += o.roundsS
	c.mallocs += o.mallocs
	c.uploads += o.uploads
	c.dropped += o.dropped
	c.drops += o.drops
	c.errs += o.errs
	c.late += o.late
	c.upBytes += o.upBytes
	c.downBytes += o.downBytes
	c.stagedPeak = max(c.stagedPeak, o.stagedPeak)
	c.stagedOver += o.stagedOver
	c.clientErrs += o.clientErrs
}

// tcpEpisode is what one federation over loopback TCP measured. It
// holds numbers only: the model, aggregator and server of a finished
// episode are garbage, so peak_rss_mb does not grow with the number of
// episodes a run gets through.
type tcpEpisode struct {
	tcpCounters
	roundMS, tracedMS, gapsMS []float64
	setupS                    float64 // episode start → first Broadcast
	helloMS                   float64 // listening → first Broadcast: connects, hellos, accept
	shutdownMS                float64 // last FinishRound → Run and every RunClient returned
	finalHash                 string
	bcast                     []byte // episode 0: a copy of a broadcast, for the probes
}

func runTCPEpisode(seed int64, episode int, tr *tracer, alternate bool) (*tcpEpisode, error) {
	t0 := time.Now()
	global := models.Build(tcpSpec, seed)
	nState := global.StateLen(models.ScopeAll)
	inner := algo.NewFedAvgAggregator(global, algo.Config{NumClients: tcpClients, Seed: seed})
	agg := newTimedAgg(inner, tr, alternate)
	agg.roundBase = episode * tcpEpisodeRounds
	srv, err := flnet.NewServer(flnet.ServerConfig{Addr: "127.0.0.1:0", Clients: tcpClients, Rounds: tcpEpisodeRounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	listening := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, tcpClients)
	for i := 0; i < tcpClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &timedTrainer{Trainer: &replayTrainer{client: i, nState: nState}, tr: tr, client: i, roundBase: agg.roundBase}
			errs[i] = flnet.RunClient(srv.Addr(), uint32(i), tcpTrainSize(i), t)
		}(i)
	}
	runErr := srv.Run(agg)
	wg.Wait()
	done := time.Now()
	if runErr != nil {
		return nil, fmt.Errorf("tcp_wire: server: %w", runErr)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ep := &tcpEpisode{
		tcpCounters: tcpCounters{
			roundsS: agg.lastFinish.Sub(agg.firstBcast).Seconds(),
			mallocs: ms.Mallocs - agg.mallocsAtFirst,
			uploads: agg.collects, dropped: inner.Dropped(),
			drops: srv.Drops(), errs: srv.Errors(), late: srv.LateUploads(),
			upBytes: srv.UpPayloadBytes, downBytes: srv.DownPayloadBytes,
			stagedPeak: inner.StagingPeak(), stagedOver: inner.StagingOverflow(),
		},
		roundMS: agg.roundMS(false), tracedMS: agg.roundMS(true), gapsMS: agg.gapsMS,
		setupS:     agg.firstBcast.Sub(t0).Seconds(),
		helloMS:    float64(agg.firstBcast.Sub(listening).Nanoseconds()) / 1e6,
		shutdownMS: float64(done.Sub(agg.lastFinish).Nanoseconds()) / 1e6,
		finalHash:  hashF32(global.State(models.ScopeAll)),
	}
	if episode == 0 {
		ep.bcast = append([]byte(nil), inner.Broadcast(tcpEpisodeRounds)...)
	}
	for _, e := range errs {
		if e != nil {
			ep.clientErrs++
		}
	}
	return ep, nil
}

// directReplay drives the same replay federation straight through the
// aggregator, uploads in ascending client order, no sockets: the
// reference tcp_wire's final state must equal, and the base of
// flnet.wire_overhead_x.
func directReplay(seed int64, rounds int) (finalHash string, roundMS []float64) {
	global := models.Build(tcpSpec, seed)
	nState := global.StateLen(models.ScopeAll)
	agg := algo.NewFedAvgAggregator(global, algo.Config{NumClients: tcpClients, Seed: seed})
	ids := make([]uint32, tcpClients)
	trainers := make([]*replayTrainer, tcpClients)
	for i := range ids {
		ids[i] = uint32(i)
		trainers[i] = &replayTrainer{client: i, nState: nState}
	}
	for r := 0; r < rounds; r++ {
		t := time.Now()
		bcast := agg.Broadcast(r)
		agg.BeginRound(r, ids)
		for i, tr := range trainers {
			agg.Collect(r, ids[i], tcpTrainSize(i), tr.LocalUpdate(r, bcast))
		}
		agg.FinishRound(r)
		roundMS = append(roundMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return hashF32(global.State(models.ScopeAll)), roundMS
}

func runTCP(rc runConfig) (*report, error) {
	r := rc.newReport()
	r.CheckRound = tcpEpisodeRounds
	var tr *tracer
	if rc.traced {
		tr = newTracer()
	}
	budget := rc.measureBudget()
	var eps []*tcpEpisode
	start := time.Now()
	for len(eps) < 1 || time.Since(start) < budget {
		ep, err := runTCPEpisode(rc.seed, len(eps), tr, rc.traced)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	rss := peakRSSMB()
	if tr != nil {
		tr.on.Store(false)
	}

	var roundMS, tracedMS, gapsMS, setups, hellos, shutdowns []float64
	var total tcpCounters
	hashes := map[string]bool{}
	for _, ep := range eps {
		roundMS = append(roundMS, ep.roundMS...)
		tracedMS = append(tracedMS, ep.tracedMS...)
		gapsMS = append(gapsMS, ep.gapsMS...)
		setups = append(setups, ep.setupS)
		hellos = append(hellos, ep.helloMS)
		shutdowns = append(shutdowns, ep.shutdownMS)
		total.add(ep.tcpCounters)
		hashes[ep.finalHash] = true
	}
	rounds := len(eps) * tcpEpisodeRounds
	r.Rounds = rounds
	r.Attempted = int64(rounds) * tcpClients
	r.Failed = max(r.Attempted-total.uploads+total.dropped, total.drops+total.clientErrs)
	// The final frame carries the model once more to every client.
	finalBytes := int64(len(eps)) * tcpClients * int64(denseLen(tcpSpec))

	refHash, directMS := directReplay(rc.seed, tcpEpisodeRounds)

	if !rc.traced {
		r.Samples = len(roundMS)
		r.set("setup_s", median(setups))
		r.set("round_ms_p50", median(roundMS))
		r.set("uploads_per_s", float64(total.uploads-total.dropped)/total.roundsS)
		r.set("up_mb_per_round", comm.MB(total.upBytes)/float64(rounds))
		r.set("down_mb_per_round", comm.MB(total.downBytes-finalBytes)/float64(rounds))
		r.set("peak_rss_mb", rss)
		r.set("allocs_per_upload", float64(total.mallocs)/float64(total.uploads))
		tv, tp := tail(roundMS)
		r.Notes = append(r.Notes,
			fmt.Sprintf("round_ms p%.2f = %.4f ms over %d rounds", tp, tv, len(roundMS)),
			fmt.Sprintf("setup_s is the median of %d set-ups, one per episode of %d rounds", len(setups), tcpEpisodeRounds))
	} else {
		r.set("algo.dropped", float64(total.dropped))
		r.set("runtime.allocs_per_round", float64(total.mallocs)/float64(rounds))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtimeMetrics(r, &ms)
		an := analyzeSpans(r, tr)
		r.Samples = len(tracedMS)
		r.set("trace.overhead_frac", median(tracedMS)/median(roundMS)-1)
		r.set("algo.staged_peak", float64(total.stagedPeak))
		r.set("algo.staged_overflow", float64(total.stagedOver))

		// Gaps across the socket, from spans of one process on one clock.
		var down, up []float64
		for _, rs := range an.rounds {
			var bcastEnd int64
			luEnd, collectStart, luStart := map[int]int64{}, map[int]int64{}, map[int]int64{}
			for _, c := range rs.children {
				switch c.Name {
				case spanBroadcast:
					bcastEnd = c.End
				case spanLocalUpdate:
					luStart[c.Client], luEnd[c.Client] = c.Start, c.End
				case spanCollect:
					collectStart[c.Client] = c.Start
				}
			}
			for client, s := range luStart {
				down = append(down, float64(s-bcastEnd)/1e6)
				if cs, ok := collectStart[client]; ok {
					up = append(up, float64(cs-luEnd[client])/1e6)
				}
			}
		}
		r.set("flnet.down_ms_p50", median(down))
		r.set("flnet.up_ms_p50", median(up))
		ut, up99 := tail(up)
		r.set("flnet.up_ms_tail", ut)
		r.Notes = append(r.Notes, fmt.Sprintf("flnet.up_ms_tail is p%.2f of %d uploads", up99, len(up)))
		r.set("flnet.round_gap_ms", median(gapsMS))
		r.set("flnet.hello_ms", median(hellos))
		r.set("flnet.shutdown_ms", median(shutdowns))
		r.set("flnet.wire_overhead_x", median(roundMS)/median(directMS))
		r.set("flnet.drops", float64(total.drops))
		r.set("flnet.errors", float64(total.errs))
		r.set("flnet.late_uploads", float64(total.late))

		probes := rc.probeBudget()
		bcast := eps[0].bcast
		if err := probeFrames(r, bcast, probes/3); err != nil {
			return nil, err
		}
		probeDenseCodec(r, bcast, probes/3)
		probeModels(r, tcpSpec, probes/3)
		spanBudget(r, an, "flnet (socket, framing, scheduling)")
		if err := tr.writeJSONL(rc.traceFile, r.Workload, rc.child); err != nil {
			return nil, err
		}
	}

	// Output checks.
	r.Counts = map[string]string{
		"model_hash": eps[0].finalHash,
		"up_bytes":   fmt.Sprint(eps[0].upBytes),
		"down_bytes": fmt.Sprint(eps[0].downBytes),
	}
	r.check("tcp_equals_direct", eps[0].finalHash == refHash, "after %d rounds: over TCP %s, ascending order straight through the aggregator %s", tcpEpisodeRounds, eps[0].finalHash, refHash)
	r.check("episodes_repeat", len(hashes) == 1, "%d distinct final states over %d episodes of one config", len(hashes), len(eps))
	r.check("no_failed_uploads", r.Failed == 0 && total.errs == 0, "%d failed of %d; server drops %d errors %d, client errors %d", r.Failed, r.Attempted, total.drops, total.errs, total.clientErrs)
	return r, nil
}

// probeFrames is flnet.frame_gbps: WriteFrame → ReadFrame over a
// loopback connection at the workload's frame size.
func probeFrames(r *report, payload []byte, budget time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	// One message per frame read; closed when the reader ends.
	read := make(chan error, 1)
	go func() {
		defer close(read)
		conn, err := ln.Accept()
		if err != nil {
			read <- err
			return
		}
		defer conn.Close()
		for {
			f, err := flnet.ReadFrame(conn)
			if err != nil {
				return // the writer closed: the probe is over
			}
			f.Release()
			read <- nil
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // fails the Accept, which ends the reader
		for range read {
		}
		return err
	}
	var probeErr error
	secs := timeLoop(budget, func() {
		if probeErr != nil {
			return
		}
		if probeErr = flnet.WriteFrame(conn, flnet.Frame{Type: flnet.MsgUpdate, Payload: payload}); probeErr == nil {
			if err, ok := <-read; !ok {
				probeErr = io.ErrUnexpectedEOF
			} else {
				probeErr = err
			}
		}
	})
	conn.Close()
	for range read { // wait for the reader to end
	}
	if probeErr != nil {
		return probeErr
	}
	r.set("flnet.frame_gbps", float64(len(payload))/median(secs)/1e9)
	return nil
}
