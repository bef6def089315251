package flnet

import (
	"time"

	"spatl/internal/telemetry"
)

// Buffered/async rounds (FedBuff-style). The synchronous loop's cost at
// scale is the tail: every round waits for the slowest sampled client.
// With ServerConfig.Quorum set, the server aggregates as soon as K of
// the round's sampled uploads have arrived and moves on; a straggler's
// work is not discarded — its upload folds into whatever round is in
// progress when it lands (a "late upload", counted in
// "flnet.late_uploads" and journaled as late_upload). Arrival order is
// scheduling-dependent, so async rounds trade the sync loop's bitwise
// journal reproducibility for tail-latency immunity; the journal still
// proves the semantics (quorum_reached, late_upload events).

// runAsync is the buffered round loop: the persistent readers rd feed a
// single arrivals channel; each round closes at quorum or at the
// straggler deadline, and stale uploads fold into the round in progress.
// Readers outlive rounds — a straggler's upload must be readable after
// its round closed — and outlive this loop: shutdown inherits them.
func (s *Server) runAsync(agg Aggregator, rd *readers) error {
	tel := s.cfg.Tel
	rng := newRng(s.cfg.Seed)
	for round := 0; round < s.cfg.Rounds; round++ {
		payload, selected := s.openRound(agg, rng, round)
		roundStart := time.Now()

		awaited := make(map[int]bool, len(selected)) // client idx -> still owes this round's upload
		for pos, sent := range s.broadcast(agg, round, selected, payload) {
			if sent {
				awaited[selected[pos]] = true
			} else {
				tel.Emit(telemetry.Drop(round, int(s.clients[selected[pos]].id)))
			}
		}

		want := s.cfg.Quorum
		if want > len(awaited) {
			want = len(awaited)
		}
		var timer *time.Timer
		var deadline <-chan time.Time
		if s.cfg.StragglerTimeout > 0 {
			timer = time.NewTimer(s.cfg.StragglerTimeout)
			deadline = timer.C
		}
		onTime, folded := 0, 0
		// fail kills a misbehaving or vanished connection; an upload it
		// still owed this round is lost, and the quorum shrinks to what
		// can still arrive.
		fail := func(ci int) {
			c := s.clients[ci]
			c.errs++
			s.errs.Inc()
			c.markDead()
			if awaited[ci] {
				delete(awaited, ci)
				s.lose(agg, round, c, false)
				tel.Emit(telemetry.Drop(round, int(c.id)))
				want = min(want, len(awaited)+onTime)
			}
		}
	recv:
		for onTime < want {
			var a arrival
			select {
			case a = <-rd.ch:
			case <-deadline:
				break recv
			}
			c := s.clients[a.ci]
			switch {
			case a.err != nil:
				rd.n-- // that reader has exited
				if c.alive {
					fail(a.ci)
				} // else the terminal error of a connection we closed
			case a.frame.Type != MsgUpdate || int(a.frame.Round) > round:
				a.frame.Release()
				fail(a.ci)
			case int(a.frame.Round) == round && awaited[a.ci]:
				delete(awaited, a.ci)
				s.UpBytes += int64(frameHeaderLen + len(a.frame.Payload))
				s.UpPayloadBytes += int64(len(a.frame.Payload))
				tel.Emit(telemetry.ClientUpload(round, int(c.id), int64(len(a.frame.Payload)), time.Since(roundStart).Nanoseconds()))
				agg.Collect(round, c.id, c.trainSize, a.frame.Payload)
				a.frame.Release()
				onTime++
				folded++
			case int(a.frame.Round) < round:
				// A straggler's upload from an earlier round: fold it
				// into the round in progress instead of discarding the
				// client's work. CollectLate bypasses the streaming
				// cursor — the straggler may ALSO be selected this round
				// and still owe a fresh upload for its own slot.
				s.late.Inc()
				s.UpBytes += int64(frameHeaderLen + len(a.frame.Payload))
				s.UpPayloadBytes += int64(len(a.frame.Payload))
				tel.Emit(telemetry.LateUpload(round, int(c.id), int64(len(a.frame.Payload))))
				agg.CollectLate(round, c.id, c.trainSize, a.frame.Payload)
				a.frame.Release()
				folded++
			default:
				// Same-round duplicate or an upload from a client that
				// was never sent this round's broadcast: protocol
				// violation, never fold it twice.
				a.frame.Release()
				fail(a.ci)
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if want > 0 && onTime >= want {
			tel.Emit(telemetry.Quorum(round, onTime))
		}
		if err := closeRound(agg, tel, round, folded, s.UpPayloadBytes, s.DownPayloadBytes, s.links); err != nil {
			return err
		}
	}
	return nil
}
