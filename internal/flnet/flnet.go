// Package flnet runs federated learning over real TCP connections: a
// central aggregation server and one process (or goroutine) per client,
// exchanging the same wire payloads the in-process simulator meters
// (internal/comm). The algorithms themselves live in internal/algo —
// the identical Aggregator/Trainer cores the simulator (internal/fl)
// drives in-process — so a federation produces bitwise-identical models
// whichever transport carries it (see the cross-transport equivalence
// test). flnet adds what a real network demands: framing, deadlines, and
// straggler tolerance — a round aggregates whatever arrived before the
// timeout instead of aborting the federation.
//
// The protocol is deliberately small: length-prefixed frames carrying a
// message type, a round number, and an opaque payload whose encoding is
// owned by the algorithm layer (dense or sparse comm payloads).
//
// Every server side — the flat Server, the TreeServer root, an Edge
// towards its clients — runs on the one downstream engine of engine.go; a
// synchronous and a buffered (quorum) round are two values of its gather.
package flnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/telemetry"
)

// Message types.
const (
	// MsgHello registers a client: payload is 4 bytes of training-set
	// size (for data-weighted aggregation).
	MsgHello = uint8(iota + 1)
	// MsgRoundStart carries the server's broadcast for a round.
	MsgRoundStart
	// MsgUpdate carries a client's upload for a round.
	MsgUpdate
	// MsgDone carries the final model; the client disconnects after it.
	MsgDone
	// MsgEdgeHello registers an edge aggregator with a tree root: the
	// frame's Client field carries the shard ID, the payload a count
	// followed by (client ID, train size) pairs for the shard's clients.
	MsgEdgeHello
	// MsgShardUpdate carries an edge's pooled shard payload for a round
	// (algo.ShardBuffer wire format); Client is the shard ID.
	MsgShardUpdate
)

// maxFrame bounds a frame to guard against corrupt length prefixes.
const maxFrame = 1 << 30

// helloLen is the payload of a client's MsgHello: its train size.
const helloLen = 4

// frameBodyMin is the length-prefixed part of an empty frame: type, client
// and round fields. frameHeaderLen is the wire overhead per frame: that
// plus the uint32 length prefix.
const (
	frameBodyMin   = 1 + 4 + 4
	frameHeaderLen = 4 + frameBodyMin
)

// Frame is one protocol message.
type Frame struct {
	Type    uint8
	Client  uint32
	Round   uint32
	Payload []byte

	// body is the pooled backing buffer Payload slices into (nil for
	// frames not produced by ReadFrame).
	body []byte
}

// Release returns the frame's pooled backing buffer. Call it once the
// payload has been consumed; the Payload slice is invalid afterwards.
func (f *Frame) Release() {
	if f.body != nil {
		comm.PutBuf(f.body)
		f.body = nil
		f.Payload = nil
	}
}

// WriteFrame writes f to w: uint32 total length, type, client, round,
// payload. The header goes through a pooled scratch buffer, so steady
// rounds allocate nothing.
func WriteFrame(w io.Writer, f Frame) error {
	header := comm.GetBuf(frameHeaderLen)
	binary.LittleEndian.PutUint32(header[0:4], uint32(frameBodyMin+len(f.Payload)))
	header[4] = f.Type
	binary.LittleEndian.PutUint32(header[5:9], f.Client)
	binary.LittleEndian.PutUint32(header[9:13], f.Round)
	_, err := w.Write(header)
	comm.PutBuf(header)
	if err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame from r into a pooled body buffer; call
// Release on the returned frame once its payload is consumed.
func ReadFrame(r io.Reader) (Frame, error) { return readFrame(r, maxFrame) }

// readFrame is ReadFrame with the caller's bound on the length prefix,
// refused before any buffer is taken.
func readFrame(r io.Reader, maxLen uint32) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameBodyMin || n > maxLen {
		return Frame{}, fmt.Errorf("flnet: implausible frame length %d (at most %d here)", n, maxLen)
	}
	body := comm.GetBuf(int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		comm.PutBuf(body)
		return Frame{}, err
	}
	return Frame{
		Type:    body[0],
		Client:  binary.LittleEndian.Uint32(body[1:5]),
		Round:   binary.LittleEndian.Uint32(body[5:9]),
		Payload: body[frameBodyMin:],
		body:    body,
	}, nil
}

// Aggregator is the transport-agnostic server-side algorithm core; see
// internal/algo.
type Aggregator = algo.Aggregator

// Trainer is the transport-agnostic client-side algorithm core; see
// internal/algo.
type Trainer = algo.Trainer

// ServerConfig configures a federation server.
type ServerConfig struct {
	// Addr to listen on; ":0" picks a free port.
	Addr string
	// Clients is the number of registrations to wait for.
	Clients int
	// Rounds of federated training to run.
	Rounds int
	// PerRound is how many clients participate each round (0 = all).
	PerRound int
	// Seed drives client sampling.
	Seed int64

	// HelloTimeout bounds how long an accepted connection may take to
	// present its hello frame. Zero waits forever.
	HelloTimeout time.Duration
	// StragglerTimeout bounds how long the server waits for a selected
	// client's round upload. A client that misses the deadline is marked
	// dead and its contribution dropped — the round aggregates from the
	// clients that reported instead of failing the federation. It also
	// bounds the drain that ends the federation (see shutdown). Zero
	// waits forever.
	StragglerTimeout time.Duration
	// WriteTimeout bounds each broadcast write to a client. Zero waits
	// forever.
	WriteTimeout time.Duration

	// Quorum, when positive, switches the server to buffered/async
	// rounds (FedBuff-style): FinishRound fires as soon as Quorum of
	// the round's sampled uploads have been collected, without waiting
	// for the stragglers. A straggler's upload is not lost — it folds
	// into the round in progress when it eventually arrives, counted in
	// "flnet.late_uploads" and journaled as a late_upload event. Zero
	// keeps the synchronous round loop.
	Quorum int

	// Tel, when set, receives the server's lifecycle journal events and
	// exposes its drop/error counters through the registry; it is also
	// wired into the aggregator core. Nil disables telemetry.
	Tel *telemetry.Set
}

// ClientStats is the server's per-client health record.
type ClientStats struct {
	ID        uint32
	TrainSize int
	// Alive reports whether the connection was still usable when the
	// federation ended.
	Alive bool
	// Drops counts rounds where the client was selected but its
	// contribution was not aggregated (dead, timed out, or errored).
	Drops int
	// Errors counts protocol or I/O failures observed on the connection
	// (a straggler timeout alone is a drop, not an error).
	Errors int
}

// Server orchestrates rounds over TCP.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	clients []*clientConn
	down    *downstream // over clients' links, index for index

	// Stats, populated by Run. UpBytes/DownBytes count full frames
	// (headers included); the *PayloadBytes variants count algorithm
	// payloads only, matching the in-process simulator's comm.Meter.
	UpBytes          int64
	DownBytes        int64
	UpPayloadBytes   int64
	DownPayloadBytes int64

	// drops/errs aggregate the per-client counters below as telemetry
	// counters, attached in the registry as "flnet.drops" and
	// "flnet.errors" when telemetry is on; Drops/Errors read the same
	// counters.
	drops telemetry.Counter
	errs  telemetry.Counter
	// late counts straggler uploads folded into a later round than the
	// one they were computed for (async quorum mode only), exposed as
	// "flnet.late_uploads".
	late telemetry.Counter
	// postFinal counts uploads that arrived after the last round closed,
	// read and discarded while the connection drained, exposed as
	// "flnet.post_final_uploads".
	postFinal telemetry.Counter
}

// Drops reports total dropped contributions across all clients and
// rounds — the same counter the registry exposes as "flnet.drops".
func (s *Server) Drops() int64 { return s.drops.Value() }

// Errors reports total protocol/I-O failures across all clients — the
// same counter the registry exposes as "flnet.errors".
func (s *Server) Errors() int64 { return s.errs.Value() }

// LateUploads reports how many straggler uploads were folded into a
// later round (async quorum mode) — the same counter the registry
// exposes as "flnet.late_uploads".
func (s *Server) LateUploads() int64 { return s.late.Value() }

// PostFinalUploads reports how many uploads arrived after the last round
// had closed — the same counter the registry exposes as
// "flnet.post_final_uploads".
func (s *Server) PostFinalUploads() int64 { return s.postFinal.Value() }

// NewServer starts listening (so clients can connect before Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("flnet: Clients and Rounds must be positive")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, ln: ln}
	if cfg.Tel != nil && cfg.Tel.Reg != nil {
		cfg.Tel.Reg.Attach("flnet.drops", &s.drops)
		cfg.Tel.Reg.Attach("flnet.errors", &s.errs)
		cfg.Tel.Reg.Attach("flnet.late_uploads", &s.late)
		cfg.Tel.Reg.Attach("flnet.post_final_uploads", &s.postFinal)
	}
	return s, nil
}

// Addr returns the listening address (use after NewServer with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ClientStats returns the per-client health records. Call after Run.
func (s *Server) ClientStats() []ClientStats {
	out := make([]ClientStats, len(s.clients))
	for i, c := range s.clients {
		out[i] = ClientStats{
			ID: c.id, TrainSize: c.trainSize, Alive: c.alive,
			Drops: c.drops, Errors: c.errs,
		}
	}
	return out
}

// openRound is the head of every server's round: the aggregator's
// broadcast, the round's sample of the n registered clients (id maps a
// sampled index to its client ID), the selection announced to the
// aggregator, round_start journaled.
func openRound(agg Aggregator, tel *telemetry.Set, rng *rand.Rand, round, n, perRound int, id func(i int) uint32) (payload []byte, selected []int) {
	payload = agg.Broadcast(round)
	selected = samplePerm(rng, n, perRound)
	ids := make([]uint32, len(selected))
	for i, ci := range selected {
		ids[i] = id(ci)
	}
	agg.BeginRound(round, ids)
	tel.Emit(telemetry.RoundStart(round, len(selected), int64(len(payload))))
	return payload, selected
}

// closeRound is the tail of every server's round: finalize, journal
// aggregate and round_end, and fail the federation once nobody is left.
func closeRound(agg Aggregator, tel *telemetry.Set, round, collected int, up, down int64, links []*link) error {
	t0 := time.Now()
	agg.FinishRound(round)
	tel.Emit(telemetry.Aggregate(round, collected, time.Since(t0).Nanoseconds()))
	tel.Emit(telemetry.RoundEnd(round, up, down))
	if allDead(links) {
		return fmt.Errorf("flnet: all %d peers dead after round %d", len(links), round)
	}
	return nil
}

// clientConn is a server's (or an edge's) view of one registered client.
type clientConn struct {
	*link
	trainSize int
	drops     int
	errs      int
}

// registerClients waits for n client registrations on ln and starts the
// engine over them, ordered by client ID: connection order is not
// reproducible, and aggregating in ID order is what makes the
// floating-point reduction match the in-process simulator bitwise.
func registerClients(ln net.Listener, n int, hello time.Duration, maxOwed int, straggler, write time.Duration) ([]*clientConn, *downstream, error) {
	clients := make([]*clientConn, 0, n)
	err := register(ln, n, MsgHello, helloLen, hello, func(l *link, payload []byte) error {
		if len(payload) != helloLen {
			return fmt.Errorf("%d payload bytes, want the %d of a train size", len(payload), helloLen)
		}
		clients = append(clients, &clientConn{link: l, trainSize: int(binary.LittleEndian.Uint32(payload))})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].id < clients[j].id })
	links := make([]*link, n)
	for i, c := range clients {
		links[i] = c.link
	}
	return clients, serve(links, MsgUpdate, maxOwed, straggler, write), nil
}

// Run accepts registrations, executes the round loop (synchronous, or
// buffered/async when cfg.Quorum is set), broadcasts the final model
// and drains the connections (see shutdown). A malformed hello still
// fails fast — the federation has not started — but once rounds begin,
// client failures and stragglers are tolerated: their contributions are
// dropped (see ClientStats) and each round aggregates whatever arrived.
// Run errors only when every client is dead.
func (s *Server) Run(agg Aggregator) (err error) {
	defer s.ln.Close()
	// A link is delivered at most Rounds broadcasts, answered or not.
	s.clients, s.down, err = registerClients(s.ln, s.cfg.Clients, s.cfg.HelloTimeout,
		s.cfg.Rounds, s.cfg.StragglerTimeout, s.cfg.WriteTimeout)
	if err != nil {
		return err
	}
	defer s.down.close()
	s.UpBytes += int64(len(s.clients)) * (frameHeaderLen + helloLen) // the hellos
	algo.Wire(s.cfg.Tel, agg)
	err = s.runRounds(agg)
	// Also on failure: with every client dead nothing is sent.
	final := agg.Final()
	s.down.shutdown(final,
		func(i int, err error) {
			if err != nil {
				s.clients[i].errs++
				return
			}
			s.DownBytes += int64(frameHeaderLen + len(final))
			s.DownPayloadBytes += int64(len(final))
		},
		func(a arrival) {
			s.postFinal.Inc()
			s.cfg.Tel.Emit(telemetry.Drop(int(a.frame.Round), int(s.clients[a.ci].id)))
			a.frame.Release()
		})
	return err
}

// runRounds is the flat server's round loop, synchronous and buffered
// alike: cfg.Quorum only chooses the two values gather takes. Zero wants
// every awaited upload and kills whoever still owes at the deadline. K > 0
// (FedBuff-style) closes the round at the K-th on-time upload and carries
// the stragglers: an upload folds into whatever round is in progress when
// it lands (CollectLate, "flnet.late_uploads", late_upload). Which uploads
// are on time is then scheduling-dependent, so buffered rounds trade the
// synchronous round's bitwise reproducibility for tail-latency immunity.
//
// An upload folds the moment its frame arrives and the frame recycles at
// once, so round memory is the aggregator's staging bound (its cursor
// replays arrivals in selection order). The round's journal events are
// emitted at its close, in selection order — what keeps a synchronous
// journal byte-identical across runs and transports.
func (s *Server) runRounds(agg Aggregator) error {
	tel, d := s.cfg.Tel, s.down
	rng := newRng(s.cfg.Seed)
	// What the round has to say about each selection position, once
	// settled; a position still blank at the close is a carried straggler.
	events := make([]telemetry.Event, s.cfg.PerRound)
	posOf := make([]int, len(s.clients)) // client index -> 1 + its position in the round's selection
	for round := 0; round < s.cfg.Rounds; round++ {
		payload, selected := openRound(agg, tel, rng, round, len(s.clients), s.cfg.PerRound,
			func(i int) uint32 { return s.clients[i].id })
		roundStart := time.Now()
		clear(events)
		clear(posOf)
		// lose records that a selected client's contribution will not be
		// aggregated this round (failed: for an I/O or protocol failure,
		// not merely a dead or slow peer) and resolves its position in the
		// aggregator's fold order.
		lose := func(ci int, failed bool, ev telemetry.Event) {
			c := s.clients[ci]
			if failed {
				c.errs++
				s.errs.Inc()
			}
			if pos := posOf[ci] - 1; pos >= 0 && events[pos].Ev == "" {
				c.drops++
				s.drops.Inc()
				agg.MarkAbsent(round, c.id)
				events[pos] = ev
			}
		}
		for pos, ci := range selected {
			posOf[ci] = pos + 1
			c := s.clients[ci]
			f := Frame{Type: MsgRoundStart, Client: c.id, Round: uint32(round), Payload: payload}
			if !c.alive {
				lose(ci, false, telemetry.Drop(round, int(c.id)))
			} else if err := d.deliver(ci, f); err != nil {
				lose(ci, true, telemetry.Drop(round, int(c.id)))
			} else {
				s.DownBytes += int64(frameHeaderLen + len(payload))
				s.DownPayloadBytes += int64(len(payload))
			}
		}
		late := 0
		onTime, met := d.gather(uint32(round), s.cfg.Quorum, s.cfg.Quorum > 0, func(a arrival) {
			c := s.clients[a.ci]
			switch a.err {
			case nil:
			case errOverdue: // a missed deadline alone is a drop, not an error
				lose(a.ci, false, telemetry.Straggler(round, int(c.id)))
				return
			default:
				lose(a.ci, true, telemetry.Drop(round, int(c.id)))
				return
			}
			n := int64(len(a.frame.Payload))
			s.UpBytes += frameHeaderLen + n
			s.UpPayloadBytes += n
			if int(a.frame.Round) == round {
				events[posOf[a.ci]-1] = telemetry.ClientUpload(round, int(c.id), n, time.Since(roundStart).Nanoseconds())
				agg.Collect(round, c.id, c.trainSize, a.frame.Payload)
			} else {
				// A straggler's upload from an earlier round. CollectLate
				// bypasses the streaming cursor — the straggler may also
				// be selected this round and still owe its own slot.
				late++
				s.late.Inc()
				tel.Emit(telemetry.LateUpload(round, int(c.id), n))
				agg.CollectLate(round, c.id, c.trainSize, a.frame.Payload)
			}
			a.frame.Release()
		})
		for _, ev := range events[:len(selected)] {
			if ev.Ev != "" {
				tel.Emit(ev)
			}
		}
		if s.cfg.Quorum > 0 && met {
			tel.Emit(telemetry.Quorum(round, onTime))
		}
		if err := closeRound(agg, tel, round, onTime+late, s.UpPayloadBytes, s.DownPayloadBytes, d.links); err != nil {
			return err
		}
	}
	return nil
}

// ClientOptions tunes RunClientOpts.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (default 30s).
	DialTimeout time.Duration
	// HelloTimeout bounds writing the registration frame (default 30s).
	HelloTimeout time.Duration

	// Tel, when set, receives this client's lifecycle events
	// (client_train, client_upload, client_apply) and is wired into the
	// trainer core. Each client owns its set — client events never mix
	// into the server journal.
	Tel *telemetry.Set
}

// RunClient connects to a federation server, participates in every round
// it is sampled for, and returns after receiving the final model. It
// uses the default 30-second dial and hello timeouts.
func RunClient(addr string, clientID uint32, trainSize int, tr Trainer) error {
	return RunClientOpts(addr, clientID, trainSize, tr, ClientOptions{})
}

// RunClientOpts is RunClient with explicit connection timeouts.
func RunClientOpts(addr string, clientID uint32, trainSize int, tr Trainer, opts ClientOptions) error {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = 30 * time.Second
	}
	if opts.HelloTimeout == 0 {
		opts.HelloTimeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	var hello [helloLen]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(trainSize))
	conn.SetWriteDeadline(time.Now().Add(opts.HelloTimeout))
	if err := WriteFrame(conn, Frame{Type: MsgHello, Client: clientID, Payload: hello[:]}); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	tel := opts.Tel
	algo.Wire(tel, tr)
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("flnet: client %d read: %w", clientID, err)
		}
		switch f.Type {
		case MsgRoundStart:
			round := int(f.Round)
			t0 := time.Now()
			up := tr.LocalUpdate(round, f.Payload)
			tel.Emit(telemetry.ClientTrain(round, int(clientID), time.Since(t0).Nanoseconds()))
			f.Release()
			if err := WriteFrame(conn, Frame{Type: MsgUpdate, Client: clientID, Round: f.Round, Payload: up}); err != nil {
				return err
			}
			tel.Emit(telemetry.ClientUpload(round, int(clientID), int64(len(up)), time.Since(t0).Nanoseconds()))
		case MsgDone:
			tr.Finish(f.Payload)
			tel.Emit(telemetry.ClientApply(int(f.Round), int(clientID), int64(len(f.Payload))))
			f.Release()
			return nil
		default:
			f.Release()
			return fmt.Errorf("flnet: client %d: unexpected frame type %d", clientID, f.Type)
		}
	}
}
