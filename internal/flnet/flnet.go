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
// towards its clients — runs on the one downstream engine of engine.go,
// and the flat Server and the tree root run one round loop on it
// (runRounds) over their peers: a flat client, or an edge whose reply
// pools its shard. A synchronous and a buffered (quorum) round are two
// values of the engine's gather.
package flnet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
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

// frameChunk is the most of a frame's body readFrame takes before the peer
// has sent any of it: the body buffer starts at this size and doubles as
// bytes arrive, so a length prefix alone cannot make the reader allocate
// what it claims. A body up to this size costs one pooled buffer.
const frameChunk = 4 << 20

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

// trainSizeOf reads a hello's uint32 train size, saturated at
// math.MaxInt: on a 32-bit int a size past 2^31−1 would turn negative.
func trainSizeOf(b []byte) int {
	return int(min(uint64(binary.LittleEndian.Uint32(b)), math.MaxInt))
}

// readFrame is ReadFrame with the caller's bound on the length prefix,
// refused before any buffer is taken. The body is read in a buffer that
// grows with what has arrived, from frameChunk.
func readFrame(r io.Reader, maxLen uint32) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < frameBodyMin || n > maxLen {
		return Frame{}, fmt.Errorf("flnet: implausible frame length %d (at most %d here)", n, maxLen)
	}
	body := comm.GetBuf(int(min(n, frameChunk)))
	got, err := io.ReadFull(r, body)
	for err == nil && got < int(n) {
		grown := comm.GetBuf(min(int(n), 2*got))
		copy(grown, body)
		comm.PutBuf(body)
		body = grown
		var k int
		k, err = io.ReadFull(r, body[got:])
		got += k
	}
	if err != nil {
		comm.PutBuf(body)
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
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
	serverCore

	// Stats, populated by Run. UpBytes/DownBytes count full frames
	// (headers included); the *PayloadBytes variants count algorithm
	// payloads only, matching the in-process simulator's comm.Meter.
	UpBytes          int64
	DownBytes        int64
	UpPayloadBytes   int64
	DownPayloadBytes int64
}

// serverCore is what the flat Server and the tree root share: the
// registered clients, the peers their traffic goes through, the counters,
// and the one round loop over them (runRounds). A peer is a downstream
// link whose reply covers a span of the round's sorted selection: a flat
// client its own position, an edge its shard's contiguous positions.
type serverCore struct {
	cfg ServerConfig
	ln  net.Listener

	clients []member    // every registered client, ascending ID
	down    *downstream // over the peers' links, index for index
	// pooled is set when the peers are edges: a round start then carries
	// the shard's selection, and a reply pools its uploads
	// (algo.ShardBuffer wire format).
	pooled bool

	// meter counts client-facing payload bytes in up/down and what crossed
	// the server's own links in the relay counters; for a flat server the
	// two are the same traffic. upFrames and downFrames count the frames
	// on those links, whose headers the flat Server's stats include.
	meter                comm.Meter
	upFrames, downFrames int64

	// drops/errs aggregate the per-peer counters below, attached in the
	// registry as "flnet.drops" and "flnet.errors" when telemetry is on.
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
	// peerDrops and peerErrs count per peer: a flat client's ClientStats,
	// an edge's "flnet.shard.<i>.drops".
	peerDrops []telemetry.Counter
	peerErrs  []int
}

// member is one registered client: its ID, its train size (for
// data-weighted aggregation) and the peer that carries its traffic.
type member struct {
	id        uint32
	trainSize int
	peer      int
}

// listen readies the core for a federation over the given number of
// peers: the config checked, PerRound defaulted, the listener open, the
// shared counters attached to the registry it returns for the caller's
// own (nil when telemetry is off; attaching to it is then a no-op).
func (s *serverCore) listen(cfg ServerConfig, peers int) (reg *telemetry.Registry, err error) {
	if cfg.Clients <= 0 || cfg.Rounds <= 0 || peers <= 0 {
		return nil, fmt.Errorf("flnet: Clients (%d), Rounds (%d) and peers (%d) must be positive", cfg.Clients, cfg.Rounds, peers)
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	s.cfg, s.peerDrops, s.peerErrs = cfg, make([]telemetry.Counter, peers), make([]int, peers)
	if s.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	if cfg.Tel != nil {
		reg = cfg.Tel.Reg
	}
	reg.Attach("flnet.drops", &s.drops)
	reg.Attach("flnet.errors", &s.errs)
	return reg, nil
}

// Addr returns the listening address (use after construction with ":0").
func (s *serverCore) Addr() string { return s.ln.Addr().String() }

// Drops reports total dropped contributions across all clients and
// rounds — the same counter the registry exposes as "flnet.drops".
func (s *serverCore) Drops() int64 { return s.drops.Value() }

// Errors reports total protocol/I-O failures across all clients — the
// same counter the registry exposes as "flnet.errors".
func (s *Server) Errors() int64 { return s.errs.Value() }

// LateUploads reports how many straggler uploads were folded into a
// later round (async quorum mode) — the same counter the registry
// exposes as "flnet.late_uploads".
func (s *Server) LateUploads() int64 { return s.late.Value() }

// NewServer starts listening (so clients can connect before Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	s := &Server{}
	reg, err := s.listen(cfg, cfg.Clients)
	if err != nil {
		return nil, err
	}
	reg.Attach("flnet.late_uploads", &s.late)
	reg.Attach("flnet.post_final_uploads", &s.postFinal)
	return s, nil
}

// ClientStats returns the per-client health records. Call after Run.
func (s *Server) ClientStats() []ClientStats {
	out := make([]ClientStats, len(s.clients))
	for i, c := range s.clients {
		out[i] = ClientStats{
			ID: c.id, TrainSize: c.trainSize, Alive: s.down.links[i].alive,
			Drops: int(s.peerDrops[i].Value()), Errors: s.peerErrs[i],
		}
	}
	return out
}

// clientConn is one registered client as registerClients returns it; an
// Edge keeps it as its view of the client, counting its drops and errors.
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
		clients = append(clients, &clientConn{link: l, trainSize: trainSizeOf(payload)})
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
	clients, d, err := registerClients(s.ln, s.cfg.Clients, s.cfg.HelloTimeout,
		s.cfg.Rounds, s.cfg.StragglerTimeout, s.cfg.WriteTimeout)
	if err != nil {
		return err
	}
	defer d.close()
	s.down = d
	for i, c := range clients {
		s.clients = append(s.clients, member{id: c.id, trainSize: c.trainSize, peer: i})
	}
	err = s.run(agg)
	s.UpPayloadBytes, s.DownPayloadBytes = s.meter.Up(), s.meter.Down()
	// Header bytes on top of the payloads, and the hellos.
	s.UpBytes = s.UpPayloadBytes + frameHeaderLen*s.upFrames + int64(len(clients))*(frameHeaderLen+helloLen)
	s.DownBytes = s.DownPayloadBytes + frameHeaderLen*s.downFrames
	return err
}

// run is a registered federation: the round loop, then the final model to
// every live peer and the drain (see shutdown) — also on failure, when
// with every peer dead nothing is sent.
func (s *serverCore) run(agg Aggregator) error {
	algo.Wire(s.cfg.Tel, agg)
	err := s.runRounds(agg)
	final := agg.Final()
	behind := make([]int, len(s.down.links)) // clients per peer
	for _, c := range s.clients {
		behind[c.peer]++
	}
	s.down.shutdown(final,
		func(i int, err error) {
			if err != nil {
				s.fail(i)
				return
			}
			s.downFrames++
			s.meter.AddDown(behind[i] * len(final))
			s.meter.AddRelayDown(len(final))
		},
		func(a arrival) {
			s.postFinal.Inc()
			s.cfg.Tel.Emit(telemetry.Drop(int(a.frame.Round), int(s.down.links[a.ci].id)))
			a.frame.Release()
		})
	return err
}

// fail counts an I/O or protocol failure on peer p's link.
func (s *serverCore) fail(p int) {
	s.peerErrs[p]++
	s.errs.Inc()
}

// span is a peer's share of a round: positions [lo, hi) of the sorted
// selection, k its ordinal among the round's spans, and whether it is
// still open — neither folded nor lost.
type span struct {
	lo, hi, k int
	open      bool
}

// runRounds is the round loop of every server, flat or tree root,
// synchronous and buffered alike: cfg.Quorum only chooses the two values
// gather takes. Zero wants every awaited reply and kills whoever still
// owes at the deadline. K > 0 (FedBuff-style, flat servers only) closes
// the round at the K-th on-time upload and carries the stragglers: an
// upload folds into whatever round is in progress when it lands
// (CollectLate, "flnet.late_uploads", late_upload). Which uploads are on
// time is then scheduling-dependent, so buffered rounds trade the
// synchronous round's bitwise reproducibility for tail-latency immunity.
//
// A reply folds the moment its frame arrives and the frame recycles at
// once, so round memory is the aggregator's staging bound: its cursor
// parks early arrivals — a later shard's whole reply included — and folds
// them in selection order. The round's journal events are emitted at its
// close, in selection order — what keeps a synchronous journal
// byte-identical across runs, transports and topologies.
func (s *serverCore) runRounds(agg Aggregator) error {
	tel, d := s.cfg.Tel, s.down
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	// The round's journal in order: each span's positions, then the event
	// closing it (an edge's shard_push or shard_drop) — slot pos+k for
	// position pos of span k, hi+k for its close. A slot still blank at
	// the round's close is a carried straggler, a lost edge's client or a
	// flat client's close.
	events := make([]telemetry.Event, 2*s.cfg.PerRound)
	spans := make([]span, len(d.links)) // by peer
	var sel []byte
	var entries []algo.Upload
	var selected []int
	for round := 0; round < s.cfg.Rounds; round++ {
		payload := agg.Broadcast(round)
		selected = algo.SampleSorted(selected, rng, len(s.clients), s.cfg.PerRound)
		ids := make([]uint32, len(selected))
		sel = sel[:0] // the selection on the wire; an edge's round start carries its span
		for i, ci := range selected {
			ids[i] = s.clients[ci].id
			sel = binary.LittleEndian.AppendUint32(sel, ids[i])
		}
		agg.BeginRound(round, ids)
		tel.Emit(telemetry.RoundStart(round, len(selected), int64(len(payload))))
		roundStart := time.Now()
		clear(events)
		clear(spans)
		// settle closes peer p's span against the entries its reply
		// carries, in selection order: an entry naming the next selected
		// client folds, a client without one is lost (journaled by miss,
		// when set). It reports how many entries matched, in place at the
		// front of entries.
		settle := func(p int, entries []algo.Upload, miss func(round, client int) telemetry.Event) (n int) {
			sp := &spans[p]
			sp.open = false
			for pos := sp.lo; pos < sp.hi; pos++ {
				c := s.clients[selected[pos]]
				if n < len(entries) && entries[n].Client == c.id {
					entries[n].TrainSize = c.trainSize // the hello table is authoritative
					s.meter.AddUp(len(entries[n].Payload))
					events[pos+sp.k] = telemetry.ClientUpload(round, int(c.id), int64(len(entries[n].Payload)), time.Since(roundStart).Nanoseconds())
					n++
					continue
				}
				agg.MarkAbsent(round, c.id)
				s.drops.Inc()
				s.peerDrops[p].Inc()
				if miss != nil {
					events[pos+sp.k] = miss(round, int(c.id))
				}
			}
			return n
		}
		// lose records that peer p's open span will not be aggregated this
		// round; ev journals a flat client's loss, an edge's is one
		// shard_drop.
		lose := func(p int, ev func(round, client int) telemetry.Event) {
			if sp := &spans[p]; sp.open {
				if s.pooled {
					events[sp.hi+sp.k], ev = telemetry.ShardDrop(round, p, sp.hi-sp.lo), nil
				}
				settle(p, nil, ev)
			}
		}
		for lo, hi, k := 0, 0, 0; lo < len(selected); lo, k = hi, k+1 {
			p := s.clients[selected[lo]].peer
			for hi = lo + 1; hi < len(selected) && s.clients[selected[hi]].peer == p; hi++ {
			}
			spans[p] = span{lo: lo, hi: hi, k: k, open: true}
			if !d.links[p].alive {
				lose(p, telemetry.Drop)
				continue
			}
			f := Frame{Type: MsgRoundStart, Client: d.links[p].id, Round: uint32(round), Payload: payload}
			if s.pooled {
				f.Payload = comm.JoinPayloads(sel[4*lo:4*hi], payload)
			}
			if err := d.deliver(p, f); err != nil {
				s.fail(p)
				lose(p, telemetry.Drop)
				continue
			}
			s.downFrames++
			s.meter.AddDown((hi - lo) * len(payload))
			s.meter.AddRelayDown(len(payload))
		}
		collected := 0
		onTime, met := d.gather(uint32(round), s.cfg.Quorum, s.cfg.Quorum > 0, func(a arrival) {
			if a.err == errOverdue { // a missed deadline alone is a drop, not an error
				lose(a.ci, telemetry.Straggler)
				return
			}
			if a.err != nil {
				s.fail(a.ci)
				lose(a.ci, telemetry.Drop)
				return
			}
			reply := a.frame.Payload
			s.upFrames++
			s.meter.AddRelayUp(len(reply))
			if int(a.frame.Round) != round {
				// A flat straggler's upload from an earlier round.
				// CollectLate bypasses the streaming cursor — the straggler
				// may also be selected this round and still owe its own slot.
				c := s.clients[a.ci]
				collected++
				s.late.Inc()
				s.meter.AddUp(len(reply))
				tel.Emit(telemetry.LateUpload(round, int(c.id), int64(len(reply))))
				agg.CollectLate(round, c.id, c.trainSize, reply)
				a.frame.Release()
				return
			}
			var err error
			if s.pooled {
				entries, err = algo.ShardEntries(entries[:0], reply)
			} else {
				entries = append(entries[:0], algo.Upload{Client: d.links[a.ci].id, Payload: reply})
			}
			sp := spans[a.ci]
			n := settle(a.ci, entries, telemetry.Drop)
			if err != nil || n != len(entries) { // malformed, or entries for clients not in the span
				s.fail(a.ci)
			}
			if s.pooled {
				events[sp.hi+sp.k] = telemetry.ShardPush(round, a.ci, n, int64(len(reply)))
			}
			algo.CollectAll(agg, round, entries[:n])
			collected += n
			a.frame.Release()
		})
		for _, ev := range events {
			if ev.Ev != "" {
				tel.Emit(ev)
			}
		}
		if s.cfg.Quorum > 0 && met {
			tel.Emit(telemetry.Quorum(round, onTime))
		}
		t0 := time.Now()
		agg.FinishRound(round)
		tel.Emit(telemetry.Aggregate(round, collected, time.Since(t0).Nanoseconds()))
		tel.Emit(telemetry.RoundEnd(round, s.meter.Up(), s.meter.Down()))
		if !slices.ContainsFunc(d.links, func(l *link) bool { return l.alive }) {
			return fmt.Errorf("flnet: all %d peers dead after round %d", len(d.links), round)
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
	conn, err := net.DialTimeout("tcp", addr, cmp.Or(opts.DialTimeout, 30*time.Second))
	if err != nil {
		return err
	}
	defer conn.Close()
	var hello [helloLen]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(trainSize))
	conn.SetWriteDeadline(time.Now().Add(cmp.Or(opts.HelloTimeout, 30*time.Second)))
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
