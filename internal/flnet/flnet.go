// Package flnet runs federated learning over real TCP connections: a
// central aggregation server and one process (or goroutine) per client,
// exchanging the same wire payloads the in-process simulator meters
// (internal/comm). The algorithms themselves live in internal/algo —
// the identical Aggregator/Trainer cores the simulator (internal/fl)
// drives in-process — so a federation produces bitwise-identical models
// whichever transport carries it (see the cross-transport equivalence
// test). flnet adds what a real network demands: framing, read/write
// deadlines, and straggler tolerance — a round aggregates whatever
// arrived before the timeout instead of aborting the federation.
//
// The protocol is deliberately small: length-prefixed frames carrying a
// message type, a round number, and an opaque payload whose encoding is
// owned by the algorithm layer (dense or sparse comm payloads).
package flnet

import (
	"encoding/binary"
	"errors"
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

// frameHeaderLen is the wire overhead per frame: uint32 length prefix
// plus type, client and round fields.
const frameHeaderLen = 4 + 1 + 4 + 4

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
	binary.LittleEndian.PutUint32(header[0:4], uint32(1+4+4+len(f.Payload)))
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
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxFrame {
		return Frame{}, fmt.Errorf("flnet: implausible frame length %d", n)
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
		Payload: body[9:],
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
	links   []*link // clients[i]'s link, index for index

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

// link is one downstream connection of a server: a client of the flat
// server or of an edge, an edge of the tree root.
type link struct {
	id    uint32 // client ID; shard ID for an edge
	conn  net.Conn
	alive bool
}

// markDead closes the connection and excludes the peer from future
// traffic; its sampling slot stays occupied and counts drops.
func (l *link) markDead() {
	if l.alive {
		l.alive = false
		l.conn.Close()
	}
}

// send writes one frame under the write deadline (zero waits forever). A
// failed write kills the link.
func (l *link) send(f Frame, timeout time.Duration) error {
	if timeout > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	err := WriteFrame(l.conn, f)
	if err != nil {
		l.markDead()
	}
	return err
}

// allDead reports whether no link is left to federate with.
func allDead(links []*link) bool {
	for _, l := range links {
		if l.alive {
			return false
		}
	}
	return true
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

// arrival is one frame (or the terminal read error) from a reader
// goroutine; ci indexes the links the readers were started over.
type arrival struct {
	ci    int
	frame Frame
	err   error
}

// readers is a set of goroutines, one per link, each feeding every frame
// it reads into ch until a read fails; the failure is the last thing it
// sends. n counts the goroutines still running: whoever receives an
// arrival with err set decrements it. Closing a link's connection is
// what stops its reader; shutdown is what waits for all of them.
type readers struct {
	ch chan arrival
	n  int
}

// startReaders starts a reader on every live link.
func startReaders(links []*link) *readers {
	// Capacity absorbs a burst of one pending upload plus the terminal
	// error per link; a full channel simply backpressures that reader.
	r := &readers{ch: make(chan arrival, 4*len(links)+8)}
	for i, l := range links {
		if !l.alive {
			continue
		}
		r.n++
		go func(i int, conn net.Conn) {
			for {
				f, err := ReadFrame(conn)
				r.ch <- arrival{ci: i, frame: f, err: err}
				if err != nil {
					return
				}
			}
		}(i, l.conn)
	}
	return r
}

// shutdown is the last step of the protocol, shared by every server:
// send the final model to each live link as MsgDone (sent reports each
// write's outcome), then drain — keep reading, and releasing, whatever a
// straggler still uploads (postFinal sees each such frame) until every
// peer has closed its end or drain elapses (zero waits). Only then may
// the caller close the connections: closing with a straggler's upload
// unread would reset the connection under it and destroy the MsgDone it
// has not read yet. rd is the persistent readers an async server already
// runs; nil starts one per live link for the drain. On return no reader
// is running.
func shutdown(links []*link, rd *readers, final []byte, writeTimeout, drain time.Duration,
	sent func(i int, err error), postFinal func(a arrival)) {
	for i, l := range links {
		if l.alive {
			sent(i, l.send(Frame{Type: MsgDone, Client: l.id, Payload: final}, writeTimeout))
		}
	}
	if rd == nil {
		rd = startReaders(links)
	}
	var deadline <-chan time.Time
	if drain > 0 {
		t := time.NewTimer(drain)
		defer t.Stop()
		deadline = t.C
	}
	for rd.n > 0 {
		select {
		case a := <-rd.ch:
			if a.err != nil {
				rd.n--
				continue
			}
			if postFinal != nil {
				postFinal(a)
			}
			a.frame.Release()
		case <-deadline:
			// Out of patience: closing the connections fails every
			// pending read, which is how the remaining readers exit.
			for _, l := range links {
				if l.alive {
					l.conn.Close()
				}
			}
			deadline = nil
		}
	}
}

// clientConn is a server's (or an edge's) view of one registered client.
type clientConn struct {
	link
	trainSize int
	drops     int
	errs      int
}

// Run accepts registrations, executes the round loop (synchronous, or
// buffered/async when cfg.Quorum is set), broadcasts the final model
// and drains the connections (see shutdown). A malformed hello still
// fails fast — the federation has not started — but once rounds begin,
// client failures and stragglers are tolerated: their contributions are
// dropped (see ClientStats) and each round aggregates whatever arrived.
// Run errors only when every client is dead.
func (s *Server) Run(agg Aggregator) error {
	defer s.ln.Close()
	err := s.acceptClients()
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range s.clients {
			c.conn.Close()
		}
	}()
	algo.Wire(s.cfg.Tel, agg)
	var rd *readers // async rounds read through persistent readers; shutdown inherits them
	if s.cfg.Quorum > 0 {
		rd = startReaders(s.links)
		err = s.runAsync(agg, rd)
	} else {
		err = s.runSync(agg)
	}
	// Also on failure: with every client dead nothing is sent, and the
	// drain is what waits for the readers to exit.
	final := agg.Final()
	shutdown(s.links, rd, final, s.cfg.WriteTimeout, s.cfg.StragglerTimeout,
		func(i int, err error) {
			if err != nil {
				s.clients[i].errs++
				return
			}
			s.DownBytes += int64(frameHeaderLen + len(final))
			s.DownPayloadBytes += int64(len(final))
		},
		func(a arrival) {
			if a.frame.Type == MsgUpdate {
				s.postFinal.Inc()
				s.cfg.Tel.Emit(telemetry.Drop(int(a.frame.Round), int(s.clients[a.ci].id)))
			}
		})
	return err
}

// acceptClients waits for every registration and orders the client
// table by ID, so collect order is reproducible across runs.
func (s *Server) acceptClients() error {
	s.clients = make([]*clientConn, 0, s.cfg.Clients)
	for len(s.clients) < s.cfg.Clients {
		conn, err := s.ln.Accept()
		if err != nil {
			return fmt.Errorf("flnet: accept: %w", err)
		}
		if s.cfg.HelloTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != MsgHello || len(f.Payload) < 4 {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: bad hello from %s: %v", conn.RemoteAddr(), err)
		}
		conn.SetReadDeadline(time.Time{})
		s.UpBytes += int64(frameHeaderLen + len(f.Payload))
		s.clients = append(s.clients, &clientConn{
			link:      link{id: f.Client, conn: conn, alive: true},
			trainSize: int(binary.LittleEndian.Uint32(f.Payload)),
		})
		f.Release()
	}
	// Clients register in connection order, which is not reproducible;
	// aggregate in client-ID order so collect order — and therefore the
	// floating-point reduction — matches the in-process simulator bitwise.
	sort.Slice(s.clients, func(i, j int) bool { return s.clients[i].id < s.clients[j].id })
	s.links = clientLinks(s.clients)
	return nil
}

// clientLinks is the link view of a client table, index for index.
func clientLinks(clients []*clientConn) []*link {
	links := make([]*link, len(clients))
	for i, c := range clients {
		links[i] = &c.link
	}
	return links
}

// openRound opens a round over the server's client table.
func (s *Server) openRound(agg Aggregator, rng *rand.Rand, round int) (payload []byte, selected []int) {
	return openRound(agg, s.cfg.Tel, rng, round, len(s.clients), s.cfg.PerRound,
		func(i int) uint32 { return s.clients[i].id })
}

// lose records that a selected client's contribution will not be
// aggregated this round (failed: because of a protocol or I/O failure,
// not merely a dead or slow peer) and resolves its position in the
// aggregator's fold order.
func (s *Server) lose(agg Aggregator, round int, c *clientConn, failed bool) {
	if failed {
		c.errs++
		s.errs.Inc()
	}
	c.drops++
	s.drops.Inc()
	agg.MarkAbsent(round, c.id)
}

// broadcast sends the round's payload to every selected client still
// alive and reports, per selection position, whether it went out; the
// rest are lost for the round.
func (s *Server) broadcast(agg Aggregator, round int, selected []int, payload []byte) []bool {
	sent := make([]bool, len(selected))
	for pos, ci := range selected {
		c := s.clients[ci]
		if !c.alive {
			s.lose(agg, round, c, false)
			continue
		}
		f := Frame{Type: MsgRoundStart, Client: c.id, Round: uint32(round), Payload: payload}
		if err := c.send(f, s.cfg.WriteTimeout); err != nil {
			s.lose(agg, round, c, true)
			continue
		}
		s.DownBytes += int64(frameHeaderLen + len(payload))
		s.DownPayloadBytes += int64(len(payload))
		sent[pos] = true
	}
	return sent
}

// runSync is the synchronous round loop: every round waits for all
// selected uploads (or the straggler deadline) before aggregating.
//
// Each upload folds the moment its frame is read: the receive loop calls
// Collect in arrival order and releases the frame immediately, so round
// memory is the aggregator's staging bound, not one held frame per
// selected client. The fold itself is order-independent (the
// cursor/staging machinery replays arrivals in selection order), and
// journal events are emitted from the sequential pass below in selection
// order.
func (s *Server) runSync(agg Aggregator) error {
	tel := s.cfg.Tel
	rng := newRng(s.cfg.Seed)
	// Per-position outcome of a round, for journal emission in selection
	// order after the concurrent collect.
	const (
		outcomeDrop      = uint8(iota) // dead, I/O error or bad frame
		outcomeStraggler               // missed the straggler deadline
		outcomeUpload                  // contribution aggregated
	)
	for round := 0; round < s.cfg.Rounds; round++ {
		payload, selected := s.openRound(agg, rng, round)
		roundStart := time.Now()
		awaiting := s.broadcast(agg, round, selected, payload)
		// Collect uploads concurrently; the aggregator restores selection
		// order.
		type result struct {
			idx   int
			frame Frame
			err   error
		}
		results := make(chan result, len(selected))
		inflight := 0
		for pos, ci := range selected {
			if !awaiting[pos] {
				continue
			}
			inflight++
			c := s.clients[ci]
			if s.cfg.StragglerTimeout > 0 {
				c.conn.SetReadDeadline(time.Now().Add(s.cfg.StragglerTimeout))
			}
			go func(pos int, c *clientConn) {
				f, err := ReadFrame(c.conn)
				results <- result{idx: pos, frame: f, err: err}
			}(pos, c)
		}
		outcomes := make([]uint8, len(selected))
		recvNS := make([]int64, len(selected))
		upLens := make([]int64, len(selected))
		for ; inflight > 0; inflight-- {
			r := <-results
			c := s.clients[selected[r.idx]]
			switch {
			case r.err != nil:
				var ne net.Error
				straggler := errors.As(r.err, &ne) && ne.Timeout()
				if straggler {
					outcomes[r.idx] = outcomeStraggler
				}
				c.markDead()
				s.lose(agg, round, c, !straggler) // a timeout alone is a drop, not an error
			case r.frame.Type != MsgUpdate || int(r.frame.Round) != round:
				c.markDead()
				r.frame.Release()
				s.lose(agg, round, c, true)
			default:
				recvNS[r.idx] = time.Since(roundStart).Nanoseconds()
				upLens[r.idx] = int64(len(r.frame.Payload))
				outcomes[r.idx] = outcomeUpload
				// Fold on arrival: the aggregator reads the payload where
				// it is or copies what it parks, so the frame recycles here.
				agg.Collect(round, c.id, c.trainSize, r.frame.Payload)
				r.frame.Release()
			}
		}
		collected := 0
		for pos, ci := range selected {
			c := s.clients[ci]
			switch outcomes[pos] {
			case outcomeUpload:
				c.conn.SetReadDeadline(time.Time{})
				s.UpBytes += int64(frameHeaderLen) + upLens[pos]
				s.UpPayloadBytes += upLens[pos]
				tel.Emit(telemetry.ClientUpload(round, int(c.id), upLens[pos], recvNS[pos]))
				collected++
			case outcomeStraggler:
				tel.Emit(telemetry.Straggler(round, int(c.id)))
			default:
				tel.Emit(telemetry.Drop(round, int(c.id)))
			}
		}
		if err := closeRound(agg, tel, round, collected, s.UpPayloadBytes, s.DownPayloadBytes, s.links); err != nil {
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
	var hello [4]byte
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
