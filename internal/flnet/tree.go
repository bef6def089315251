package flnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/netsim"
	"spatl/internal/telemetry"
)

// Two-level aggregation tree. A flat server owns one TCP connection, one
// reader goroutine and one frame per sampled client per round — at 10k+
// sampled clients the root drowns in per-connection work (accepts, read
// deadlines, tiny frame reads) long before the arithmetic matters. The
// tree moves that work to edge aggregators: clients register with an
// edge, the edge collects their uploads for the round and forwards ONE
// pooled shard payload (algo.ShardBuffer wire format) to the root. The
// root handles NumShards connections instead of NumClients, and folds
// the pooled payloads in fixed shard-ID order — bitwise identical to
// the flat reduce (see internal/algo/shard.go for the contract).
//
// Topology invariant: every edge owns a contiguous range of the global
// client-ID order (shard 0 the lowest IDs, and so on). Because round
// selections are sorted ascending, shard-major processing order equals
// flat selection order, which is what makes the fold — and the journal
// event sequence — identical to the in-process sharded simulator.
//
// Edge aggregators emit no journal events; the root owns the journal.
// Client-facing traffic is metered in comm up/down exactly as the flat
// transports meter it, and the tree's own hop (pooled shard payloads
// up, broadcasts to edges down) is attributed to the meter's relay
// counters — so client-facing byte counts still match cross-transport.

// treeClient is the root's view of one client registered via an edge.
type treeClient struct {
	id        uint32
	trainSize int
	shard     int
}

// edgeConn is the root's view of one registered edge aggregator; the
// link's id is the shard ID.
type edgeConn struct {
	*link
	clients []treeClient
}

// TreeServerConfig configures the root of a two-level aggregation tree.
type TreeServerConfig struct {
	// Addr to listen on; ":0" picks a free port.
	Addr string
	// Shards is the number of edge aggregators to wait for.
	Shards int
	// Clients is the total number of clients across all edges.
	Clients int
	// Rounds of federated training to run.
	Rounds int
	// PerRound is how many clients participate each round (0 = all).
	PerRound int
	// Seed drives client sampling (same derivation as the flat server).
	Seed int64

	// HelloTimeout bounds an accepted edge's registration frame.
	HelloTimeout time.Duration
	// StragglerTimeout is ServerConfig's, for an edge's pooled shard
	// payload: an edge that misses it is marked dead and its whole
	// shard's contribution dropped for the round (shard_drop).
	StragglerTimeout time.Duration
	// WriteTimeout bounds each broadcast write to an edge.
	WriteTimeout time.Duration

	// Tel receives the root's journal events and counters; nil disables.
	Tel *telemetry.Set
}

// TreeServer is the root of a two-level aggregation tree.
type TreeServer struct {
	cfg TreeServerConfig
	ln  net.Listener

	edges   []*edgeConn
	down    *downstream  // over the edges' links, index for index
	clients []treeClient // global client order: ascending ID, contiguous per shard
	meter   comm.Meter

	drops      telemetry.Counter
	errs       telemetry.Counter
	shardDrops []telemetry.Counter // per-shard dropped contributions
}

// NewTreeServer starts listening (so edges can connect before Run).
func NewTreeServer(cfg TreeServerConfig) (*TreeServer, error) {
	if cfg.Shards <= 0 || cfg.Clients <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("flnet: Shards, Clients and Rounds must be positive")
	}
	if cfg.PerRound <= 0 || cfg.PerRound > cfg.Clients {
		cfg.PerRound = cfg.Clients
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &TreeServer{cfg: cfg, ln: ln, shardDrops: make([]telemetry.Counter, cfg.Shards)}
	if cfg.Tel != nil && cfg.Tel.Reg != nil {
		cfg.Tel.Reg.Attach("flnet.drops", &s.drops)
		cfg.Tel.Reg.Attach("flnet.errors", &s.errs)
		for i := range s.shardDrops {
			cfg.Tel.Reg.Attach(fmt.Sprintf("flnet.shard.%d.drops", i), &s.shardDrops[i])
		}
		s.meter.Bind(cfg.Tel.Reg, "comm")
	}
	return s, nil
}

// Addr returns the listening address (use after NewTreeServer with ":0").
func (s *TreeServer) Addr() string { return s.ln.Addr().String() }

// Drops reports total dropped client contributions across all rounds.
func (s *TreeServer) Drops() int64 { return s.drops.Value() }

// ShardDrops reports dropped contributions attributed to one shard.
func (s *TreeServer) ShardDrops(shard int) int64 { return s.shardDrops[shard].Value() }

// Meter exposes the root's traffic meter (client-facing up/down plus
// the tree's relay counters).
func (s *TreeServer) Meter() *comm.Meter { return &s.meter }

// acceptEdges collects the edge registrations, in shard order whatever
// order they connect in, and starts the engine over them.
func (s *TreeServer) acceptEdges() error {
	s.edges = make([]*edgeConn, s.cfg.Shards)
	// An edge hello lists at most every client of the federation.
	err := register(s.ln, s.cfg.Shards, MsgEdgeHello, 4+8*s.cfg.Clients, s.cfg.HelloTimeout, func(l *link, payload []byte) error {
		shard := int(l.id)
		if shard >= s.cfg.Shards || s.edges[shard] != nil {
			return fmt.Errorf("duplicate or out-of-range shard %d", shard)
		}
		if len(payload) < 4 || len(payload) != 4+8*int(binary.LittleEndian.Uint32(payload)) {
			return fmt.Errorf("shard %d: client count does not match %d payload bytes", shard, len(payload))
		}
		e := &edgeConn{link: l}
		for off := 4; off < len(payload); off += 8 {
			e.clients = append(e.clients, treeClient{
				id:        binary.LittleEndian.Uint32(payload[off : off+4]),
				trainSize: int(binary.LittleEndian.Uint32(payload[off+4 : off+8])),
				shard:     shard,
			})
		}
		sort.Slice(e.clients, func(i, j int) bool { return e.clients[i].id < e.clients[j].id })
		s.edges[shard] = e
		return nil
	})
	if err != nil {
		return err
	}
	links := make([]*link, len(s.edges))
	for i, e := range s.edges {
		links[i] = e.link
	}
	// An edge still owing at the deadline is killed: one broadcast out at most.
	s.down = serve(links, MsgShardUpdate, 1, s.cfg.StragglerTimeout, s.cfg.WriteTimeout)
	return nil
}

// buildClientTable lays the edges' clients out in global order, enforcing
// the contiguous-shard topology invariant.
func (s *TreeServer) buildClientTable() error {
	s.clients = s.clients[:0]
	for _, e := range s.edges {
		s.clients = append(s.clients, e.clients...)
	}
	if len(s.clients) != s.cfg.Clients {
		return fmt.Errorf("flnet: edges registered %d clients, want %d", len(s.clients), s.cfg.Clients)
	}
	for i := 1; i < len(s.clients); i++ {
		if s.clients[i].id <= s.clients[i-1].id {
			return fmt.Errorf("flnet: shard client IDs must be globally ascending and contiguous per shard (client %d after %d)",
				s.clients[i].id, s.clients[i-1].id)
		}
	}
	return nil
}

// shardEnd returns where shard sh's positions in the sorted selection,
// which start at lo, end.
func (s *TreeServer) shardEnd(selected []int, lo, sh int) int {
	for lo < len(selected) && s.clients[selected[lo]].shard == sh {
		lo++
	}
	return lo
}

// Run accepts edge registrations, executes the round loop and broadcasts
// the final model through the edges. A vanished edge degrades to
// shard-scoped drops — the root keeps federating on the surviving
// shards — and Run errors only when every edge is dead.
func (s *TreeServer) Run(agg Aggregator) error {
	defer s.ln.Close()
	if err := s.acceptEdges(); err != nil {
		return err
	}
	defer s.down.close()
	if err := s.buildClientTable(); err != nil {
		return err
	}
	tel, d := s.cfg.Tel, s.down
	algo.Wire(tel, agg)
	rng := newRng(s.cfg.Seed)
	selBuf := make([]byte, 0, 4*s.cfg.PerRound)
	// A round's view of each shard: its span [lo, hi) of the selection,
	// its pooled reply once in, and whether it is resolved — the reply is
	// in or will not come (empty shard, dead edge, failed write, deadline).
	shards := make([]struct {
		lo, hi   int
		resolved bool
		frame    *Frame
	}, s.cfg.Shards)
	for round := 0; round < s.cfg.Rounds; round++ {
		payload, selected := openRound(agg, tel, rng, round, len(s.clients), s.cfg.PerRound,
			func(i int) uint32 { return s.clients[i].id })
		roundStart := time.Now()

		// Fan the broadcast out: one pooled round-start per live edge,
		// carrying that shard's selection list and the model payload.
		pos := 0
		for sh, e := range s.edges {
			lo, hi := pos, s.shardEnd(selected, pos, sh)
			pos = hi
			shards[sh].lo, shards[sh].hi, shards[sh].resolved = lo, hi, true
			if hi == lo {
				continue
			}
			s.meter.AddDown((hi - lo) * len(payload)) // client-facing broadcast volume
			if !e.alive {
				continue
			}
			selBuf = selBuf[:0]
			for p := lo; p < hi; p++ {
				selBuf = binary.LittleEndian.AppendUint32(selBuf, s.clients[selected[p]].id)
			}
			joined := comm.JoinPayloads(selBuf, payload)
			f := Frame{Type: MsgRoundStart, Client: uint32(sh), Round: uint32(round), Payload: joined}
			if err := d.deliver(sh, f); err != nil {
				s.errs.Inc()
				continue
			}
			s.meter.AddRelayDown(len(payload))
			shards[sh].resolved = false
		}

		// Fold the pooled shard payloads opportunistically behind a shard
		// cursor: shard k is processed (and its frame released) the moment
		// shards 0..k have all resolved, so the root holds frames only for
		// shards that arrive ahead of the cursor instead of one per shard
		// per round. Cursor order IS shard-ID order, so journal events and
		// the fold sequence are byte-identical to the buffered pass, and
		// the per-entry folds land in ascending client order — zero
		// staging.
		collected := 0
		var entries []algo.Upload
		processShard := func(sh int) {
			lo, hi, frame := shards[sh].lo, shards[sh].hi, shards[sh].frame
			n := hi - lo
			if n == 0 {
				return
			}
			if frame == nil {
				// The whole shard vanished: one shard_drop event carrying
				// the count, attributed per shard in the registry — the
				// root degrades instead of stalling.
				for p := lo; p < hi; p++ {
					agg.MarkAbsent(round, s.clients[selected[p]].id)
				}
				tel.Emit(telemetry.ShardDrop(round, sh, n))
				s.drops.Add(int64(n))
				s.shardDrops[sh].Add(int64(n))
				return
			}
			var err error
			entries, err = algo.ShardEntries(entries[:0], frame.Payload)
			if err != nil {
				s.errs.Inc()
			}
			// Walk the shard's selection against the (subsequence of)
			// entries the edge pooled, emitting client events in
			// selection order — the flat server's order.
			kept := entries[:0]
			ei := 0
			for p := lo; p < hi; p++ {
				c := s.clients[selected[p]]
				if ei < len(entries) && entries[ei].Client == c.id {
					u := entries[ei]
					u.TrainSize = c.trainSize // hello table is authoritative
					kept = append(kept, u)
					s.meter.AddUp(len(u.Payload))
					tel.Emit(telemetry.ClientUpload(round, int(c.id), int64(len(u.Payload)), time.Since(roundStart).Nanoseconds()))
					ei++
					continue
				}
				agg.MarkAbsent(round, c.id)
				tel.Emit(telemetry.Drop(round, int(c.id)))
				s.drops.Inc()
				s.shardDrops[sh].Inc()
			}
			if ei != len(entries) {
				s.errs.Inc() // edge pooled clients the root never selected
			}
			s.meter.AddRelayUp(len(frame.Payload))
			tel.Emit(telemetry.ShardPush(round, sh, len(kept), int64(len(frame.Payload))))
			algo.CollectAll(agg, round, kept)
			collected += len(kept)
			frame.Release()
			shards[sh].frame = nil
		}
		nextShard := 0
		processUpTo := func() {
			for nextShard < s.cfg.Shards && shards[nextShard].resolved {
				processShard(nextShard)
				nextShard++
			}
		}
		processUpTo()
		d.gather(uint32(round), 0, false, func(a arrival) {
			switch {
			case a.err == nil:
				shards[a.ci].frame = &a.frame
			case a.err != errOverdue:
				s.errs.Inc()
			}
			shards[a.ci].resolved = true
			processUpTo()
		})
		if err := closeRound(agg, tel, round, collected, s.meter.Up(), s.meter.Down(), d.links); err != nil {
			return err
		}
	}

	final := agg.Final()
	d.shutdown(final, func(i int, err error) {
		if err != nil {
			s.errs.Inc()
			return
		}
		s.meter.AddRelayDown(len(final))
		s.meter.AddDown(len(s.edges[i].clients) * len(final))
	}, nil)
	return nil
}

// EdgeConfig configures one edge aggregator.
type EdgeConfig struct {
	// Addr to listen on for this shard's clients; ":0" picks a port.
	Addr string
	// Clients is how many client registrations to wait for.
	Clients int
	// RootAddr is the tree root to report to.
	RootAddr string
	// Shard is this edge's shard ID (its clients must own a contiguous
	// range of the global client-ID order; the root enforces it).
	Shard uint32

	// DialTimeout bounds the TCP connect to the root (default 30s).
	DialTimeout time.Duration
	// HelloTimeout bounds each client's registration frame.
	HelloTimeout time.Duration
	// Churn, when set with a positive probability, makes the edge crash
	// (close every connection and return) at the start of the first
	// round for which Churn.Fails(round, shard) reports true —
	// deterministic failure injection for degradation tests. The root
	// keeps federating: the shard's contributions become shard_drop
	// events, not a stalled federation.
	Churn netsim.Churn
	// StragglerTimeout is ServerConfig's, for one client's upload: a
	// straggler is omitted from the pooled shard payload (the root
	// records the drop).
	StragglerTimeout time.Duration
	// WriteTimeout bounds each broadcast write to a client.
	WriteTimeout time.Duration
}

// Edge is one edge aggregator: a server to its shard's clients and a
// client of the tree root. It pools uploads with algo.ShardBuffer and
// forwards one frame per round; it emits no journal events (the root
// owns the journal).
type Edge struct {
	cfg     EdgeConfig
	ln      net.Listener
	clients []*clientConn

	// Drops counts contributions this edge could not pool (dead client,
	// straggler, I/O error); the root sees them as drop events.
	Drops int64
}

// NewEdge starts listening for the shard's clients.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("flnet: edge needs a positive client count")
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return &Edge{cfg: cfg, ln: ln}, nil
}

// Addr returns the client-facing listening address.
func (e *Edge) Addr() string { return e.ln.Addr().String() }

// Run accepts the shard's clients, registers with the root and relays
// rounds until the root sends the final model (forwarded to every
// surviving client) or the root connection fails.
func (e *Edge) Run() (err error) {
	defer e.ln.Close()
	// A client still owing at the deadline is killed: one broadcast out at most.
	var d *downstream
	e.clients, d, err = registerClients(e.ln, e.cfg.Clients, e.cfg.HelloTimeout, 1, e.cfg.StragglerTimeout, e.cfg.WriteTimeout)
	if err != nil {
		return fmt.Errorf("flnet: edge %d: %w", e.cfg.Shard, err)
	}
	defer d.close()
	byID := make(map[uint32]int, len(e.clients))
	for i, c := range e.clients {
		byID[c.id] = i
	}

	root, err := net.DialTimeout("tcp", e.cfg.RootAddr, e.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("flnet: edge %d dial root: %w", e.cfg.Shard, err)
	}
	defer root.Close()
	hello := binary.LittleEndian.AppendUint32(nil, uint32(len(e.clients)))
	for _, c := range e.clients {
		hello = binary.LittleEndian.AppendUint32(hello, c.id)
		hello = binary.LittleEndian.AppendUint32(hello, uint32(c.trainSize))
	}
	if err := WriteFrame(root, Frame{Type: MsgEdgeHello, Client: e.cfg.Shard, Payload: hello}); err != nil {
		return fmt.Errorf("flnet: edge %d hello: %w", e.cfg.Shard, err)
	}

	var sb algo.ShardBuffer
	frames := make([]*Frame, len(e.clients)) // a round's uploads, by client index
	for {
		rf, err := ReadFrame(root)
		if err != nil {
			return fmt.Errorf("flnet: edge %d root read: %w", e.cfg.Shard, err)
		}
		switch rf.Type {
		case MsgRoundStart:
			if e.cfg.Churn.Fails(int(rf.Round), int(e.cfg.Shard)) {
				rf.Release()
				return fmt.Errorf("flnet: edge %d churned out at round %d", e.cfg.Shard, rf.Round)
			}
			parts, err := comm.SplitPayloads(rf.Payload)
			if err != nil || len(parts) != 2 || len(parts[0])%4 != 0 {
				rf.Release()
				return fmt.Errorf("flnet: edge %d: malformed round start: %v", e.cfg.Shard, err)
			}
			sel, bcast := parts[0], parts[1]
			// Forward the broadcast to each selected, live client.
			targets := make([]int, 0, len(sel)/4) // client index per selection position
			for off := 0; off < len(sel); off += 4 {
				id := binary.LittleEndian.Uint32(sel[off : off+4])
				ci, known := byID[id]
				if !known {
					e.Drops++
					continue
				}
				c := e.clients[ci]
				if !c.alive {
					e.lose(c, false)
				} else if err := d.deliver(ci, Frame{Type: MsgRoundStart, Client: id, Round: rf.Round, Payload: bcast}); err != nil {
					e.lose(c, true)
				} else {
					targets = append(targets, ci)
				}
			}
			d.gather(rf.Round, 0, false, func(a arrival) {
				if a.err != nil {
					e.lose(e.clients[a.ci], true)
					return
				}
				frames[a.ci] = &a.frame
			})
			// Pool in selection order — the ShardBuffer IS the upstream
			// wire format, and its entry order is the fold order.
			sb.Reset()
			for _, ci := range targets {
				if f := frames[ci]; f != nil {
					sb.Add(e.clients[ci].id, e.clients[ci].trainSize, f.Payload)
					f.Release()
					frames[ci] = nil
				}
			}
			rf.Release() // the payload; the header fields stay readable
			if err := WriteFrame(root, Frame{Type: MsgShardUpdate, Client: e.cfg.Shard, Round: rf.Round, Payload: sb.Payload()}); err != nil {
				return fmt.Errorf("flnet: edge %d shard update: %w", e.cfg.Shard, err)
			}
		case MsgDone:
			d.shutdown(rf.Payload, func(i int, err error) {
				if err != nil {
					e.clients[i].errs++
				}
			}, nil)
			rf.Release()
			return nil
		default:
			rf.Release()
			return fmt.Errorf("flnet: edge %d: unexpected frame type %d from root", e.cfg.Shard, rf.Type)
		}
	}
}

// lose records a contribution this edge could not pool (failed: because
// of an I/O or protocol failure or a missed deadline, not an already dead
// client).
func (e *Edge) lose(c *clientConn, failed bool) {
	if failed {
		c.errs++
	}
	c.drops++
	e.Drops++
}
