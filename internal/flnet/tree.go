package flnet

import (
	"encoding/binary"
	"errors"
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
	link
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
	// StragglerTimeout bounds the wait for an edge's pooled shard
	// payload; an edge that misses it is marked dead and its whole
	// shard's contribution dropped for the round (shard_drop). It also
	// bounds the drain that ends the federation (see shutdown). Zero
	// waits forever.
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
	links   []*link      // edges[i]'s link, index for index
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

// acceptEdges collects the edge registrations and builds the global
// client table, enforcing the contiguous-shard topology invariant.
func (s *TreeServer) acceptEdges() error {
	s.edges = make([]*edgeConn, s.cfg.Shards)
	seen := 0
	for seen < s.cfg.Shards {
		conn, err := s.ln.Accept()
		if err != nil {
			return fmt.Errorf("flnet: accept edge: %w", err)
		}
		if s.cfg.HelloTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != MsgEdgeHello || len(f.Payload) < 4 {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: bad edge hello from %s: %v", conn.RemoteAddr(), err)
		}
		conn.SetReadDeadline(time.Time{})
		shard := int(f.Client)
		if shard < 0 || shard >= s.cfg.Shards || s.edges[shard] != nil {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: duplicate or out-of-range shard %d", shard)
		}
		k := int(binary.LittleEndian.Uint32(f.Payload[:4]))
		if len(f.Payload) != 4+8*k {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: edge hello for shard %d: %d clients but %d payload bytes", shard, k, len(f.Payload))
		}
		e := &edgeConn{link: link{id: uint32(shard), conn: conn, alive: true}}
		for i := 0; i < k; i++ {
			off := 4 + 8*i
			e.clients = append(e.clients, treeClient{
				id:        binary.LittleEndian.Uint32(f.Payload[off : off+4]),
				trainSize: int(binary.LittleEndian.Uint32(f.Payload[off+4 : off+8])),
				shard:     shard,
			})
		}
		f.Release()
		sort.Slice(e.clients, func(i, j int) bool { return e.clients[i].id < e.clients[j].id })
		s.edges[shard] = e
		seen++
	}
	s.clients = s.clients[:0]
	for _, e := range s.edges {
		s.clients = append(s.clients, e.clients...)
		s.links = append(s.links, &e.link)
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

// shardSpan returns the half-open range of positions in the sorted
// selection that belong to shard sh, advancing from position lo.
func (s *TreeServer) shardSpan(selected []int, lo, sh int) (int, int) {
	hi := lo
	for hi < len(selected) && s.clients[selected[hi]].shard == sh {
		hi++
	}
	return lo, hi
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
	defer func() {
		for _, e := range s.edges {
			e.conn.Close()
		}
	}()
	tel := s.cfg.Tel
	algo.Wire(tel, agg)
	rng := newRng(s.cfg.Seed)
	selBuf := make([]byte, 0, 4*s.cfg.PerRound)
	for round := 0; round < s.cfg.Rounds; round++ {
		payload, selected := openRound(agg, tel, rng, round, len(s.clients), s.cfg.PerRound,
			func(i int) uint32 { return s.clients[i].id })
		roundStart := time.Now()

		// Fan the broadcast out: one pooled round-start per live edge,
		// carrying that shard's selection list and the model payload.
		awaiting := make([]bool, s.cfg.Shards)
		spans := make([][2]int, s.cfg.Shards)
		pos := 0
		for sh, e := range s.edges {
			lo, hi := s.shardSpan(selected, pos, sh)
			pos = hi
			spans[sh] = [2]int{lo, hi}
			n := hi - lo
			if n == 0 {
				continue
			}
			s.meter.AddDown(n * len(payload)) // client-facing broadcast volume
			if !e.alive {
				continue
			}
			selBuf = selBuf[:0]
			for p := lo; p < hi; p++ {
				var idb [4]byte
				binary.LittleEndian.PutUint32(idb[:], s.clients[selected[p]].id)
				selBuf = append(selBuf, idb[:]...)
			}
			joined := comm.JoinPayloads(selBuf, payload)
			f := Frame{Type: MsgRoundStart, Client: uint32(sh), Round: uint32(round), Payload: joined}
			if err := e.send(f, s.cfg.WriteTimeout); err != nil {
				s.errs.Inc()
				continue
			}
			s.meter.AddRelayDown(len(payload))
			awaiting[sh] = true
		}

		// Collect pooled shard payloads concurrently — NumShards reader
		// goroutines, not NumClients — and fold opportunistically behind a
		// shard cursor: shard k is processed (and its frame released) the
		// moment shards 0..k have all resolved, so the root holds frames
		// only for shards that arrive ahead of the cursor instead of one
		// per shard per round. Cursor order IS shard-ID order, so journal
		// events and the fold sequence are byte-identical to the buffered
		// pass, and the per-entry folds land in ascending client order —
		// zero staging.
		type result struct {
			shard int
			frame Frame
			err   error
		}
		results := make(chan result, s.cfg.Shards)
		inflight := 0
		for sh, e := range s.edges {
			if !awaiting[sh] {
				continue
			}
			inflight++
			if s.cfg.StragglerTimeout > 0 {
				e.conn.SetReadDeadline(time.Now().Add(s.cfg.StragglerTimeout))
			}
			go func(sh int, e *edgeConn) {
				f, err := ReadFrame(e.conn)
				results <- result{shard: sh, frame: f, err: err}
			}(sh, e)
		}
		frames := make([]*Frame, s.cfg.Shards)
		resolved := make([]bool, s.cfg.Shards)
		for sh := range s.edges {
			if !awaiting[sh] {
				resolved[sh] = true // empty shard, dead edge or failed write
			}
		}
		collected := 0
		var entries []algo.Upload
		processShard := func(sh int) {
			lo, hi := spans[sh][0], spans[sh][1]
			n := hi - lo
			if n == 0 {
				return
			}
			if frames[sh] == nil {
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
			entries, err = algo.ShardEntries(entries[:0], frames[sh].Payload)
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
			s.meter.AddRelayUp(len(frames[sh].Payload))
			tel.Emit(telemetry.ShardPush(round, sh, len(kept), int64(len(frames[sh].Payload))))
			algo.CollectAll(agg, round, kept)
			collected += len(kept)
			frames[sh].Release()
			frames[sh] = nil
		}
		nextShard := 0
		processUpTo := func() {
			for nextShard < s.cfg.Shards && resolved[nextShard] {
				processShard(nextShard)
				nextShard++
			}
		}
		processUpTo()
		for ; inflight > 0; inflight-- {
			r := <-results
			e := s.edges[r.shard]
			switch {
			case r.err != nil:
				var ne net.Error
				if !errors.As(r.err, &ne) || !ne.Timeout() {
					s.errs.Inc()
				}
				e.markDead()
			case r.frame.Type != MsgShardUpdate || int(r.frame.Round) != round || int(r.frame.Client) != r.shard:
				s.errs.Inc()
				e.markDead()
				r.frame.Release()
			default:
				e.conn.SetReadDeadline(time.Time{})
				f := r.frame
				frames[r.shard] = &f
			}
			resolved[r.shard] = true
			processUpTo()
		}
		if err := closeRound(agg, tel, round, collected, s.meter.Up(), s.meter.Down(), s.links); err != nil {
			return err
		}
	}

	final := agg.Final()
	shutdown(s.links, nil, final, s.cfg.WriteTimeout, s.cfg.StragglerTimeout, func(i int, err error) {
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
	// StragglerTimeout bounds the wait for one client's upload; a
	// straggler is omitted from the pooled shard payload (the root
	// records the drop). It also bounds the drain that follows the final
	// model (see shutdown). Zero waits forever.
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
func (e *Edge) Run() error {
	defer e.ln.Close()
	for len(e.clients) < e.cfg.Clients {
		conn, err := e.ln.Accept()
		if err != nil {
			return fmt.Errorf("flnet: edge %d accept: %w", e.cfg.Shard, err)
		}
		if e.cfg.HelloTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(e.cfg.HelloTimeout))
		}
		f, err := ReadFrame(conn)
		if err != nil || f.Type != MsgHello || len(f.Payload) < 4 {
			conn.Close()
			f.Release()
			return fmt.Errorf("flnet: edge %d: bad hello: %v", e.cfg.Shard, err)
		}
		conn.SetReadDeadline(time.Time{})
		e.clients = append(e.clients, &clientConn{
			link:      link{id: f.Client, conn: conn, alive: true},
			trainSize: int(binary.LittleEndian.Uint32(f.Payload)),
		})
		f.Release()
	}
	defer func() {
		for _, c := range e.clients {
			c.conn.Close()
		}
	}()
	sort.Slice(e.clients, func(i, j int) bool { return e.clients[i].id < e.clients[j].id })
	byID := make(map[uint32]*clientConn, len(e.clients))
	for _, c := range e.clients {
		byID[c.id] = c
	}

	root, err := net.DialTimeout("tcp", e.cfg.RootAddr, e.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("flnet: edge %d dial root: %w", e.cfg.Shard, err)
	}
	defer root.Close()
	hello := make([]byte, 4+8*len(e.clients))
	binary.LittleEndian.PutUint32(hello[:4], uint32(len(e.clients)))
	for i, c := range e.clients {
		off := 4 + 8*i
		binary.LittleEndian.PutUint32(hello[off:off+4], c.id)
		binary.LittleEndian.PutUint32(hello[off+4:off+8], uint32(c.trainSize))
	}
	if err := WriteFrame(root, Frame{Type: MsgEdgeHello, Client: e.cfg.Shard, Payload: hello}); err != nil {
		return fmt.Errorf("flnet: edge %d hello: %w", e.cfg.Shard, err)
	}

	var sb algo.ShardBuffer
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
			round := rf.Round
			// Forward the broadcast to each selected, live client.
			targets := make([]*clientConn, 0, len(sel)/4)
			for off := 0; off < len(sel); off += 4 {
				id := binary.LittleEndian.Uint32(sel[off : off+4])
				c := byID[id]
				if c == nil || !c.alive {
					e.Drops++
					if c != nil {
						c.drops++
					}
					targets = append(targets, nil)
					continue
				}
				if err := c.send(Frame{Type: MsgRoundStart, Client: id, Round: round, Payload: bcast}, e.cfg.WriteTimeout); err != nil {
					c.errs++
					c.drops++
					e.Drops++
					targets = append(targets, nil)
					continue
				}
				targets = append(targets, c)
			}
			// Collect uploads concurrently, pool sequentially in
			// selection order — the ShardBuffer IS the upstream wire
			// format, and its entry order is the fold order.
			type result struct {
				idx   int
				frame Frame
				err   error
			}
			results := make(chan result, len(targets))
			inflight := 0
			for i, c := range targets {
				if c == nil {
					continue
				}
				inflight++
				if e.cfg.StragglerTimeout > 0 {
					c.conn.SetReadDeadline(time.Now().Add(e.cfg.StragglerTimeout))
				}
				go func(i int, c *clientConn) {
					f, err := ReadFrame(c.conn)
					results <- result{idx: i, frame: f, err: err}
				}(i, c)
			}
			frames := make([]*Frame, len(targets))
			for ; inflight > 0; inflight-- {
				r := <-results
				c := targets[r.idx]
				switch {
				case r.err != nil:
					c.errs++
					c.drops++
					e.Drops++
					c.markDead()
				case r.frame.Type != MsgUpdate || r.frame.Round != round:
					c.errs++
					c.drops++
					e.Drops++
					c.markDead()
					r.frame.Release()
				default:
					c.conn.SetReadDeadline(time.Time{})
					f := r.frame
					frames[r.idx] = &f
				}
			}
			sb.Reset()
			for i, c := range targets {
				if c == nil || frames[i] == nil {
					continue
				}
				sb.Add(c.id, c.trainSize, frames[i].Payload)
				frames[i].Release()
			}
			rf.Release()
			if err := WriteFrame(root, Frame{Type: MsgShardUpdate, Client: e.cfg.Shard, Round: round, Payload: sb.Payload()}); err != nil {
				return fmt.Errorf("flnet: edge %d shard update: %w", e.cfg.Shard, err)
			}
		case MsgDone:
			shutdown(clientLinks(e.clients), nil, rf.Payload, e.cfg.WriteTimeout, e.cfg.StragglerTimeout, func(i int, err error) {
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
