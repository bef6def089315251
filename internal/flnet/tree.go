package flnet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
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
// root handles NumShards connections instead of NumClients. It runs the
// flat server's round loop with edges as its peers: a reply covers the
// shard's span of the selection, and its entries fold on arrival, the
// aggregator's cursor restoring selection order whichever edge answers
// first — bitwise identical to the flat reduce (see internal/algo/shard.go
// for the contract).
//
// Topology invariant: every edge owns a contiguous range of the global
// client-ID order (shard 0 the lowest IDs, and so on). Because round
// selections are sorted ascending, a shard's clients are one contiguous
// span of the selection and shard-major order equals flat selection
// order, which is what makes the fold — and the journal event sequence —
// identical to the in-process sharded simulator.
//
// Edge aggregators emit no journal events; the root owns the journal.
// Client-facing traffic is metered in comm up/down exactly as the flat
// transports meter it, and the tree's own hop (pooled shard payloads
// up, broadcasts to edges down) is attributed to the meter's relay
// counters — so client-facing byte counts still match cross-transport.

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

// TreeServer is the root of a two-level aggregation tree: the flat
// server's round loop over edges instead of clients.
type TreeServer struct {
	serverCore
	edges []*link // by shard ID
}

// NewTreeServer starts listening (so edges can connect before Run).
func NewTreeServer(cfg TreeServerConfig) (*TreeServer, error) {
	s := &TreeServer{serverCore: serverCore{pooled: true}}
	reg, err := s.listen(ServerConfig{
		Addr: cfg.Addr, Clients: cfg.Clients, Rounds: cfg.Rounds, PerRound: cfg.PerRound, Seed: cfg.Seed,
		HelloTimeout: cfg.HelloTimeout, StragglerTimeout: cfg.StragglerTimeout, WriteTimeout: cfg.WriteTimeout,
		Tel: cfg.Tel,
	}, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s.edges = make([]*link, cfg.Shards)
	for i := range s.peerDrops {
		reg.Attach(fmt.Sprintf("flnet.shard.%d.drops", i), &s.peerDrops[i])
	}
	s.meter.Bind(reg, "comm")
	return s, nil
}

// ShardDrops reports dropped contributions attributed to one shard.
func (s *TreeServer) ShardDrops(shard int) int64 { return s.peerDrops[shard].Value() }

// Meter exposes the root's traffic meter (client-facing up/down plus
// the tree's relay counters).
func (s *TreeServer) Meter() *comm.Meter { return &s.meter }

// acceptEdges collects the edge registrations, in shard order whatever
// order they connect in, and starts the engine over them.
func (s *TreeServer) acceptEdges() error {
	// An edge hello lists at most every client of the federation.
	err := register(s.ln, len(s.edges), MsgEdgeHello, 4+8*s.cfg.Clients, s.cfg.HelloTimeout, func(l *link, payload []byte) error {
		shard := int(l.id)
		if shard >= len(s.edges) || s.edges[shard] != nil {
			return fmt.Errorf("duplicate or out-of-range shard %d", shard)
		}
		if len(payload) < 4 || uint64(len(payload)) != 4+8*uint64(binary.LittleEndian.Uint32(payload)) {
			return fmt.Errorf("shard %d: client count does not match %d payload bytes", shard, len(payload))
		}
		for off := 4; off < len(payload); off += 8 {
			s.clients = append(s.clients, member{
				id:        binary.LittleEndian.Uint32(payload[off : off+4]),
				trainSize: trainSizeOf(payload[off+4 : off+8]),
				peer:      shard,
			})
		}
		s.edges[shard] = l
		return nil
	})
	if err != nil {
		return err
	}
	// An edge still owing at the deadline is killed: one broadcast out at most.
	s.down = serve(s.edges, MsgShardUpdate, 1, s.cfg.StragglerTimeout, s.cfg.WriteTimeout)
	return nil
}

// buildClientTable lays the edges' clients out in global order — shard by
// shard, ascending ID within one — enforcing the contiguous-shard
// topology invariant: the IDs must then ascend globally.
func (s *TreeServer) buildClientTable() error {
	slices.SortFunc(s.clients, func(a, b member) int { return cmp.Or(a.peer-b.peer, cmp.Compare(a.id, b.id)) })
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
	return s.run(agg)
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

	root, err := net.DialTimeout("tcp", e.cfg.RootAddr, cmp.Or(e.cfg.DialTimeout, 30*time.Second))
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
			for off := 0; off < len(sel); off += 4 {
				id := binary.LittleEndian.Uint32(sel[off : off+4])
				ci, known := slices.BinarySearchFunc(e.clients, id, func(c *clientConn, id uint32) int { return cmp.Compare(c.id, id) })
				if !known {
					e.Drops++
				} else if c := e.clients[ci]; !c.alive {
					e.lose(c, false)
				} else if err := d.deliver(ci, Frame{Type: MsgRoundStart, Client: id, Round: rf.Round, Payload: bcast}); err != nil {
					e.lose(c, true)
				}
			}
			d.gather(rf.Round, 0, false, func(a arrival) {
				if a.err != nil {
					e.lose(e.clients[a.ci], true)
					return
				}
				frames[a.ci] = &a.frame
			})
			// Pool in selection order, which is client order (both ascend
			// by ID) — the ShardBuffer IS the upstream wire format, and its
			// entry order is the fold order.
			sb.Reset()
			for ci, f := range frames {
				if f != nil {
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
