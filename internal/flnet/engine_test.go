package flnet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"spatl/internal/algo"
	"spatl/internal/comm"
	"spatl/internal/fl"
	"spatl/internal/models"
	"spatl/internal/telemetry"
)

// relay is a loopback forwarder in front of target: whoever dials addr is
// piped to target, and each connection the relay has established to target
// is announced on dialed. A test that must control the order in which
// RunClient or Edge.Run connections reach a server's accept queue — both
// dial internally — routes them through one and waits on dialed.
func relay(t *testing.T, target string) (addr string, dialed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 16) // more than any test relays
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				return
			}
			ch <- struct{}{}
			go func() { io.Copy(up, down); up.Close() }()
			go func() { io.Copy(down, up); down.Close() }()
		}
	}()
	return ln.Addr().String(), ch
}

// within fails the test unless wait returns before a generous bound: the
// bugs these tests pin show up as a party blocked forever.
func within(t *testing.T, what string, wait func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s still blocked after 20s", what)
	}
}

// idleTrainer is the trainer of a client whose federation never starts.
type idleTrainer struct{}

func (idleTrainer) LocalUpdate(int, []byte) []byte { return nil }
func (idleTrainer) Finish([]byte)                  {}

// TestRegistrationFailureClosesAccepted: two good hellos, then a malformed
// one. Run must fail AND close the two connections it had already
// accepted — RunClient has no read deadline, so a registered client the
// server walks away from would wait for its first round forever. The same
// at the tree root, for edges and, through them, their clients.
func TestRegistrationFailureClosesAccepted(t *testing.T) {
	global := func() *models.SplitModel {
		return models.Build(models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 2, W: 2}, 1)
	}
	t.Run("server", func(t *testing.T) {
		srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 3, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		runErr := make(chan error, 1)
		go func() { runErr <- srv.Run(algo.NewFedAvgAggregator(global(), algo.Config{NumClients: 3})) }()
		via, dialed := relay(t, srv.Addr())
		clientErrs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func(i int) { clientErrs <- RunClient(via, uint32(i), 10, idleTrainer{}) }(i)
			<-dialed // in the server's accept queue before the next peer connects
		}
		bad, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer bad.Close()
		if err := WriteFrame(bad, Frame{Type: MsgUpdate, Client: 2}); err != nil {
			t.Fatal(err)
		}
		within(t, "Run", func() {
			if err := <-runErr; err == nil {
				t.Error("Run must fail on the malformed third hello")
			}
		})
		within(t, "the registered clients", func() {
			for i := 0; i < 2; i++ {
				if err := <-clientErrs; err == nil {
					t.Error("a registered client returned nil from a federation that never started")
				}
			}
		})
	})
	t.Run("root", func(t *testing.T) {
		root, err := NewTreeServer(TreeServerConfig{Addr: "127.0.0.1:0", Shards: 3, Clients: 3, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		runErr := make(chan error, 1)
		go func() { runErr <- root.Run(algo.NewFedAvgAggregator(global(), algo.Config{NumClients: 3})) }()
		via, dialed := relay(t, root.Addr())
		partyErrs := make(chan error, 4) // two edges, one client each
		for sh := 0; sh < 2; sh++ {
			edge, err := NewEdge(EdgeConfig{Addr: "127.0.0.1:0", Clients: 1, RootAddr: via, Shard: uint32(sh)})
			if err != nil {
				t.Fatal(err)
			}
			go func() { partyErrs <- edge.Run() }()
			go func(sh int) { partyErrs <- RunClient(edge.Addr(), uint32(sh), 10, idleTrainer{}) }(sh)
			<-dialed
		}
		bad, err := net.Dial("tcp", root.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer bad.Close()
		// A hello whose client count does not match its length.
		if err := WriteFrame(bad, Frame{Type: MsgEdgeHello, Client: 2, Payload: []byte{9, 0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
		within(t, "Run", func() {
			if err := <-runErr; err == nil {
				t.Error("Run must fail on the malformed third edge hello")
			}
		})
		within(t, "the registered edges and their clients", func() {
			for i := 0; i < 4; i++ {
				if err := <-partyErrs; err == nil {
					t.Error("a registered party returned nil from a federation that never started")
				}
			}
		})
	})
}

// absentTrainer makes a client absent from the in-process reference for
// the rounds absent names: Sim treats a nil upload as a lost contribution.
type absentTrainer struct {
	Trainer
	absent func(round int) bool
}

func (a *absentTrainer) LocalUpdate(round int, payload []byte) []byte {
	if a.absent(round) {
		return nil
	}
	return a.Trainer.LocalUpdate(round, payload)
}

// federation is the seeded FedAvg federation the engine tests run, over
// TCP and — as the reference — in process.
type federation struct {
	spec    models.Spec
	cd      []fl.ClientData
	cfg     algo.Config
	seed    int64
	clients int
	rounds  int
}

func newFederation(t *testing.T, clients, rounds int, seed int64) federation {
	spec, cd, cfg := treeFixture(t, clients, seed)
	return federation{spec: spec, cd: cd, cfg: cfg, seed: seed, clients: clients, rounds: rounds}
}

// global and trainer build the TCP side's models the way fl.NewEnv builds
// the simulation's.
func (fx federation) global() *models.SplitModel { return models.Build(fx.spec, fx.seed) }

func (fx federation) trainer(i int) Trainer {
	m := models.Build(fx.spec, fx.seed+int64(1000+i))
	m.SetState(models.ScopeAll, fx.global().State(models.ScopeAll))
	return algo.NewFedAvgTrainer(&algo.Client{ID: i, Train: fx.cd[i].Train, Val: fx.cd[i].Val, Model: m}, fx.cfg)
}

// simulate is the in-process reference: full participation over shards
// (0 = flat), with client c absent from round r on whenever absent(r, c).
func (fx federation) simulate(shards int, absent func(round, client int) bool) []float32 {
	env := fl.NewEnv(fx.spec, fl.Config{
		NumClients: fx.clients, SampleRatio: 1, LocalEpochs: fx.cfg.LocalEpochs,
		BatchSize: fx.cfg.BatchSize, LR: fx.cfg.LR, Momentum: fx.cfg.Momentum, Seed: fx.seed,
	}, fx.cd)
	cfg := env.AlgoConfig()
	trainers := make([]algo.Trainer, fx.clients)
	all := make([]int, fx.clients)
	for i, c := range env.Clients {
		i := i
		trainers[i] = &absentTrainer{Trainer: algo.NewFedAvgTrainer(c, cfg), absent: func(r int) bool { return absent(r, i) }}
		all[i] = i
	}
	env.Topo = fl.Topology{Shards: shards}
	sim := fl.NewSim(env, algo.NewFedAvgAggregator(env.Global, cfg), trainers)
	for r := 0; r < fx.rounds; r++ {
		sim.Round(r, all)
	}
	return env.Global.State(models.ScopeAll)
}

func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: state length %d vs %d", what, len(want), len(got))
	}
	for j := range want {
		if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
			t.Fatalf("%s: state[%d] differs bitwise: %x vs %x", what, j, math.Float32bits(want[j]), math.Float32bits(got[j]))
		}
	}
}

// violation is one way a scripted peer breaks the protocol.
type violation int

const (
	duplicate   violation = iota // answers round `at` twice
	wrongRound                   // answers round `at` with another round's number
	wrongType                    // answers round `at` with a frame that is no reply
	unsolicited                  // sends a frame right after its hello, owing nothing
	wellFramed                   // frames every reply correctly; its content may still be wrong
)

// misbehave is a scripted downstream peer — a client when replyType is
// MsgUpdate, an edge when it is MsgShardUpdate. It registers with hello
// and answers every broadcast honestly (reply computes the payload),
// except for the one violation; then it keeps reading until the server
// hangs up on it. Nothing in it waits on a clock.
func misbehave(t *testing.T, addr string, hello Frame, replyType uint8, kind violation, at uint32, reply func(start Frame) []byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	if err := WriteFrame(conn, hello); err != nil {
		t.Error(err)
		return
	}
	if kind == unsolicited {
		WriteFrame(conn, Frame{Type: replyType, Client: hello.Client, Round: 99})
	}
	for {
		start, err := ReadFrame(conn)
		if err != nil {
			return // the server killed the link
		}
		if start.Type == MsgDone && kind == wellFramed {
			start.Release()
			return // a peer that broke no framing is sent the final model
		}
		if start.Type != MsgRoundStart {
			t.Errorf("peer %d was sent frame type %d after its violation", hello.Client, start.Type)
			start.Release()
			return
		}
		out := Frame{Type: replyType, Client: hello.Client, Round: start.Round, Payload: reply(start)}
		start.Release()
		violate := out.Round == at
		switch {
		case violate && kind == wrongRound:
			out.Round += 7
		case violate && kind == wrongType:
			out.Type = MsgRoundStart
		}
		if WriteFrame(conn, out) != nil {
			return
		}
		if violate && kind == duplicate && WriteFrame(conn, out) != nil {
			return
		}
	}
}

func clientHello(id uint32, trainSize int) Frame {
	p := binary.LittleEndian.AppendUint32(nil, uint32(trainSize))
	return Frame{Type: MsgHello, Client: id, Payload: p}
}

// TestProtocolViolations drives every server side of the one engine —
// flat synchronous, flat at quorum, the tree root, an edge — against a
// peer that breaks the protocol once: a duplicate same-round reply, a
// wrong-round reply, a wrong frame type, a frame from a link that owes
// nothing. Each time the link must end dead with exactly one error
// counted, the round must close, and the final model must be bitwise the
// in-process run with the same absence set — which also proves no
// contribution folded twice.
func TestProtocolViolations(t *testing.T) {
	const (
		clients  = 4
		shards   = 2
		rounds   = 3
		seed     = 67
		at       = 1 // the round the peer violates in
		bad      = 1 // the scripted client
		badShard = 0 // the scripted edge: clients 0 and 1
	)
	fx := newFederation(t, clients, rounds, seed)
	violations := []struct {
		name string
		kind violation
		dead int // first round the peer's contribution is lost
	}{
		// The duplicate sits unread until the link next owes a reply.
		{"duplicate", duplicate, at + 1},
		{"wrong round", wrongRound, at},
		{"wrong type", wrongType, at},
		// Unread until round 0 makes the link owe; then it is not round 0's reply.
		{"owes nothing", unsolicited, 0},
	}
	badClient := func(addr string, kind violation) {
		tr := fx.trainer(bad)
		misbehave(t, addr, clientHello(bad, fx.cd[bad].Train.Len()), MsgUpdate, kind, at, func(start Frame) []byte {
			return tr.LocalUpdate(int(start.Round), start.Payload)
		})
	}
	goodClients := func(wg *sync.WaitGroup, addr string, ids ...int) {
		for _, i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := RunClient(addr, uint32(i), fx.cd[i].Train.Len(), fx.trainer(i)); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}(i)
		}
	}
	newTel := func() *telemetry.Set { return telemetry.New(io.Discard) }

	flat := func(quorum int) func(t *testing.T, kind violation, dead int) []float32 {
		return func(t *testing.T, kind violation, dead int) []float32 {
			tel := newTel()
			srv, err := NewServer(ServerConfig{
				Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: seed,
				Quorum: quorum, StragglerTimeout: 30 * time.Second, Tel: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			global := fx.global()
			var wg sync.WaitGroup
			goodClients(&wg, srv.Addr(), 0, 2, 3)
			wg.Add(1)
			go func() { defer wg.Done(); badClient(srv.Addr(), kind) }()
			if err := srv.Run(algo.NewFedAvgAggregator(global, fx.cfg)); err != nil {
				t.Fatalf("server: %v", err)
			}
			wg.Wait()
			if got := tel.Reg.Snapshot().Counters["flnet.errors"]; got != 1 {
				t.Errorf("flnet.errors = %d, want exactly 1", got)
			}
			if srv.LateUploads() != 0 || srv.PostFinalUploads() != 0 {
				t.Errorf("late %d, post-final %d uploads; a violation is neither", srv.LateUploads(), srv.PostFinalUploads())
			}
			for _, st := range srv.ClientStats() {
				switch {
				case st.ID == bad && (st.Alive || st.Errors != 1 || st.Drops != rounds-dead):
					t.Errorf("violator ended %+v, want dead, 1 error, %d drops", st, rounds-dead)
				case st.ID != bad && (!st.Alive || st.Errors != 0 || st.Drops != 0):
					t.Errorf("honest client penalized: %+v", st)
				}
			}
			return global.State(models.ScopeAll)
		}
	}

	// tree runs a root over two edges. scriptedEdge, when set, replaces
	// the bad shard's edge with a misbehaving one that trains its clients
	// in process; otherwise both edges are real and client `bad` is the
	// scripted peer behind its edge.
	tree := func(scriptedEdge bool) func(t *testing.T, kind violation, dead int) []float32 {
		return func(t *testing.T, kind violation, dead int) []float32 {
			tel := newTel()
			root, err := NewTreeServer(TreeServerConfig{
				Addr: "127.0.0.1:0", Shards: shards, Clients: clients, Rounds: rounds, Seed: seed,
				StragglerTimeout: 30 * time.Second, Tel: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			global := fx.global()
			var wg sync.WaitGroup
			edges := make([]*Edge, shards)
			for sh := 0; sh < shards; sh++ {
				lo, hi := algo.ShardRange(sh, clients, shards)
				if scriptedEdge && sh == badShard {
					trainers := map[uint32]Trainer{}
					hello := binary.LittleEndian.AppendUint32(nil, uint32(hi-lo))
					for i := lo; i < hi; i++ {
						trainers[uint32(i)] = fx.trainer(i)
						hello = binary.LittleEndian.AppendUint32(hello, uint32(i))
						hello = binary.LittleEndian.AppendUint32(hello, uint32(fx.cd[i].Train.Len()))
					}
					var sb algo.ShardBuffer
					wg.Add(1)
					go func() {
						defer wg.Done()
						misbehave(t, root.Addr(), Frame{Type: MsgEdgeHello, Client: badShard, Payload: hello}, MsgShardUpdate, kind, at,
							func(start Frame) []byte {
								parts, err := comm.SplitPayloads(start.Payload)
								if err != nil || len(parts) != 2 {
									t.Errorf("scripted edge: malformed round start: %v", err)
									return nil
								}
								sb.Reset()
								for off := 0; off < len(parts[0]); off += 4 {
									id := binary.LittleEndian.Uint32(parts[0][off:])
									sb.Add(id, fx.cd[id].Train.Len(), trainers[id].LocalUpdate(int(start.Round), parts[1]))
								}
								return sb.Payload()
							})
					}()
					continue
				}
				edge, err := NewEdge(EdgeConfig{
					Addr: "127.0.0.1:0", Clients: hi - lo, RootAddr: root.Addr(), Shard: uint32(sh),
					StragglerTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				edges[sh] = edge
				wg.Add(1)
				go func(sh int) {
					defer wg.Done()
					if err := edge.Run(); err != nil {
						t.Errorf("edge %d: %v", sh, err)
					}
				}(sh)
				for i := lo; i < hi; i++ {
					if !scriptedEdge && i == bad {
						wg.Add(1)
						go func() { defer wg.Done(); badClient(edge.Addr(), kind) }()
					} else {
						goodClients(&wg, edge.Addr(), i)
					}
				}
			}
			if err := root.Run(algo.NewFedAvgAggregator(global, fx.cfg)); err != nil {
				t.Fatalf("root: %v", err)
			}
			wg.Wait()
			rootErrs := tel.Reg.Snapshot().Counters["flnet.errors"]
			if scriptedEdge {
				lo, hi := algo.ShardRange(badShard, clients, shards)
				if rootErrs != 1 || root.edges[badShard].alive {
					t.Errorf("root: flnet.errors = %d, violating edge alive = %v; want exactly 1 and dead", rootErrs, root.edges[badShard].alive)
				}
				if want := int64((hi - lo) * (rounds - dead)); root.ShardDrops(badShard) != want || root.Drops() != want {
					t.Errorf("shard %d drops = %d of %d total, want %d", badShard, root.ShardDrops(badShard), root.Drops(), want)
				}
			} else {
				// The violation is the edge's to count; the root only sees
				// the client missing from the pooled payload.
				if rootErrs != 0 || root.Drops() != int64(rounds-dead) {
					t.Errorf("root: flnet.errors = %d, drops = %d; want 0 and %d", rootErrs, root.Drops(), rounds-dead)
				}
				for _, e := range edges {
					for _, c := range e.clients {
						switch {
						case c.id == bad && (c.alive || c.errs != 1 || c.drops != rounds-dead):
							t.Errorf("violator ended alive=%v errs=%d drops=%d at its edge, want dead, 1, %d", c.alive, c.errs, c.drops, rounds-dead)
						case c.id != bad && (!c.alive || c.errs != 0 || c.drops != 0):
							t.Errorf("honest client %d penalized at its edge: alive=%v errs=%d drops=%d", c.id, c.alive, c.errs, c.drops)
						}
					}
				}
			}
			return global.State(models.ScopeAll)
		}
	}

	topologies := []struct {
		name   string
		shards int
		absent func(client int) bool // whose contributions the violation costs
		run    func(t *testing.T, kind violation, dead int) []float32
	}{
		{"flat sync", 0, func(c int) bool { return c == bad }, flat(0)},
		{"flat quorum", 0, func(c int) bool { return c == bad }, flat(clients)},
		{"root", shards, func(c int) bool { lo, hi := algo.ShardRange(badShard, clients, shards); return c >= lo && c < hi }, tree(true)},
		{"edge", shards, func(c int) bool { return c == bad }, tree(false)},
	}
	for _, topo := range topologies {
		for _, v := range violations {
			t.Run(topo.name+"/"+v.name, func(t *testing.T) {
				got := topo.run(t, v.kind, v.dead)
				want := fx.simulate(topo.shards, func(r, c int) bool { return r >= v.dead && topo.absent(c) })
				sameBits(t, "final model vs the in-process run with the same absence set", want, got)
			})
		}
	}
}

// TestQuorumOfAllIsSynchronous is what licenses one round loop for both
// kinds of round: a flat server with Quorum = PerRound and no stragglers
// is the synchronous server — bitwise the same final model, the same
// payload bytes up and down, and the same journal but for quorum_reached.
// (The TCP counterpart of fl's TestTopologyShardsTimesQuorum.)
func TestQuorumOfAllIsSynchronous(t *testing.T) {
	const (
		clients = 4
		rounds  = 3
		seed    = 29
	)
	fx := newFederation(t, clients, rounds, seed)
	run := func(perRound, quorum int) (state []float32, up, down int64, journal []byte) {
		var buf bytes.Buffer
		tel := telemetry.New(&buf)
		tel.Journal.SetZeroTime(true)
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, PerRound: perRound, Seed: seed,
			Quorum: quorum, Tel: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		global := fx.global()
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := RunClient(srv.Addr(), uint32(i), fx.cd[i].Train.Len(), fx.trainer(i)); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}(i)
		}
		if err := srv.Run(algo.NewFedAvgAggregator(global, fx.cfg)); err != nil {
			t.Fatalf("server: %v", err)
		}
		wg.Wait()
		if err := tel.Journal.Flush(); err != nil {
			t.Fatal(err)
		}
		if srv.Drops() != 0 || srv.Errors() != 0 || srv.LateUploads() != 0 {
			t.Fatalf("drops %d, errors %d, late %d in a healthy federation", srv.Drops(), srv.Errors(), srv.LateUploads())
		}
		return global.State(models.ScopeAll), srv.UpPayloadBytes, srv.DownPayloadBytes, buf.Bytes()
	}
	for _, perRound := range []int{clients, 2} { // full and sampled participation
		syncState, syncUp, syncDown, syncJournal := run(perRound, 0)
		qState, qUp, qDown, qJournal := run(perRound, perRound)
		sameBits(t, "Quorum = PerRound vs Quorum = 0", syncState, qState)
		if syncUp != qUp || syncDown != qDown {
			t.Fatalf("payload bytes differ: sync %d up %d down, quorum %d up %d down", syncUp, syncDown, qUp, qDown)
		}
		var kept [][]byte
		reached := 0
		for _, line := range bytes.SplitAfter(qJournal, []byte("\n")) {
			if bytes.Contains(line, []byte(`"ev":"quorum_reached"`)) {
				reached++
				continue
			}
			kept = append(kept, line)
		}
		if reached != rounds {
			t.Fatalf("%d quorum_reached events, want one per round (%d)", reached, rounds)
		}
		if !bytes.Equal(bytes.Join(kept, nil), syncJournal) {
			t.Fatalf("journals differ beyond quorum_reached:\nsync:\n%s\nquorum:\n%s", syncJournal, qJournal)
		}
	}
}

// TestRootReplyWalk pins the tree root's walk of a pooled shard reply
// against the span of the selection its edge owns. A scripted edge frames
// every reply correctly but, in one round, gets its content wrong: an entry
// for a client the root never selected, two entries out of selection order,
// a duplicated entry, a truncated ShardBuffer. Each costs the root exactly
// one error and no edge; a selected client the walk cannot match is
// journaled as a drop of that round, nothing is folded twice or for a
// client outside the selection, and the final model is bitwise the
// in-process run with the same absence set.
func TestRootReplyWalk(t *testing.T) {
	const (
		clients  = 4
		shards   = 2
		rounds   = 3
		seed     = 73
		at       = 1 // the round the edge's reply goes wrong in
		badShard = 0 // the scripted edge: clients 0 and 1
	)
	fx := newFederation(t, clients, rounds, seed)
	type entry struct {
		id  uint32
		src int // whose upload it carries, an index into the round's uploads
	}
	cases := []struct {
		name    string
		entries []entry // the reply in round at: client 0's upload is src 0, client 1's src 1
		cut     int     // bytes cut off the end of the reply
		absent  []int   // the selected clients the walk leaves unmatched
	}{
		{"unselected client", []entry{{0, 0}, {99, 0}, {1, 1}}, 0, []int{1}},
		{"out of order", []entry{{1, 1}, {0, 0}}, 0, []int{0}},
		{"duplicate", []entry{{0, 0}, {0, 0}, {1, 1}}, 0, []int{1}},
		{"truncated", []entry{{0, 0}, {1, 1}}, 5, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var journal bytes.Buffer
			tel := telemetry.New(&journal)
			tel.Journal.SetZeroTime(true)
			root, err := NewTreeServer(TreeServerConfig{
				Addr: "127.0.0.1:0", Shards: shards, Clients: clients, Rounds: rounds, Seed: seed,
				StragglerTimeout: 30 * time.Second, Tel: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			global := fx.global()
			var wg sync.WaitGroup
			for sh := 0; sh < shards; sh++ {
				lo, hi := algo.ShardRange(sh, clients, shards)
				if sh == badShard {
					trainers := map[uint32]Trainer{}
					hello := binary.LittleEndian.AppendUint32(nil, uint32(hi-lo))
					for i := lo; i < hi; i++ {
						trainers[uint32(i)] = fx.trainer(i)
						hello = binary.LittleEndian.AppendUint32(hello, uint32(i))
						hello = binary.LittleEndian.AppendUint32(hello, uint32(fx.cd[i].Train.Len()))
					}
					var sb algo.ShardBuffer
					wg.Add(1)
					go func() {
						defer wg.Done()
						misbehave(t, root.Addr(), Frame{Type: MsgEdgeHello, Client: badShard, Payload: hello}, MsgShardUpdate, wellFramed, at,
							func(start Frame) []byte {
								parts, err := comm.SplitPayloads(start.Payload)
								if err != nil || len(parts) != 2 {
									t.Errorf("scripted edge: malformed round start: %v", err)
									return nil
								}
								var ups [][]byte
								for off := 0; off < len(parts[0]); off += 4 {
									id := binary.LittleEndian.Uint32(parts[0][off:])
									ups = append(ups, append([]byte(nil), trainers[id].LocalUpdate(int(start.Round), parts[1])...))
								}
								sb.Reset()
								if start.Round != at {
									for i, up := range ups {
										sb.Add(uint32(lo+i), fx.cd[lo+i].Train.Len(), up)
									}
									return sb.Payload()
								}
								for _, e := range tc.entries {
									sb.Add(e.id, fx.cd[e.src].Train.Len(), ups[e.src])
								}
								return sb.Payload()[:len(sb.Payload())-tc.cut]
							})
					}()
					continue
				}
				edge, err := NewEdge(EdgeConfig{
					Addr: "127.0.0.1:0", Clients: hi - lo, RootAddr: root.Addr(), Shard: uint32(sh),
					StragglerTimeout: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := edge.Run(); err != nil {
						t.Errorf("edge %d: %v", sh, err)
					}
				}()
				for i := lo; i < hi; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := RunClient(edge.Addr(), uint32(i), fx.cd[i].Train.Len(), fx.trainer(i)); err != nil {
							t.Errorf("client %d: %v", i, err)
						}
					}()
				}
			}
			if err := root.Run(algo.NewFedAvgAggregator(global, fx.cfg)); err != nil {
				t.Fatalf("root: %v", err)
			}
			wg.Wait()
			if err := tel.Journal.Flush(); err != nil {
				t.Fatal(err)
			}

			if got := tel.Reg.Snapshot().Counters["flnet.errors"]; got != 1 {
				t.Errorf("flnet.errors = %d, want exactly 1", got)
			}
			want := int64(len(tc.absent))
			if root.Drops() != want || root.ShardDrops(badShard) != want {
				t.Errorf("drops = %d, shard %d drops = %d; want %d", root.Drops(), badShard, root.ShardDrops(badShard), want)
			}
			var drops []int
			for _, line := range bytes.Split(bytes.TrimSpace(journal.Bytes()), []byte("\n")) {
				var ev struct {
					Ev     string `json:"ev"`
					Round  int    `json:"round"`
					Client int    `json:"client"`
				}
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("journal line %q: %v", line, err)
				}
				if ev.Ev == telemetry.EvDrop {
					if ev.Round != at {
						t.Errorf("drop of client %d in round %d; only round %d's reply was wrong", ev.Client, ev.Round, at)
					}
					drops = append(drops, ev.Client)
				}
			}
			if !slices.Equal(drops, tc.absent) {
				t.Errorf("journaled drops of clients %v, want %v", drops, tc.absent)
			}
			absent := func(r, c int) bool { return r == at && slices.Contains(tc.absent, c) }
			sameBits(t, "final model vs the in-process run with the same absence set", fx.simulate(shards, absent), global.State(models.ScopeAll))
		})
	}
}

// PostFinalUploads reports how many uploads arrived after the last round
// had closed — the same counter the registry exposes as
// "flnet.post_final_uploads".
func (s *Server) PostFinalUploads() int64 { return s.postFinal.Value() }
