package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"spatl/internal/algo"
	"spatl/internal/data"
	"spatl/internal/fl"
	"spatl/internal/models"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: MsgUpdate, Client: 7, Round: 42, Payload: []byte{1, 2, 3, 4, 5}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Client != in.Client || out.Round != in.Round {
		t.Fatalf("header mismatch: %+v", out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("payload mismatch")
	}
	out.Release()
	if out.Payload != nil {
		t.Fatal("Release must clear the payload view")
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgHello, Client: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != 0 {
		t.Fatalf("payload length %d", len(f.Payload))
	}
	f.Release()
}

// TestReadFrameMalformed sweeps hostile inputs through the frame parser:
// every case must error cleanly — no panic, no giant allocation.
func TestReadFrameMalformed(t *testing.T) {
	lenPrefix := func(n uint32, body ...byte) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], n)
		return append(b[:], body...)
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty input", nil},
		{"truncated length prefix", []byte{1, 2}},
		{"zero length", lenPrefix(0)},
		{"undersized frame (header needs 9)", lenPrefix(8, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"implausible length (4GiB)", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0}},
		{"length just over maxFrame", lenPrefix(maxFrame + 1)},
		{"truncated body", lenPrefix(20, 1, 2, 3)},
		{"header only, body missing", lenPrefix(9)},
	}
	for _, tc := range cases {
		if _, err := ReadFrame(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// A minimal header-only frame is valid: empty payload.
	f, err := ReadFrame(bytes.NewReader(lenPrefix(9, MsgHello, 1, 0, 0, 0, 2, 0, 0, 0)))
	if err != nil {
		t.Fatalf("minimal frame: %v", err)
	}
	if f.Type != MsgHello || f.Client != 1 || f.Round != 2 || len(f.Payload) != 0 {
		t.Fatalf("minimal frame decoded wrong: %+v", f)
	}
	f.Release()
}

// TestReadFrameAllocatesWhatArrives: a length prefix claiming the most a
// frame may hold, followed by 16 bytes and EOF, makes the reader take at
// most one frameChunk — not the gigabyte the prefix claims — and a body
// longer than a chunk, arriving in pieces, grows its buffer and reads back
// whole.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var hostile [4 + 16]byte
	binary.LittleEndian.PutUint32(hostile[:4], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(hostile[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a 16-byte body under a %d-byte prefix read as %v, want unexpected EOF", maxFrame, err)
	}
	const slack = 64 << 10 // the reader, the error and the runtime's own few objects
	if b := after.TotalAlloc - before.TotalAlloc; b > frameChunk+slack {
		t.Fatalf("16 bytes of body made the reader allocate %d bytes, at most one %d-byte chunk expected", b, frameChunk)
	}

	payload := make([]byte, 2*frameChunk+frameChunk/3)
	rand.New(rand.NewSource(3)).Read(payload)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgUpdate, Client: 5, Round: 8, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(iotest.HalfReader(&buf))
	if err != nil {
		t.Fatalf("a %d-byte frame read in pieces: %v", len(payload), err)
	}
	if f.Type != MsgUpdate || f.Client != 5 || f.Round != 8 || !bytes.Equal(f.Payload, payload) {
		t.Fatal("a frame longer than a chunk read back changed")
	}
	f.Release()
}

// TestFederationOverTCP runs a complete FedAvg federation over loopback
// TCP: one server, four client goroutines, three rounds — asserting the
// final model learns above chance and every client converges on the
// same final weights. The algorithm cores come from internal/algo, the
// same ones the in-process simulator drives.
func TestFederationOverTCP(t *testing.T) {
	const (
		clients = 4
		rounds  = 3
		classes = 4
	)
	spec := models.Spec{Arch: "mlp", Classes: classes, InC: 3, H: 8, W: 8, Width: 0.5}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 8, W: 8, Noise: 0.25}, clients*80, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 0.5, 10, rand.New(rand.NewSource(3)))

	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algo.Config{
		NumClients: clients, LocalEpochs: 2, BatchSize: 16,
		LR: 0.05, Momentum: 0.9, Seed: 5,
	}
	agg := algo.NewFedAvgAggregator(models.Build(spec, 5), cfg)

	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.Run(agg) }()

	var wg sync.WaitGroup
	trainers := make([]*algo.FedAvgTrainer, clients)
	clientErrs := make([]error, clients)
	for i := 0; i < clients; i++ {
		tr, va := ds.Subset(parts[i]).Split(0.8)
		trainers[i] = algo.NewFedAvgTrainer(&algo.Client{
			ID: i, Train: tr, Val: va, Model: models.Build(spec, 5),
		}, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(srv.Addr(), uint32(i), trainers[i].Client.Train.Len(), trainers[i])
		}(i)
	}
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Every client must hold the identical final model.
	for i := 1; i < clients; i++ {
		a, b := trainers[0].FinalModel, trainers[i].FinalModel
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("client %d final model missing or mis-sized", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("clients 0 and %d disagree on the final model", i)
			}
		}
	}
	// The federation must have learned something.
	var total float64
	for _, tr := range trainers {
		total += fl.EvalAccuracy(tr.Client.Model, tr.Client.Val, 32)
	}
	avg := total / clients
	if avg < 0.40 {
		t.Fatalf("federated accuracy %.3f after %d rounds over TCP; want > 0.40 (chance 0.25)", avg, rounds)
	}
	// Byte accounting moved in both directions, and frame headers are
	// included in the full-frame counters.
	if srv.UpBytes == 0 || srv.DownBytes == 0 {
		t.Fatal("server recorded no traffic")
	}
	if srv.UpBytes <= srv.UpPayloadBytes || srv.DownBytes <= srv.DownPayloadBytes {
		t.Fatal("full-frame counters must exceed payload-only counters")
	}
	// Exactly one header per frame: every client's hello and round uploads
	// up, its round broadcasts and the final model down.
	if want := srv.UpPayloadBytes + clients*(rounds+1)*frameHeaderLen + clients*helloLen; srv.UpBytes != want {
		t.Fatalf("uplink %d bytes, want %d: payloads, one header per frame and the hellos", srv.UpBytes, want)
	}
	if want := srv.DownPayloadBytes + clients*(rounds+1)*frameHeaderLen; srv.DownBytes != want {
		t.Fatalf("downlink %d bytes, want %d: payloads and one header per frame", srv.DownBytes, want)
	}
	// Nobody dropped in a healthy federation.
	for _, st := range srv.ClientStats() {
		if !st.Alive || st.Drops != 0 || st.Errors != 0 {
			t.Fatalf("healthy federation reported failures: %+v", st)
		}
	}
}

// TestStragglerTimeout stalls one of three clients mid-federation: the
// server must finish anyway, aggregating each round from the clients
// that reported, and the stall must show up in the per-client counters.
func TestStragglerTimeout(t *testing.T) {
	const (
		clients = 3
		rounds  = 2
		classes = 2
	)
	spec := models.Spec{Arch: "mlp", Classes: classes, InC: 3, H: 4, W: 4}
	ds := data.SynthCIFAR(data.SynthCIFARConfig{Classes: classes, H: 4, W: 4, Noise: 0.2}, clients*30, 1, 2)
	parts := data.DirichletPartition(ds.Y, classes, clients, 1.0, 5, rand.New(rand.NewSource(7)))

	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Clients: clients, Rounds: rounds, Seed: 4,
		StragglerTimeout: 3 * time.Second, WriteTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algo.Config{NumClients: clients, LocalEpochs: 1, BatchSize: 16, Seed: 9}
	agg := algo.NewFedAvgAggregator(models.Build(spec, 5), cfg)

	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.Run(agg) }()

	var wg sync.WaitGroup
	trainers := make([]*algo.FedAvgTrainer, clients-1)
	clientErrs := make([]error, clients-1)
	for i := 0; i < clients-1; i++ {
		tr, va := ds.Subset(parts[i]).Split(0.8)
		trainers[i] = algo.NewFedAvgTrainer(&algo.Client{
			ID: i, Train: tr, Val: va, Model: models.Build(spec, 5),
		}, cfg)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clientErrs[i] = RunClient(srv.Addr(), uint32(i), trainers[i].Client.Train.Len(), trainers[i])
		}(i)
	}
	// The straggler registers, then never answers a round start.
	stalled, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], 10)
	if err := WriteFrame(stalled, Frame{Type: MsgHello, Client: clients - 1, Payload: hello[:]}); err != nil {
		t.Fatal(err)
	}

	if err := <-serverErr; err != nil {
		t.Fatalf("server must survive a straggler, got: %v", err)
	}
	wg.Wait()
	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("healthy client %d: %v", i, err)
		}
	}
	if len(trainers[0].FinalModel) == 0 {
		t.Fatal("healthy clients must still receive the final model")
	}

	var straggler *ClientStats
	for _, st := range srv.ClientStats() {
		st := st
		if st.ID == clients-1 {
			straggler = &st
			continue
		}
		if !st.Alive || st.Drops != 0 {
			t.Fatalf("healthy client penalized: %+v", st)
		}
	}
	if straggler == nil {
		t.Fatal("straggler missing from stats")
	}
	if straggler.Alive {
		t.Fatal("straggler must be marked dead")
	}
	if straggler.Drops != rounds {
		t.Fatalf("straggler drops = %d, want %d (timed out round 0, dead round 1)", straggler.Drops, rounds)
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 0, Rounds: 1}); err == nil {
		t.Fatal("expected error for zero clients")
	}
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 1, Rounds: 0}); err == nil {
		t.Fatal("expected error for zero rounds")
	}
}

// TestServerRejectsBadHello: a registrar refuses what cannot be a hello —
// a frame of another type, and a length prefix beyond what a hello can be.
// The oversized peer sends the prefix and nothing else: the refusal must
// come from the four bytes alone, before any buffer is taken to hold a
// body that may never arrive.
func TestServerRejectsBadHello(t *testing.T) {
	global := models.Build(models.Spec{Arch: "mlp", Classes: 2, InC: 1, H: 2, W: 2}, 1)
	agg := func() Aggregator { return algo.NewFedAvgAggregator(global, algo.Config{NumClients: 1}) }
	var notHello bytes.Buffer
	if err := WriteFrame(&notHello, Frame{Type: MsgUpdate, Client: 1}); err != nil {
		t.Fatal(err)
	}
	prefix := func(payload int) []byte {
		return binary.LittleEndian.AppendUint32(nil, uint32(frameBodyMin+payload))
	}
	const clients = 3
	servers := []struct {
		name      string
		oversized []byte // one payload byte more than the largest hello
		start     func(t *testing.T) (addr string, run func() error)
	}{
		{"server", prefix(4 + 1), func(t *testing.T) (string, func() error) {
			srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Clients: 1, Rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			return srv.Addr(), func() error { return srv.Run(agg()) }
		}},
		{"root", prefix(4 + 8*clients + 1), func(t *testing.T) (string, func() error) {
			root, err := NewTreeServer(TreeServerConfig{Addr: "127.0.0.1:0", Shards: 1, Clients: clients, Rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			return root.Addr(), func() error { return root.Run(agg()) }
		}},
	}
	for _, sv := range servers {
		for _, tc := range []struct {
			name string
			sent []byte
		}{{"not a hello", notHello.Bytes()}, {"oversized prefix", sv.oversized}} {
			t.Run(sv.name+"/"+tc.name, func(t *testing.T) {
				addr, run := sv.start(t)
				done := make(chan error, 1)
				go func() { done <- run() }()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if _, err := conn.Write(tc.sent); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-done:
					if err == nil {
						t.Fatal("Run should reject a bad hello")
					}
				case <-time.After(20 * time.Second):
					t.Fatal("Run is still waiting on a frame that cannot be a hello")
				}
			})
		}
	}
}

// TestSamplePerm: the server's round draw is sorted and distinct, a
// PerRound above Clients draws every client, and a tree-sized draw into
// the last round's storage is the sorted prefix of rand.Perm from the
// same seed.
func TestSamplePerm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := algo.SampleSorted(nil, rng, 10, 4)
	if len(s) != 4 {
		t.Fatalf("len %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("not sorted/unique")
		}
	}
	var core serverCore
	if _, err := core.listen(ServerConfig{Addr: "127.0.0.1:0", Clients: 3, Rounds: 1, PerRound: 5}, 1); err != nil {
		t.Fatal(err)
	}
	core.ln.Close()
	if s = algo.SampleSorted(s, rng, core.cfg.Clients, core.cfg.PerRound); len(s) != 3 {
		t.Fatal("k>n must return all")
	}
	const n, k = 20000, 10000
	want := rand.New(rand.NewSource(2)).Perm(n)[:k]
	slices.Sort(want)
	if got := algo.SampleSorted(s, rand.New(rand.NewSource(2)), n, k); !slices.Equal(got, want) {
		t.Fatal("k = 10 000 of 20 000 is not the sorted prefix of rand.Perm from the same seed")
	}
}
