package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The round journal is the repo's flight recorder: one JSON object per
// federated lifecycle transition, newline-delimited, in the order the
// transitions were committed by the transport. Both transports
// (internal/fl in-process, internal/flnet TCP) emit the identical
// event sequence for an identical seeded run — events are emitted only
// from sequential transport code, never from inside parallel client
// regions — so with timestamps zeroed a journal is reproducible
// byte-for-byte and diffable across transports and runs.

// Event names, one per lifecycle transition.
const (
	EvRoundStart    = "round_start"       // server: broadcast built, round opened
	EvRoundEnd      = "round_end"         // server: round closed, cumulative traffic
	EvClientTrain   = "client_train"      // client: local update finished
	EvClientUpload  = "client_upload"     // server: one client's upload applied (client: upload sent)
	EvClientApply   = "client_apply"      // client: final model installed
	EvStraggler     = "straggler_timeout" // server: upload missed the straggler deadline
	EvDrop          = "drop"              // server: contribution lost (crash, I/O or protocol error)
	EvAggregate     = "aggregate"         // server: uploads folded into the global model
	EvEval          = "eval"              // harness: periodic accuracy evaluation
	EvShardPush     = "shard_push"        // edge: pooled shard payload forwarded upstream
	EvShardDrop     = "shard_drop"        // root: an entire shard's contribution was lost
	EvQuorum        = "quorum_reached"    // server: round closed at quorum K before the deadline
	EvLateUpload    = "late_upload"       // server: straggler upload folded into a later round
	EvMaskAgree     = "mask_agreement"    // server: SSFL global mask agreed, sparse epoch begins
	EvClusterAssign = "cluster_assign"    // server: hetero cluster (re-)assignment committed
)

// NoClient marks events that are not scoped to one client.
const NoClient = -1

// Event is one journal line. Every field is always serialized, in
// struct order, so lines decode into a fixed schema and two journals
// of the same run are comparable byte-for-byte.
type Event struct {
	TS     int64   `json:"ts"`     // unix nanoseconds; 0 in zero-time mode
	Ev     string  `json:"ev"`     // one of the Ev* names
	Round  int     `json:"round"`  // communication round, 0-based
	Client int     `json:"client"` // client ID, or NoClient
	Bytes  int64   `json:"bytes"`  // payload bytes moved by this event
	Up     int64   `json:"up"`     // cumulative uplink payload bytes (round_end)
	Down   int64   `json:"down"`   // cumulative downlink payload bytes (round_end)
	Dur    int64   `json:"dur_ns"` // phase duration; 0 in zero-time mode
	N      int     `json:"n"`      // generic count (selected clients, folded uploads)
	Acc    float64 `json:"acc"`    // accuracy (eval)
}

// RoundStart: the server opened round with n selected clients and a
// broadcast payload of the given size.
func RoundStart(round, n int, bytes int64) Event {
	return Event{Ev: EvRoundStart, Round: round, Client: NoClient, N: n, Bytes: bytes}
}

// RoundEnd: the round closed with the given cumulative uplink and
// downlink payload bytes.
func RoundEnd(round int, up, down int64) Event {
	return Event{Ev: EvRoundEnd, Round: round, Client: NoClient, Up: up, Down: down}
}

// ClientTrain: a client finished its local update (client-side event).
func ClientTrain(round, client int, durNS int64) Event {
	return Event{Ev: EvClientTrain, Round: round, Client: client, Dur: durNS}
}

// ClientUpload: one client's upload of the given size was accepted, in
// apply order (server side); durNS is broadcast-to-apply latency where
// the transport knows it.
func ClientUpload(round, client int, bytes, durNS int64) Event {
	return Event{Ev: EvClientUpload, Round: round, Client: client, Bytes: bytes, Dur: durNS}
}

// ClientApply: a client installed the final model (client-side event).
func ClientApply(round, client int, bytes int64) Event {
	return Event{Ev: EvClientApply, Round: round, Client: client, Bytes: bytes}
}

// Straggler: a selected client missed the straggler deadline.
func Straggler(round, client int) Event {
	return Event{Ev: EvStraggler, Round: round, Client: client}
}

// Drop: a selected client's contribution was lost this round.
func Drop(round, client int) Event {
	return Event{Ev: EvDrop, Round: round, Client: client}
}

// Aggregate: n uploads were folded into the global model.
func Aggregate(round, n int, durNS int64) Event {
	return Event{Ev: EvAggregate, Round: round, Client: NoClient, N: n, Dur: durNS}
}

// Eval: the harness measured mean accuracy after round.
func Eval(round int, acc float64) Event {
	return Event{Ev: EvEval, Round: round, Client: NoClient, Acc: acc}
}

// ShardPush: shard forwarded its pooled payload of n uploads upstream.
// The shard ID rides in the Client field (shards, like clients, are
// small dense integers — the fixed schema stays fixed).
func ShardPush(round, shard, n int, bytes int64) Event {
	return Event{Ev: EvShardPush, Round: round, Client: shard, N: n, Bytes: bytes}
}

// ShardDrop: an entire shard (its edge aggregator died or timed out)
// contributed nothing this round; n is the number of selected clients
// lost with it. Shard ID in the Client field, as in ShardPush.
func ShardDrop(round, shard, n int) Event {
	return Event{Ev: EvShardDrop, Round: round, Client: shard, N: n}
}

// Quorum: the round closed at quorum with n uploads folded, before the
// straggler deadline.
func Quorum(round, n int) Event {
	return Event{Ev: EvQuorum, Round: round, Client: NoClient, N: n}
}

// LateUpload: a straggler's upload from an earlier round was folded into
// round (FedBuff-style buffered aggregation); bytes is the payload size.
func LateUpload(round, client int, bytes int64) Event {
	return Event{Ev: EvLateUpload, Round: round, Client: client, Bytes: bytes}
}

// MaskAgreement: the server reduced client saliency scores into the
// global mask at the end of round; n is the number of salient state
// elements and bytes the values-only frame size each subsequent round
// will carry per payload. Emitted once per federation, from sequential
// aggregation code — it appears at the same journal position on every
// transport.
func MaskAgreement(round, n int, bytes int64) Event {
	return Event{Ev: EvMaskAgree, Round: round, Client: NoClient, N: n, Bytes: bytes}
}

// ClusterAssign: the hetero aggregator committed a cluster
// (re-)assignment at the end of round; one event per cluster, emitted
// in ascending cluster order from sequential aggregation code, so the
// block sits at the same journal position on every transport. The
// cluster ID rides in the Client field (clusters, like shards, are
// small dense integers — the fixed schema stays fixed); n is the
// cluster's member count.
func ClusterAssign(round, cluster, size int) Event {
	return Event{Ev: EvClusterAssign, Round: round, Client: cluster, N: size}
}

// Journal serializes events as JSONL. Emission takes a mutex — journal
// events are per-lifecycle-transition, tens per round, never
// per-parameter — and buffers writes, flushing at every round_end and
// on Flush/Close. A nil *Journal discards everything.
type Journal struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	zero   bool
	events Counter
	err    error
}

// NewJournal builds a journal writing to w. The caller owns closing
// any underlying file after Flush (or via Close).
func NewJournal(w io.Writer) *Journal {
	bw := bufio.NewWriterSize(w, 32<<10)
	return &Journal{bw: bw, enc: json.NewEncoder(bw)}
}

// SetZeroTime toggles zero-time mode: timestamps and durations are
// forced to zero on emit, making a seeded run's journal byte-identical
// across repetitions (the determinism tests' mode).
func (j *Journal) SetZeroTime(on bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.zero = on
	j.mu.Unlock()
}

// Bind exposes the journal's emitted-event count through reg as the
// counter "journal.events".
func (j *Journal) Bind(reg *Registry) {
	if j == nil {
		return
	}
	reg.Attach("journal.events", &j.events)
}

// Emit appends one event. Write errors are sticky (see Err); emission
// never panics or blocks the round loop on a broken sink.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	// The encoder takes the event's address, which moves it to the heap:
	// encode a copy made here, so that only a real journal pays.
	ev := e
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if j.zero {
		ev.TS, ev.Dur = 0, 0
	} else if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	if err := j.enc.Encode(&ev); err != nil {
		j.err = err
		return
	}
	j.events.Inc()
	if ev.Ev == EvRoundEnd {
		j.err = j.bw.Flush()
	}
}

// Events returns how many events have been emitted.
func (j *Journal) Events() int64 {
	if j == nil {
		return 0
	}
	return j.events.Value()
}

// Flush forces buffered events to the sink.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
