package flnet

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// The downstream engine: what every server side does with the connections
// below it — the flat Server and an Edge with their clients, the TreeServer
// root with its edges. One operation, said once: deliver a frame to these
// links, obtain at most one reply from each before a deadline, kill or
// carry whoever still owes. A registrar (register), one reader per link
// that reads exactly what the link owes (serve), one gather. The flat
// Server and the root share the round around it too (runRounds, which
// folds every reply on arrival); an Edge keeps its own, pooling the
// replies for the root.

// link is one downstream connection: a client of the flat server or of an
// edge, an edge of the tree root.
type link struct {
	id    uint32 // client ID; shard ID for an edge
	conn  net.Conn
	alive bool

	// owes lists, oldest first, the rounds delivered to the link and not
	// yet answered. A peer answers its broadcasts in order, so the next
	// frame from the link must answer owes[0]. Only the serving goroutine
	// touches it.
	owes []uint32
	// permits holds one token per broadcast delivered: each entitles the
	// link's reader to read one frame.
	permits chan struct{}
}

// markDead closes the connection and excludes the peer from future
// traffic; its sampling slot stays occupied and counts drops.
func (l *link) markDead() {
	l.alive = false
	l.conn.Close()
}

// owesRound reports whether the newest reply the link owes is round's.
func (l *link) owesRound(round uint32) bool {
	n := len(l.owes)
	return n > 0 && l.owes[n-1] == round
}

// register accepts n peers on ln. Each must present, before timeout (zero
// waits forever), one frame of type hello with at most maxPayload payload
// bytes — bounded by what a hello can be, before any buffer is taken —
// that parse accepts; parse builds the caller's table entry around the
// link. On any failure every connection accepted so far is closed: a peer
// left open would wait for its first round forever.
func register(ln net.Listener, n int, hello uint8, maxPayload int, timeout time.Duration,
	parse func(l *link, payload []byte) error) (err error) {
	conns := make([]net.Conn, 0, n)
	defer func() {
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
		}
	}()
	for len(conns) < n {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("flnet: accept: %w", err)
		}
		conns = append(conns, conn)
		if timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(timeout))
		}
		f, err := readFrame(conn, uint32(frameBodyMin+maxPayload))
		if err == nil && f.Type != hello {
			err = fmt.Errorf("frame type %d, want %d", f.Type, hello)
		}
		if err == nil {
			err = parse(&link{id: f.Client, conn: conn, alive: true}, f.Payload)
		}
		f.Release()
		if err != nil {
			return fmt.Errorf("flnet: bad hello from %s: %w", conn.RemoteAddr(), err)
		}
		conn.SetReadDeadline(time.Time{})
	}
	return nil
}

// arrival is what a reader reports — one frame, or the read error that
// ended it — and what gather hands its caller, err then also naming why a
// link was lost; ci indexes the engine's links.
type arrival struct {
	ci    int
	frame Frame
	err   error
}

// errOverdue is the loss gather reports for a link killed because it still
// owed its reply at the round deadline: a drop, not a failure.
var errOverdue = errors.New("flnet: reply overdue at the round deadline")

// downstream is a server's registered links and their readers.
type downstream struct {
	links []*link
	reply uint8 // the frame type that answers a broadcast
	// straggler bounds a round's gather and the final drain, write each
	// frame written to a link; zero waits forever.
	straggler, write time.Duration

	ch       chan arrival
	awaiting int           // links delivered a broadcast since the last gather
	running  int           // readers that have not reported their terminal error
	gate     chan struct{} // closed by drain: readers stop waiting for permits
}

// serve starts the engine over registered links: one reader goroutine per
// link for the link's whole life. It reads exactly one frame per frame
// owed — a broadcast delivered is what entitles a link to one reply, so an
// unsolicited frame is never read, let alone buffered — and, once drain
// opens the gate, everything until the peer closes; its read error is the
// last thing it reports. (Why not park it in a read: DESIGN §11, it
// measured slower.) maxOwed is how many broadcasts a link can be delivered
// before answering the first: 1 where a link owing at the deadline is
// killed, the round count where it is carried.
func serve(links []*link, reply uint8, maxOwed int, straggler, write time.Duration) *downstream {
	d := &downstream{
		links: links, reply: reply, straggler: straggler, write: write,
		// One reply and the terminal error per link: while links are
		// killed at the deadline no reader ever blocks on it, and a
		// carried backlog beyond that merely backpressures its reader.
		ch:      make(chan arrival, 2*len(links)),
		running: len(links),
		gate:    make(chan struct{}),
	}
	for i, l := range links {
		l.permits = make(chan struct{}, maxOwed)
		go func() {
			for {
				select {
				case <-l.permits:
				case <-d.gate:
				}
				f, err := ReadFrame(l.conn)
				d.ch <- arrival{ci: i, frame: f, err: err}
				if err != nil {
					return
				}
			}
		}()
	}
	return d
}

// deliver writes a round's broadcast to link i under the write deadline. A
// failed write kills the link; a delivered one makes it owe f.Round's
// reply.
func (d *downstream) deliver(i int, f Frame) error {
	l := d.links[i]
	if err := l.send(f, d.write); err != nil {
		return err
	}
	l.owes = append(l.owes, f.Round)
	d.awaiting++
	l.permits <- struct{}{}
	return nil
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

// owed reports whether a's frame is the reply its link owes next — right
// type, the link's own ID, the oldest round outstanding — and takes it off
// what the link owes. Anything else is a protocol violation: a duplicate,
// a wrong round, a frame nobody asked for.
func (d *downstream) owed(a arrival) bool {
	l, f := d.links[a.ci], a.frame
	if f.Type != d.reply || f.Client != l.id || len(l.owes) == 0 || f.Round != l.owes[0] {
		return false
	}
	l.owes = l.owes[:copy(l.owes, l.owes[1:])]
	return true
}

// gather collects the replies to round's broadcast until want of them have
// arrived on time, nobody is left to wait for, or the straggler deadline.
// Two values say what kind of round it is: want — the quorum of a buffered
// round, zero for every awaited reply — and carry — whether a link still
// owing at the deadline is killed (lost to errOverdue) or carried, its
// reply then arriving in a later gather as a late one (frame.Round <
// round). settle sees each arrival that changes anything: a valid reply,
// whose frame it owns and must Release, or err set for a link lost to a
// read failure, a protocol violation or the deadline — dead by then, and
// want shrunk to what can still arrive. gather reports how many replies
// were on time and whether that met want.
func (d *downstream) gather(round uint32, want int, carry bool, settle func(a arrival)) (onTime int, met bool) {
	awaiting := d.awaiting
	d.awaiting = 0
	if want <= 0 || want > awaiting {
		want = awaiting
	}
	lose := func(i int, err error) {
		l := d.links[i]
		l.markDead()
		if l.owesRound(round) {
			awaiting--
			want = min(want, onTime+awaiting)
		}
		l.owes = l.owes[:0]
		settle(arrival{ci: i, err: err})
	}
	deadline, stop := after(d.straggler)
	defer stop()
	for onTime < want {
		select {
		case a := <-d.ch:
			l := d.links[a.ci]
			switch {
			case a.err != nil:
				d.running--
				if l.alive { // else the terminal error of a connection we closed
					lose(a.ci, a.err)
				}
			case !l.alive: // read just before its link was killed
				a.frame.Release()
			case !d.owed(a):
				a.frame.Release()
				lose(a.ci, fmt.Errorf("flnet: link %d: unexpected frame (type %d, round %d)", l.id, a.frame.Type, a.frame.Round))
			default:
				if a.frame.Round == round {
					onTime++
					awaiting--
				}
				settle(a)
			}
		case <-deadline:
			if !carry {
				for i, l := range d.links {
					if l.alive && l.owesRound(round) {
						lose(i, errOverdue)
					}
				}
			}
			return onTime, false
		}
	}
	return onTime, want > 0
}

// shutdown is the last step of the protocol: send the final model to each
// live link as MsgDone (sent reports each write's outcome), then drain —
// keep reading whatever a carried straggler still uploads (postFinal owns
// each such reply) until every peer has closed its end or the straggler
// timeout elapses. Only then may the connections close: closing with an
// upload unread would reset the connection under the straggler and
// destroy the MsgDone it has not read yet.
func (d *downstream) shutdown(final []byte, sent func(i int, err error), postFinal func(a arrival)) {
	for i, l := range d.links {
		if l.alive {
			sent(i, l.send(Frame{Type: MsgDone, Client: l.id, Payload: final}, d.write))
		}
	}
	d.drain(d.straggler, postFinal)
}

// drain opens the readers' gate and consumes arrivals until every reader
// has exited; when patience (zero waits) runs out it closes the
// connections, which fails every pending read.
func (d *downstream) drain(patience time.Duration, postFinal func(a arrival)) {
	if d.running == 0 {
		return // every reader has exited, by an earlier drain or its link's death
	}
	close(d.gate)
	deadline, stop := after(patience)
	defer stop()
	for d.running > 0 {
		select {
		case a := <-d.ch:
			switch {
			case a.err != nil:
				d.running--
			case postFinal != nil && d.links[a.ci].alive && d.owed(a):
				postFinal(a)
			default:
				a.frame.Release()
			}
		case <-deadline:
			d.closeConns()
			deadline = nil
		}
	}
}

// after is time.After for a timeout of which zero waits forever; stop
// releases the timer.
func after(timeout time.Duration) (c <-chan time.Time, stop func() bool) {
	if timeout <= 0 {
		return nil, func() bool { return false }
	}
	t := time.NewTimer(timeout)
	return t.C, t.Stop
}

func (d *downstream) closeConns() {
	for _, l := range d.links {
		l.conn.Close()
	}
}

// close ends the engine on every path out of a server's Run: the
// connections close and every reader has exited when it returns.
func (d *downstream) close() {
	d.closeConns()
	d.drain(0, nil)
}
