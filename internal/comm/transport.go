package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Party identifies one of the protocol's two participants.
type Party int

// The two parties of every protocol in this repository.
const (
	Alice Party = iota
	Bob
)

// String names the party for traces and error messages.
func (p Party) String() string {
	if p == Alice {
		return "Alice"
	}
	return "Bob"
}

// Sender returns the party transmitting in direction d.
func (d Direction) Sender() Party {
	if d == AliceToBob {
		return Alice
	}
	return Bob
}

// Receiver returns the party receiving in direction d.
func (d Direction) Receiver() Party {
	if d == AliceToBob {
		return Bob
	}
	return Alice
}

// Transport is the seam between protocol logic and message delivery. A
// protocol routes every exchanged byte through Send and Recv, and the
// transport records the paper's two complexity measures — payload bits
// per direction and rounds (maximal one-way blocks) — identically no
// matter how messages actually move:
//
//   - *Conn is the in-process simulation: both parties run interleaved
//     in one function, Send returns the payload to the receiver's code
//     directly, and Recv replays the pending message.
//   - *PairConn (from Pair) connects two party drivers running in the
//     same process: each driver holds one half and only its own data.
//   - *NetConn frames messages over any io.ReadWriter — a TCP socket, a
//     pipe — with a 4-byte length prefix. Accounting counts payload
//     bits only (framing is excluded), so a protocol's Cost is the same
//     over a socket as in the in-process simulation.
//
// Send and Recv panic on transport failure (wrapped in *TransportError)
// and on malformed use; party drivers convert those panics to errors at
// their boundary, mirroring how Message readers handle malformed
// payloads.
type Transport interface {
	// Send transmits msg in direction dir and returns it with the read
	// cursor rewound. On a two-sided transport (Conn, and PairConn
	// in-process delivery) the returned message is the receiver's view;
	// on a party-scoped transport only the sending party may call Send.
	Send(dir Direction, msg *Message) *Message
	// Recv returns the next message travelling in direction dir. Only
	// the receiving party of dir may call Recv on party-scoped
	// transports.
	//
	// The returned message's bytes are never reused or mutated by the
	// transport: a later Send or Recv on it writes to other memory, so a
	// receiver may keep a payload past the exchange — as a protocol state
	// keeps the round 1 it decoded, to recognise the same bytes on the
	// next query. On an in-process transport the bytes are the sender's,
	// which a sender must leave unchanged once sent.
	Recv(dir Direction) *Message
	// Stats returns the accumulated cost visible at this endpoint. For
	// all transports in this package every protocol message passes
	// through the endpoint, so Stats is the full execution cost.
	Stats() Stats
	// Trace returns the per-message log of the execution so far.
	Trace() []MessageInfo
}

// Compile-time interface checks.
var (
	_ Transport = (*Conn)(nil)
	_ Transport = (*PairConn)(nil)
	_ Transport = (*NetConn)(nil)
)

// TransportError wraps an I/O or peer failure surfaced by a Transport.
// Transports panic with it; party drivers recover it into an error.
type TransportError struct {
	// Op is the failed operation: "send" or "recv".
	Op string
	// Err is the underlying I/O or peer failure.
	Err error
}

// Error formats the failure with its operation.
func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: transport %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// tally is the accounting state shared by all transports: bits per
// direction, message count, round flips, and the per-message trace.
type tally struct {
	stats   Stats
	lastDir Direction
	started bool
	trace   []MessageInfo
}

// record accounts one message and returns the round it belongs to.
func (t *tally) record(dir Direction, bits int64, label string) int {
	if dir == AliceToBob {
		t.stats.BitsAliceToBob += bits
	} else {
		t.stats.BitsBobToAlice += bits
	}
	t.stats.Messages++
	if !t.started || t.lastDir != dir {
		t.stats.Rounds++
		t.lastDir = dir
		t.started = true
	}
	t.trace = append(t.trace, MessageInfo{
		Direction: dir,
		Bits:      bits,
		Round:     t.stats.Rounds,
		Label:     label,
	})
	return t.stats.Rounds
}

// MaxFrame is the largest frame WriteFrame emits and ReadFrame accepts:
// a corrupt or hostile length prefix cannot demand unbounded memory.
const MaxFrame = 1 << 30

// WriteFrame writes msg's payload with a 4-byte big-endian length
// prefix and returns the number of bytes written including framing.
func WriteFrame(w io.Writer, msg *Message) (int, error) {
	payload := msg.Bytes()
	if len(payload) > MaxFrame {
		return 0, fmt.Errorf("comm: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(payload)
	return n + 4, err
}

// ReadFrame reads one frame written by WriteFrame.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("comm: reading frame header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > MaxFrame {
		return nil, fmt.Errorf("comm: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("comm: reading frame payload: %w", err)
	}
	return FromBytes(payload), nil
}

// NetConn is one party's endpoint of a two-party connection over a real
// byte stream (net.Conn, net.Pipe, …). Messages are framed with a
// 4-byte length prefix; accounting counts payload bits only, so Stats
// match the in-process simulation exactly for the same protocol run.
//
// A NetConn belongs to a single protocol execution driven by one
// goroutine; it is not safe for concurrent use.
type NetConn struct {
	party Party
	rw    io.ReadWriter
	tally
	wireBytes int64
}

// NewNetConn returns party's endpoint over rw. The peer must hold a
// NetConn for the opposite party over the other end of the stream.
func NewNetConn(party Party, rw io.ReadWriter) *NetConn {
	return &NetConn{party: party, rw: rw}
}

// Party returns which side of the protocol this endpoint drives.
func (c *NetConn) Party() Party { return c.party }

// Send frames msg onto the wire. Only the sending party of dir may call
// it; transport failures panic with *TransportError.
func (c *NetConn) Send(dir Direction, msg *Message) *Message {
	if dir.Sender() != c.party {
		panic(fmt.Sprintf("comm: %v cannot send in direction %v", c.party, dir))
	}
	n, err := WriteFrame(c.rw, msg)
	if err != nil {
		panic(&TransportError{Op: "send", Err: err})
	}
	c.record(dir, int64(len(msg.Bytes()))*8, msg.Label)
	c.wireBytes += int64(n)
	msg.pos = 0
	return msg
}

// Recv reads the next frame off the wire. Only the receiving party of
// dir may call it; transport failures panic with *TransportError.
func (c *NetConn) Recv(dir Direction) *Message {
	if dir.Receiver() != c.party {
		panic(fmt.Sprintf("comm: %v cannot receive in direction %v", c.party, dir))
	}
	msg, err := ReadFrame(c.rw)
	if err != nil {
		panic(&TransportError{Op: "recv", Err: err})
	}
	c.record(dir, int64(len(msg.Bytes()))*8, "")
	c.wireBytes += int64(len(msg.Bytes())) + 4
	return msg
}

// Stats returns the cost observed at this endpoint. Every protocol
// message passes through the endpoint (sent or received), so this is
// the full execution cost.
func (c *NetConn) Stats() Stats { return c.stats }

// Trace returns the per-message log. Labels are endpoint metadata, not
// payload, so received messages carry empty labels.
func (c *NetConn) Trace() []MessageInfo { return c.trace }

// WireBytes returns the total bytes moved over the stream including the
// 4-byte frame headers — the operational (as opposed to model) cost.
func (c *NetConn) WireBytes() int64 { return c.wireBytes }

// pairState is the shared half of an in-process transport pair: one
// queue per direction plus accounting identical to Conn's.
type pairState struct {
	mu   sync.Mutex
	cond *sync.Cond
	tally
	queues [2][]*Message
	done   [2]bool
}

// PairConn is one party's endpoint of an in-process transport pair
// created by Pair. The two endpoints share their accounting, so Stats
// on either returns the full execution cost.
type PairConn struct {
	st    *pairState
	party Party
}

// Pair returns connected in-process endpoints for Alice and Bob. Party
// drivers run one per goroutine; delivery is a per-direction FIFO with
// the exact bit/round accounting of the in-process Conn, so a protocol
// split across a Pair costs precisely what its interleaved simulation
// reports.
func Pair() (alice, bob *PairConn) {
	st := &pairState{}
	st.cond = sync.NewCond(&st.mu)
	return &PairConn{st: st, party: Alice}, &PairConn{st: st, party: Bob}
}

// Party returns which side of the protocol this endpoint drives.
func (p *PairConn) Party() Party { return p.party }

// Send enqueues msg for the peer. Only the sending party of dir may
// call it.
func (p *PairConn) Send(dir Direction, msg *Message) *Message {
	if dir.Sender() != p.party {
		panic(fmt.Sprintf("comm: %v cannot send in direction %v", p.party, dir))
	}
	st := p.st
	st.mu.Lock()
	st.record(dir, int64(len(msg.Bytes()))*8, msg.Label)
	msg.pos = 0
	st.queues[dir] = append(st.queues[dir], msg)
	st.cond.Broadcast()
	st.mu.Unlock()
	return msg
}

// Recv dequeues the next message in direction dir, blocking until the
// peer sends one. If the peer finishes (Finish) with nothing queued,
// Recv panics with *TransportError, mirroring a closed connection.
func (p *PairConn) Recv(dir Direction) *Message {
	if dir.Receiver() != p.party {
		panic(fmt.Sprintf("comm: %v cannot receive in direction %v", p.party, dir))
	}
	st := p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	peer := dir.Sender()
	for len(st.queues[dir]) == 0 && !st.done[peer] {
		st.cond.Wait()
	}
	if len(st.queues[dir]) == 0 {
		panic(&TransportError{Op: "recv", Err: fmt.Errorf("peer %v terminated", peer)})
	}
	msg := st.queues[dir][0]
	st.queues[dir] = st.queues[dir][1:]
	return msg
}

// Finish marks this party's driver as terminated, waking a peer blocked
// in Recv (which then fails instead of deadlocking). Messages already
// queued remain receivable.
func (p *PairConn) Finish() {
	st := p.st
	st.mu.Lock()
	st.done[p.party] = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// Stats returns the shared accumulated cost of the execution.
func (p *PairConn) Stats() Stats {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	return p.st.stats
}

// Trace returns a copy of the shared per-message log.
func (p *PairConn) Trace() []MessageInfo {
	p.st.mu.Lock()
	defer p.st.mu.Unlock()
	return append([]MessageInfo(nil), p.st.trace...)
}
