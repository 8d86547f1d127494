package comm

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
)

// script runs a fixed three-message exchange (B→A, A→B, A→B) through
// any pair of send/recv functions and returns the payload the final
// receiver assembled. It is the reference workload for checking that
// every Transport accounts identically.
type endpoint interface {
	Send(dir Direction, msg *Message) *Message
	Recv(dir Direction) *Message
}

func runScriptedBob(t endpoint) []int64 {
	msg := NewMessage()
	msg.Label = "bob round 1"
	putVarints(msg, []int64{1, -2, 3})
	t.Send(BobToAlice, msg)
	first := varints(t.Recv(AliceToBob))
	second := varints(t.Recv(AliceToBob))
	return append(first, second...)
}

func runScriptedAlice(t endpoint) {
	in := varints(t.Recv(BobToAlice))
	m1 := NewMessage()
	m1.Label = "alice reply"
	putVarints(m1, in)
	t.Send(AliceToBob, m1)
	m2 := NewMessage()
	m2.Label = "alice extra"
	putVarints(m2, []int64{40, 50})
	t.Send(AliceToBob, m2)
}

// referenceStats runs the script interleaved over a Conn, the
// accounting ground truth.
func referenceStats(t *testing.T) Stats {
	t.Helper()
	conn := NewConn()
	msg := NewMessage()
	putVarints(msg, []int64{1, -2, 3})
	in := varints(conn.Send(BobToAlice, msg))
	m1 := NewMessage()
	putVarints(m1, in)
	conn.Send(AliceToBob, m1)
	m2 := NewMessage()
	putVarints(m2, []int64{40, 50})
	conn.Send(AliceToBob, m2)
	return conn.Stats()
}

func TestPairMatchesConnAccounting(t *testing.T) {
	want := referenceStats(t)
	alice, bob := Pair()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runScriptedAlice(alice)
		alice.Finish()
	}()
	got := runScriptedBob(bob)
	bob.Finish()
	wg.Wait()

	if gotStats := bob.Stats(); gotStats != want {
		t.Fatalf("pair stats %+v != conn stats %+v", gotStats, want)
	}
	if aliceStats := alice.Stats(); aliceStats != want {
		t.Fatalf("alice half sees %+v, want shared %+v", aliceStats, want)
	}
	wantPayload := []int64{1, -2, 3, 40, 50}
	if len(got) != len(wantPayload) {
		t.Fatalf("payload %v", got)
	}
	for i, v := range wantPayload {
		if got[i] != v {
			t.Fatalf("payload %v, want %v", got, wantPayload)
		}
	}
	if tr := bob.Trace(); len(tr) != 3 || tr[0].Label != "bob round 1" || tr[0].Round != 1 || tr[2].Round != 2 {
		t.Fatalf("trace %+v", tr)
	}
}

func TestNetConnMatchesConnAccounting(t *testing.T) {
	want := referenceStats(t)
	ac, bc := net.Pipe()
	alice := NewNetConn(Alice, ac)
	bob := NewNetConn(Bob, bc)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runScriptedAlice(alice)
		ac.Close()
	}()
	runScriptedBob(bob)
	wg.Wait()

	// Each endpoint observes every message, so both see full stats.
	if got := bob.Stats(); got != want {
		t.Fatalf("bob netconn stats %+v != conn stats %+v", got, want)
	}
	if got := alice.Stats(); got != want {
		t.Fatalf("alice netconn stats %+v != conn stats %+v", got, want)
	}
	// Wire bytes include exactly one 4-byte header per message.
	wantWire := want.TotalBits()/8 + 4*int64(want.Messages)
	if bob.WireBytes() != wantWire {
		t.Fatalf("wire bytes %d, want %d", bob.WireBytes(), wantWire)
	}
}

// TestRecvPayloadsAreNeverReused pins Transport.Recv's ownership
// contract on both party-scoped transports: a received payload keeps its
// bytes while the transport carries more messages of the same size in
// both directions, and no two received payloads share memory.
func TestRecvPayloadsAreNeverReused(t *testing.T) {
	pipe := func() (alice, bob Transport, finish func()) {
		ac, bc := net.Pipe()
		return NewNetConn(Alice, ac), NewNetConn(Bob, bc), func() { ac.Close(); bc.Close() }
	}
	pair := func() (alice, bob Transport, finish func()) {
		a, b := Pair()
		return a, b, func() { a.Finish(); b.Finish() }
	}
	for name, connect := range map[string]func() (Transport, Transport, func()){"Pair": pair, "NetConn": pipe} {
		t.Run(name, func(t *testing.T) {
			alice, bob, finish := connect()
			defer finish()
			const rounds = 4
			payload := func(r int) []byte { return bytes.Repeat([]byte{byte(r + 1)}, 64) }
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := 0; r < rounds; r++ {
					msg := NewMessage()
					msg.buf = payload(r)
					bob.Send(BobToAlice, msg)
					bob.Recv(AliceToBob)
				}
			}()
			var kept [][]byte
			for r := 0; r < rounds; r++ {
				kept = append(kept, alice.Recv(BobToAlice).Bytes())
				reply := NewMessage()
				reply.buf = payload(100 + r)
				alice.Send(AliceToBob, reply)
			}
			<-done
			for r, got := range kept {
				if !bytes.Equal(got, payload(r)) {
					t.Errorf("payload %d now reads %v", r, got[:4])
				}
				for _, other := range kept[:r] {
					if &got[0] == &other[0] {
						t.Errorf("payload %d shares memory with an earlier one", r)
					}
				}
			}
		})
	}
}

func TestConnRecvReplaysPending(t *testing.T) {
	conn := NewConn()
	msg := NewMessage()
	msg.PutVarint(7)
	conn.Send(AliceToBob, msg)
	if got := conn.Recv(AliceToBob).Varint(); got != 7 {
		t.Fatalf("recv got %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Recv with nothing pending did not panic")
		}
	}()
	conn.Recv(AliceToBob)
}

func TestPartyScopedMisusePanics(t *testing.T) {
	alice, bob := Pair()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("alice sending B→A", func() { alice.Send(BobToAlice, NewMessage()) })
	mustPanic("bob receiving his own direction", func() { bob.Recv(BobToAlice) })
	nc := NewNetConn(Alice, &bytes.Buffer{})
	mustPanic("netconn wrong direction", func() { nc.Send(BobToAlice, NewMessage()) })
	mustPanic("netconn wrong recv direction", func() { nc.Recv(AliceToBob) })
}

func TestPairPeerTerminationSurfacesAsTransportError(t *testing.T) {
	alice, bob := Pair()
	alice.Finish() // Alice dies without sending round 2
	defer func() {
		r := recover()
		te, ok := r.(*TransportError)
		if !ok {
			t.Fatalf("recover %v, want *TransportError", r)
		}
		if te.Op != "recv" {
			t.Fatalf("op %q", te.Op)
		}
	}()
	bob.Recv(AliceToBob)
}

func TestNetConnPeerCloseSurfacesAsTransportError(t *testing.T) {
	ac, bc := net.Pipe()
	bob := NewNetConn(Bob, bc)
	ac.Close()
	defer func() {
		r := recover()
		if _, ok := r.(*TransportError); !ok {
			t.Fatalf("recover %v, want *TransportError", r)
		}
	}()
	bob.Recv(AliceToBob)
}

func TestFrameRoundTripAndErrors(t *testing.T) {
	var buf bytes.Buffer
	msg := NewMessage()
	msg.PutFloat24s([]float64{1.5, -2.25})
	n, err := WriteFrame(&buf, msg)
	if err != nil {
		t.Fatal(err)
	}
	if n != msg.Len()+4 {
		t.Fatalf("frame wrote %d bytes, want %d", n, msg.Len()+4)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]uint32, 2)
	if got.Float24sInto(v); Float24(v[0]) != 1.5 || Float24(v[1]) != -2.25 || got.Remaining() != 0 {
		t.Fatalf("round trip %x", v)
	}

	if _, err := ReadFrame(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("truncated header not reported")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized frame not reported")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2})); err == nil {
		t.Fatal("truncated payload not reported")
	}
}

func TestTransportErrorUnwrap(t *testing.T) {
	base := errors.New("boom")
	te := &TransportError{Op: "send", Err: base}
	if !errors.Is(te, base) {
		t.Fatal("TransportError does not unwrap")
	}
}
