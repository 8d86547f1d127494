package core

import (
	"errors"
	"fmt"

	"repro/internal/comm"
)

// This file is the runtime for transport-separated protocol execution.
//
// Every protocol in this package exists once, as a pair of party
// drivers (AliceLp/BobLp, AliceL0Sample/BobL0Sample, …) written against
// comm.Transport: each driver holds only its own party's matrix and
// exchanges messages through the transport seam. The interleaved
// reference functions (EstimateLp, SampleL0, …) run the two drivers
// over an in-process comm.Pair, which accounts bits and rounds exactly
// like the original single-threaded simulation — and the same driver
// code runs unchanged over a comm.NetConn when the parties are
// separated by a real socket, with identical transcripts and therefore
// identical costs.
//
// Every driver reads its party's matrix as non-zero lists and takes it
// as an intmat.Matrix: a serving system hands over the *intmat.Sparse it
// already holds — a request's A is validated straight into one, a served
// B is held as one — and the driver or Bob state borrows it; the
// reference functions here and the benchmark harness hand over an
// *intmat.Dense, which is listed on entry. One name, one body, either
// way.
//
// Cross-party facts a real deployment learns out of band — matrix
// dimensions and signedness, which a serving system publishes in its
// catalog — are driver parameters, not protocol payload, exactly as the
// in-process simulation treats them. This keeps the wire transcript of
// a distributed run byte-identical to the simulated one.

// Endpoint is one party's handle on a transport: the transport itself
// plus an optional hook signalling that this party's driver has
// returned, so a peer blocked mid-receive fails over instead of
// deadlocking (PairConn.Finish for in-process pairs, Close on the
// underlying connection for sockets).
type Endpoint struct {
	// T is the transport the party's driver runs over.
	T comm.Transport
	// Finish, when non-nil, signals that this party's driver returned.
	Finish func()
}

// RunParties executes an Alice driver and a Bob driver over the two
// endpoints of one transport. Drivers run concurrently (Bob on the
// calling goroutine); each endpoint's Finish hook fires when its driver
// returns, and protocol/validation errors take precedence over the
// transport errors they cause on the peer.
func RunParties(alice, bob Endpoint, aliceFn, bobFn func(comm.Transport) error) error {
	aliceDone := make(chan error, 1)
	go func() {
		err := aliceFn(alice.T)
		if alice.Finish != nil {
			alice.Finish()
		}
		aliceDone <- err
	}()
	bobErr := bobFn(bob.T)
	if bob.Finish != nil {
		bob.Finish()
	}
	aliceErr := <-aliceDone
	return firstRealError(bobErr, aliceErr)
}

// runPair executes the two party drivers of one protocol over an
// in-process transport pair and returns the merged cost.
func runPair(alice, bob func(comm.Transport) error) (Cost, error) {
	at, bt := comm.Pair()
	err := RunParties(
		Endpoint{T: at, Finish: at.Finish},
		Endpoint{T: bt, Finish: bt.Finish},
		alice, bob,
	)
	return costOf(bt), err
}

// firstRealError picks the most informative error of a pair run:
// protocol/validation errors beat the "peer terminated" transport
// errors they cause on the other side.
func firstRealError(errs ...error) error {
	var fallback error
	for _, e := range errs {
		if e == nil {
			continue
		}
		var te *comm.TransportError
		if errors.As(e, &te) {
			if fallback == nil {
				fallback = e
			}
			continue
		}
		return e
	}
	return fallback
}

// recoverDecodeError converts the panics of the message readers
// (malformed payload) and transports (I/O failure, peer termination)
// into errors at the party-driver boundary, where the peer is not
// trusted to frame correctly.
func recoverDecodeError(err *error) {
	if r := recover(); r != nil {
		if te, ok := r.(*comm.TransportError); ok {
			*err = te
			return
		}
		*err = fmt.Errorf("core: malformed protocol message: %v", r)
	}
}
