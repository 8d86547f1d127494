package comm

import "time"

// LatencyModel converts a protocol's (bits, rounds) cost into an
// estimated wall-clock transfer time under a simple pipe model:
// every round pays one round-trip latency, and payload bits stream at
// the link bandwidth. This is why the paper optimizes both measures —
// on a WAN, a 2-round Õ(n/ε) protocol can dominate a 1-round Õ(n/ε²)
// one despite the extra round as soon as the bandwidth term dominates,
// and vice versa on short links.
type LatencyModel struct {
	// RTT is the round-trip latency of the link.
	RTT time.Duration
	// BitsPerSecond is the link bandwidth.
	BitsPerSecond float64
}

// Common reference links for harness output.
var (
	// LAN: 0.5 ms RTT, 10 Gb/s.
	LAN = LatencyModel{RTT: 500 * time.Microsecond, BitsPerSecond: 10e9}
	// WAN: 50 ms RTT, 100 Mb/s.
	WAN = LatencyModel{RTT: 50 * time.Millisecond, BitsPerSecond: 100e6}
)

// Estimate returns the modeled wall-clock time for a protocol run.
func (m LatencyModel) Estimate(s Stats) time.Duration {
	if m.BitsPerSecond <= 0 {
		return 0
	}
	transfer := time.Duration(float64(s.TotalBits()) / m.BitsPerSecond * float64(time.Second))
	return time.Duration(s.Rounds)*m.RTT + transfer
}
