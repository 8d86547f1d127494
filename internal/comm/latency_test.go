package comm

import (
	"testing"
	"time"
)

func TestLatencyModelEstimate(t *testing.T) {
	m := LatencyModel{RTT: 10 * time.Millisecond, BitsPerSecond: 1e6}
	s := Stats{BitsAliceToBob: 500000, Rounds: 2}
	// 2 rounds × 10ms + 500000 bits / 1e6 bps = 20ms + 500ms.
	got := m.Estimate(s)
	want := 520 * time.Millisecond
	if got != want {
		t.Fatalf("Estimate = %v, want %v", got, want)
	}
}

func TestLatencyModelZeroBandwidth(t *testing.T) {
	m := LatencyModel{RTT: time.Second}
	if got := m.Estimate(Stats{Rounds: 5}); got != 0 {
		t.Fatalf("zero-bandwidth estimate = %v", got)
	}
}

func TestLatencyCrossover(t *testing.T) {
	// The round/bandwidth tradeoff the paper's round counting is about:
	// a chatty-but-lean protocol beats a one-shot-but-heavy one on a
	// fast link and loses on a slow one only through the bit term.
	lean := Stats{BitsAliceToBob: 1 << 20, Rounds: 2}  // 1 Mbit, 2 rounds
	heavy := Stats{BitsAliceToBob: 1 << 27, Rounds: 1} // 128 Mbit, 1 round
	if LAN.Estimate(lean) >= LAN.Estimate(heavy) {
		t.Fatal("lean protocol should win on LAN")
	}
	if WAN.Estimate(lean) >= WAN.Estimate(heavy) {
		t.Fatal("lean protocol should still win on WAN at this bit gap")
	}
	// With a tiny bit gap the extra round dominates on WAN.
	lean2 := Stats{BitsAliceToBob: 1 << 20, Rounds: 4}
	heavy2 := Stats{BitsAliceToBob: 1 << 21, Rounds: 1}
	if WAN.Estimate(lean2) <= WAN.Estimate(heavy2) {
		t.Fatal("extra rounds should cost on WAN when bits are comparable")
	}
}
