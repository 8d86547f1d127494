// Quickstart: estimate the size of a set-intersection join without
// moving the data.
//
// Alice holds n sets (rows of a Boolean matrix A), Bob holds n sets
// (columns of B). The number of pairs that intersect is exactly ‖AB‖0,
// and Algorithm 1 of the paper estimates it within (1±ε) in two rounds
// and Õ(n/ε) bits — far below shipping either side's data.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	const n = 256
	rnd := rand.New(rand.NewSource(7))

	// Alice's sets: each of n entities holds a sparse subset of [n].
	aliceSets := make([][]int, n)
	for i := range aliceSets {
		for j := 0; j < n; j++ {
			if rnd.Float64() < 0.06 {
				aliceSets[i] = append(aliceSets[i], j)
			}
		}
	}
	a := matprod.BoolMatrixFromSets(aliceSets, n)

	// Bob's sets, as columns of B (build rows, then transpose).
	bobSets := make([][]int, n)
	for j := range bobSets {
		for k := 0; k < n; k++ {
			if rnd.Float64() < 0.06 {
				bobSets[j] = append(bobSets[j], k)
			}
		}
	}
	b := matprod.BoolMatrixFromSets(bobSets, n).Transpose()

	// Exact answer (requires all data in one place — only for comparison).
	exact := a.ToInt().Mul(b.ToInt()).L0()

	// The distributed estimate.
	est, cost, err := matprod.CompositionSize(a, b, matprod.LpOptions{Eps: 0.1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("set-intersection join size (‖AB‖0)\n")
	fmt.Printf("  exact:     %d\n", exact)
	fmt.Printf("  estimated: %.0f  (ratio %.4f)\n", est, est/float64(exact))
	fmt.Printf("  cost:      %s\n", cost)
	fmt.Printf("  naive:     %d bits (shipping A)\n", n*n)
	fmt.Println()
	fmt.Println("note: the protocol's cost grows like Õ(n/ε) against the naive n²,")
	fmt.Println("so at toy sizes the sketch constants dominate; E1 in DESIGN.md's")
	fmt.Println("experiment index (go test -bench=E1) measures the linear-vs-quadratic")
	fmt.Println("scaling and the 1/ε-factor separation over the one-round baseline,")
	fmt.Println("which hold at every size.")
}
