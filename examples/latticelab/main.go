// latticelab classifies every lattice the paper names (Figs. 1, 3, 4, 5,
// 7, 9 plus N5 and the Boolean algebra) along the Fig. 10 taxonomy:
// distributive ⊂ normal, lattices with tight chain bounds, lattices with
// (good) SM proofs, and the M3 obstruction of Prop. 4.10.
//
// Run: go run ./examples/latticelab
package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/paper"
	"repro/internal/query"
)

func main() {
	fmt.Println("Fig. 10 taxonomy, computed from first principles:")
	fmt.Println()
	for _, l := range paper.Fig10Lattices() {
		classify(l.Label, l.Query)
	}

	fmt.Println("structure-only lattices:")
	n5 := lattice.FromFamily(3, paper.N5Family())
	fmt.Printf("  N5: distributive=%v modular=%v M3-top=%v (paper: N5 is normal)\n",
		n5.IsDistributive(), n5.IsModular(), n5.HasM3Top())
	f7 := lattice.FromFamily(6, paper.Fig7Family())
	fmt.Printf("  Fig.7: size=%d distributive=%v (Example 5.29: has a non-good SM proof)\n",
		f7.Size(), f7.IsDistributive())
}

func classify(name string, q *query.Q) {
	a := engine.Analyze(q)
	fmt.Printf("%-32s |L|=%-3d distributive=%-5v normal=%-5v M3-top=%-5v goodSMproof=%-5v\n",
		name, a.LatticeSize, a.Distributive, a.Normal, a.HasM3Top, a.SMProofExists)
	fmt.Printf("%-32s bounds(log2): AGM=%.2f AGM(Q⁺)=%.2f chain=%.2f GLVV=%.2f\n\n",
		"", a.LogAGM, a.LogAGMClosure, a.LogChain, a.LogLLP)
}
