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
	"repro/internal/varset"
)

func main() {
	fmt.Println("Fig. 10 taxonomy, computed from first principles:")
	fmt.Println()
	classify("Boolean algebra (triangle)", paper.TriangleProduct(3))
	classify("Fig.1 running example", paper.Fig1QuasiProduct(16))
	classify("M3 (Fig.3 right)", paper.M3Instance(8))
	q4, _ := paper.Fig4Instance(27)
	classify("Fig.4 (chain bound not tight)", q4)
	classify("Fig.5 (z = f(x,y))", paper.Fig5Instance(8))
	q9, _ := paper.Fig9Instance(16)
	classify("Fig.9 (no SM proof)", q9)
	classify("simple FDs (Prop. 3.2)", paper.SimpleFDChain(4, 16))

	fmt.Println("structure-only lattices:")
	n5 := lattice.FromFamily(3, []varset.Set{
		varset.Empty, varset.Of(0), varset.Of(0, 1), varset.Of(2), varset.Of(0, 1, 2)})
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
