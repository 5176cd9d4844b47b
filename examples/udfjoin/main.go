// udfjoin reproduces the paper's motivating example (Eq. 1, Sec. 1.1):
//
//	Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u), u = f(x,z), x = g(y,u)
//
// Computing R ⋈ S ⋈ T first and filtering afterwards costs Θ(N²) on the
// skew instance; the UDFs' functional dependencies drop the GLVV bound to
// N^{3/2}, and the Chain Algorithm meets it.
//
// Run: go run ./examples/udfjoin
package main

import (
	"fmt"
	"math"

	"repro/internal/chainalg"
	"repro/internal/engine"
	"repro/internal/paper"
	"repro/internal/wcoj"
)

func main() {
	for _, n := range []int{128, 256, 512} {
		q := paper.Fig1Skew(n)
		a := engine.Analyze(q)
		logN := math.Log2(float64(n))
		fmt.Printf("N = %4d: AGM = N^%.2f, GLVV = N^%.2f, chain bound = N^%.2f\n",
			n, a.LogAGM/logN, a.LogLLP/logN, a.LogChain/logN)

		out, chainStats, err := chainalg.RunBest(q)
		if err != nil {
			panic(err)
		}
		_, gjStats, err := wcoj.GenericJoin(q, []int{1, 2, 0, 3})
		if err != nil {
			panic(err)
		}
		fmt.Printf("          |Q| = %d;  chain work = %d;  FD-blind generic-join work = %d  (%.1f×)\n",
			out.Len(), chainStats.TuplesVisited+chainStats.Probes,
			gjStats.Extensions+gjStats.Lookups,
			float64(gjStats.Extensions+gjStats.Lookups)/float64(chainStats.TuplesVisited+chainStats.Probes))
	}
}
