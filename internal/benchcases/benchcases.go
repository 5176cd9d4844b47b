// Package benchcases defines the E-series benchmark workloads once: one
// table row per timed case, naming the case, building its instance and
// returning the operation a benchmark loop repeats. bench_test.go's
// BenchmarkE* and BenchmarkLimit1 functions run a family's cases (as
// sub-benchmarks when Sub is set), and cmd/benchrecord records the cases
// that carry a Record name into BENCH_N.json. cmd/experiments prints the
// matching bound and exponent tables.
package benchcases

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/wcoj"
)

// Op is one timed iteration of a case.
type Op func() error

// Case is one timed E-series workload.
type Case struct {
	Family string // benchmark family, e.g. "E1"
	Sub    string // sub-benchmark name; "" times the family benchmark itself
	Record string // BENCH_N.json entry name; "" leaves the case unrecorded
	// Setup builds the instance, outside the timed loop, and returns the
	// operation to time. Cases over the same instance share one build.
	Setup func() (Op, error)
}

// Loop times op over b.N iterations, reporting allocations.
func Loop(b *testing.B, op Op) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// Family returns the cases of one family, in table order.
func Family(name string) []Case {
	var out []Case
	for _, c := range Cases() {
		if c.Family == name {
			out = append(out, c)
		}
	}
	return out
}

// Cases returns the whole table. Instances are built on first Setup, so
// the table itself is cheap to construct.
func Cases() []Case {
	// E1: Fig.1 skew instance — Chain Algorithm Õ(N^{3/2}) vs FD-blind
	// Generic-Join Ω(N²) (Example 5.8).
	e1s := instance(func() *query.Q { return paper.Fig1Skew(128) })
	e1l := instance(func() *query.Q { return paper.Fig1Skew(512) })
	// E5: Fig.4 — SMA within N^{4/3} beating every chain (Example 5.25).
	e5 := instance(func() *query.Q { q, _ := paper.Fig4Instance(64); return q })
	// Limit1: streaming early termination. On a worst/* AGM-saturating
	// product the planner runs Generic-Join, whose identity-order descent
	// streams rows natively — a LIMIT-1 consumer stops the whole execution
	// after the first successful descent, while the full run enumerates all
	// ~N^{3/2} rows. COUNT-only sits in between: full enumeration, zero
	// materialization. The acceptance bar is limit1 ≥ 10× faster than full.
	w128 := bound(func() *query.Q { return scenario.AGMProduct(128, 1) })
	w512 := bound(func() *query.Q { return scenario.AGMProduct(512, 1) })
	return []Case{
		{"E1", "chain/N=128", "", on(e1s, chainBest)},
		{"E1", "generic/N=128", "", on(e1s, genericSkewOrder)},
		{"E1", "chain/N=512", "E1/chain/N=512", on(e1l, chainBest)},
		{"E1", "generic/N=512", "E1/generic/N=512", on(e1l, genericSkewOrder)},
		// E2: degree-bounded triangle through the CLLP (Sec. 5.3).
		{"E2", "csma/d=2", "", on(instance(func() *query.Q { return paper.DegreeTriangle(256, 2) }), csmaRun)},
		{"E2", "csma/d=8", "E2/csma/d=8", on(instance(func() *query.Q { return paper.DegreeTriangle(256, 8) }), csmaRun)},
		// E3: triangle AGM worst case (Theorem 2.1).
		{"E3", "generic/m=8", "", on(instance(func() *query.Q { return paper.TriangleProduct(8) }), generic)},
		{"E3", "generic/m=16", "E3/generic/m=16", on(instance(func() *query.Q { return paper.TriangleProduct(16) }), generic)},
		// E4: M3 mod-N instance — chain bound tight at N² (Example 5.12).
		{"E4", "chain/N=16", "", on(instance(func() *query.Q { return paper.M3Instance(16) }), chainBest)},
		{"E4", "chain/N=32", "E4/chain/N=32", on(instance(func() *query.Q { return paper.M3Instance(32) }), chainBest)},
		{"E5", "sma", "E5/sma", on(e5, smaAuto)},
		{"E5", "chain", "", on(e5, chainBest)},
		// E6: Fig.9 — CSMA on the query with no SM proof (Example 5.31).
		{"E6", "csma/N=16", "", on(instance(func() *query.Q { q, _ := paper.Fig9Instance(16); return q }), csmaRun)},
		{"E6", "csma/N=64", "E6/csma/N=64", on(instance(func() *query.Q { q, _ := paper.Fig9Instance(64); return q }), csmaRun)},
		// E7: Fig.5 — good-chain selection (Corollary 5.9).
		{"E7", "", "", on(instance(func() *query.Q { return paper.Fig5Instance(32) }), chainBest)},
		// E8: closure bounds (Sec. 2).
		{"E8", "", "", on(instance(func() *query.Q { return paper.CompositeKey(8, 1024) }), closureBounds)},
		// E9: full lattice classification of the Fig.9 query (Fig. 10 regions).
		{"E9", "", "", on(instance(func() *query.Q { q, _ := paper.Fig9Instance(4); return q }), classify)},
		// E10: LLP primal+dual solve on the running example (Lemma 3.9).
		{"E10", "", "", on(instance(func() *query.Q { return paper.Fig1QuasiProduct(256) }), llp)},
		// E11: quasi-product materialization check (Lemma 4.5).
		{"E11", "", "E11/naive", on(instance(func() *query.Q { return paper.Fig1QuasiProduct(64) }), naiveEval)},
		// E12: simple FDs — chain algorithm on a distributive lattice (Cor. 5.17).
		{"E12", "", "", on(instance(func() *query.Q { return paper.SimpleFDChain(5, 64) }), chainBest)},
		{"Limit1", "full/N=128", "", onBound(w128, runFull)},
		{"Limit1", "count/N=128", "", onBound(w128, runCount)},
		{"Limit1", "limit1/N=128", "", onBound(w128, runLimit1)},
		{"Limit1", "full/N=512", "limit/worst512/full", onBound(w512, runFull)},
		{"Limit1", "count/N=512", "limit/worst512/count", onBound(w512, runCount)},
		{"Limit1", "limit1/N=512", "limit/worst512/limit1", onBound(w512, runLimit1)},
	}
}

// instance defers building a query until a case first needs it, then
// shares the build among the cases over it.
func instance(build func() *query.Q) func() *query.Q { return sync.OnceValue(build) }

// bound is instance for cases that run through the engine: the query is
// prepared and bound once, so its plan and index caches warm across runs.
func bound(build func() *query.Q) func() (*engine.Bound, error) {
	return sync.OnceValues(func() (*engine.Bound, error) {
		p, err := engine.Prepare(build())
		if err != nil {
			return nil, err
		}
		return p.Bind(nil)
	})
}

func on(q func() *query.Q, run func(*query.Q) error) func() (Op, error) {
	return func() (Op, error) {
		inst := q()
		return func() error { return run(inst) }, nil
	}
}

func onBound(b func() (*engine.Bound, error), run func(*engine.Bound) error) func() (Op, error) {
	return func() (Op, error) {
		bd, err := b()
		if err != nil {
			return nil, err
		}
		return func() error { return run(bd) }, nil
	}
}

func chainBest(q *query.Q) error { _, _, err := chainalg.RunBest(q); return err }
func csmaRun(q *query.Q) error   { _, _, err := csma.Run(q, nil); return err }
func smaAuto(q *query.Q) error   { _, _, err := smalg.RunAuto(q); return err }
func generic(q *query.Q) error   { _, _, err := wcoj.GenericJoin(q, wcoj.DefaultOrder(q)); return err }

// genericSkewOrder runs Generic-Join on a Fig.1 query in the variable
// order y, z, x, u, the FD-blind run cmd/experiments' E1 table times too.
func genericSkewOrder(q *query.Q) error {
	_, _, err := wcoj.GenericJoin(q, []int{1, 2, 0, 3})
	return err
}

func closureBounds(q *query.Q) error { bounds.AGMClosure(q); bounds.LLP(q); return nil }
func classify(q *query.Q) error      { bounds.IsNormalLattice(q); return nil }
func llp(q *query.Q) error           { bounds.LLP(q); return nil }
func naiveEval(q *query.Q) error     { naive.Evaluate(q); return nil }

// seq runs the Limit1 cases on one worker, so they time execution alone.
var seq = &engine.Options{Workers: 1}

func runFull(b *engine.Bound) error { _, _, err := b.Run(context.Background(), seq); return err }

func runCount(b *engine.Bound) error {
	var c rel.CountSink
	_, err := b.RunInto(context.Background(), seq, &c)
	return err
}

func runLimit1(b *engine.Bound) error {
	var c rel.CountSink
	_, err := b.RunInto(context.Background(), seq, rel.Limit(&c, 1))
	return err
}
