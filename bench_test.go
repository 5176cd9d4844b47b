// Benchmarks timing every experiment of the paper reproduction (one
// family per table/figure claim, defined in internal/benchcases) plus
// engine, micro and ablation benchmarks of the substrates.
// Run: go test -bench=. -benchmem
package repro

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/benchcases"
	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/varset"
	"repro/internal/wcoj"
)

// The E-series: each family's cases, and the paper claim each times, are
// defined once in internal/benchcases, which cmd/benchrecord records too.
func BenchmarkE1ChainVsWCOJ(b *testing.B)   { benchFamily(b, "E1") }
func BenchmarkE2DegreeBounds(b *testing.B)  { benchFamily(b, "E2") }
func BenchmarkE3TriangleAGM(b *testing.B)   { benchFamily(b, "E3") }
func BenchmarkE4M3(b *testing.B)            { benchFamily(b, "E4") }
func BenchmarkE5SMvsChain(b *testing.B)     { benchFamily(b, "E5") }
func BenchmarkE6CSMA(b *testing.B)          { benchFamily(b, "E6") }
func BenchmarkE7GoodChain(b *testing.B)     { benchFamily(b, "E7") }
func BenchmarkE8Closure(b *testing.B)       { benchFamily(b, "E8") }
func BenchmarkE9Classify(b *testing.B)      { benchFamily(b, "E9") }
func BenchmarkE10LLPDuality(b *testing.B)   { benchFamily(b, "E10") }
func BenchmarkE11QuasiProduct(b *testing.B) { benchFamily(b, "E11") }
func BenchmarkE12SimpleFDs(b *testing.B)    { benchFamily(b, "E12") }

// benchFamily times each case of one benchcases family, as a sub-benchmark
// when the case names one.
func benchFamily(b *testing.B, family string) {
	for _, c := range benchcases.Family(family) {
		if c.Sub == "" {
			benchCase(b, c)
			continue
		}
		b.Run(c.Sub, func(b *testing.B) { benchCase(b, c) })
	}
}

func benchCase(b *testing.B, c benchcases.Case) {
	op, err := c.Setup()
	if err != nil {
		b.Fatal(err)
	}
	benchcases.Loop(b, op)
}

// Engine layer: prepared-query execution, sequential vs hash-partitioned
// across a worker pool. On multi-core hardware the partitioned runs scale
// with the pool; on one core they sit at parity for output-dominated
// workloads (see DESIGN.md).
func BenchmarkEngineParallel(b *testing.B) {
	q := paper.SimpleFDChain(4, 512)
	p, err := engine.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := p.Bind(nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bound.Run(ctx, &engine.Options{Workers: workers, MinParallelRows: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Skew family: the skew/zipf-hot adversarial instance — four hot hubs that
// all hash into ONE static partition at 4 workers. The static fork/join
// scheduler serializes the hot mass on one worker; value-range morsels with
// stealing spread it. On a single-core runner the wall clocks sit near
// parity (every flavor runs the same total work) — the scheduling gap is
// recorded as modeled makespans in BENCH_7.json via engine.ProfileSplits.
func BenchmarkSkewZipfHot(b *testing.B) {
	q := scenario.ZipfHot(256, 2)
	p, err := engine.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := p.Bind(nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	flavors := []struct {
		name string
		opts *engine.Options
	}{
		{"seq", &engine.Options{Workers: 1}},
		{"static-w4", &engine.Options{Workers: 4, MinParallelRows: 1, StaticPartition: true}},
		{"morsel-w4", &engine.Options{Workers: 4, MinParallelRows: 1}},
	}
	for _, f := range flavors {
		b.Run(f.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bound.Run(ctx, f.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// analyticShapes are the families and sizes of fdqbench's analytic
// workload: large COUNTs over generic-join, chain, SM and CSMA plans.
var analyticShapes = []struct {
	family string
	size   int
}{
	{"motif/cycle4", 1536}, {"skew/zipf-hot", 8192}, {"skew/near-product", 2048},
	{"worst/agm-product", 4096}, {"motif/clique4", 4096}, {"fd/dag", 4096},
	{"paper/four-cycle-key", 4096}, {"paper/colored-triangle", 4096},
	{"paper/degree-triangle", 8192},
}

// BenchmarkAnalyticCount counts each analytic shape through a bare
// CountSink at one worker and at GOMAXPROCS, with default options
// otherwise: the engine-level number behind the analytic workload's
// end-to-end throughput. An untimed run first warms the indexes and the
// morsel split, as a served query finds them.
func BenchmarkAnalyticCount(b *testing.B) {
	families := map[string]*scenario.Family{}
	for _, f := range scenario.Catalog() {
		families[f.Name] = f
	}
	ctx := context.Background()
	for _, s := range analyticShapes {
		f, ok := families[s.family]
		if !ok {
			b.Fatalf("unknown family %s", s.family)
		}
		p, err := engine.Prepare(f.Build(scenario.Params{Size: s.size, Seed: 1}))
		if err != nil {
			b.Fatal(err)
		}
		bound, err := p.Bind(nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			opts := &engine.Options{Workers: workers}
			b.Run(s.family+"/"+strconv.Itoa(s.size)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				count := func() {
					if _, err := bound.RunInto(ctx, opts, &rel.CountSink{}); err != nil {
						b.Fatal(err)
					}
				}
				count()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					count()
				}
			})
		}
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkMicroFDClosure(b *testing.B) {
	q := paper.Fig1()
	u := varset.Universe(4)
	for i := 0; i < b.N; i++ {
		u.Subsets(func(x varset.Set) bool {
			_ = q.FDs.Closure(x)
			return true
		})
	}
}

func BenchmarkMicroLatticeBuild(b *testing.B) {
	fam := paper.Fig9Family()
	for i := 0; i < b.N; i++ {
		_ = lattice.FromFamily(9, fam)
	}
}

func BenchmarkMicroMobius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := lattice.Boolean(5)
		_ = l.Mobius(0, l.Top)
	}
}

func BenchmarkMicroSimplexLLP(b *testing.B) {
	q, _ := paper.Fig9Instance(16)
	for i := 0; i < b.N; i++ {
		_ = bounds.LLP(q)
	}
}

// BenchmarkMicroIndexBuild times a cold index sort: each iteration takes
// a fresh zero-copy view, whose index cache starts empty.
func BenchmarkMicroIndexBuild(b *testing.B) {
	q := paper.TriangleProduct(32)
	r := q.Rels[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.WithAttrs(r.Name, r.Attrs...).IndexOn(0, 1)
	}
}

func BenchmarkMicroSMProofSearch(b *testing.B) {
	q, _ := paper.Fig4Instance(27)
	llp := bounds.LLP(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if smalg.FindProof(llp) == nil {
			b.Fatal("proof must exist")
		}
	}
}

func BenchmarkMicroExpansion(b *testing.B) {
	q := paper.Fig1QuasiProduct(256)
	for i := 0; i < b.N; i++ {
		_, _, err := wcoj.BinaryPlan(q, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (design-choice comparisons called out in DESIGN.md) ---

// Ablation: chain selection policy. Corollary 5.9 (join-irreducibles) vs
// Corollary 5.11 (meet-irreducibles) vs exhaustive maximal-chain search.
func BenchmarkAblationChainChoice(b *testing.B) {
	q := paper.Fig1QuasiProduct(256)
	l := q.Lattice()
	inputs := q.InputElems()
	b.Run("cor5.9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := l.GoodChainJoinIrreducibles(inputs)
			if _, _, err := chainalg.Run(q, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cor5.11", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := l.GoodChainMeetIrreducibles(inputs)
			if _, _, err := chainalg.Run(q, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("best-enumerated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := chainalg.RunBest(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: SMA vs CSMA vs Chain on the same query where all apply (Fig.1).
func BenchmarkAblationAlgorithms(b *testing.B) {
	q := paper.Fig1QuasiProduct(144)
	b.Run("chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := chainalg.RunBest(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := smalg.RunAuto(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := csma.Run(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Limit1: streaming early termination; the cases are in internal/benchcases.
func BenchmarkLimit1(b *testing.B) { benchFamily(b, "Limit1") }

// Ablation: exact rational LLP solve cost as the lattice grows.
func BenchmarkAblationLLPSize(b *testing.B) {
	q1 := paper.M3Instance(8)       // |L| = 5
	q2 := paper.Fig1QuasiProduct(4) // |L| = 12
	q3, _ := paper.Fig9Instance(4)  // |L| = 18
	b.Run("L=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bounds.LLP(q1)
		}
	})
	b.Run("L=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bounds.LLP(q2)
		}
	})
	b.Run("L=18", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bounds.LLP(q3)
		}
	})
}
