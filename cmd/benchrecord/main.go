// Command benchrecord runs the paper's experiment workloads (the recorded
// internal/benchcases cases plus engine and skew runs) under
// testing.Benchmark and writes a BENCH_N.json snapshot, so the repo's perf
// trajectory is recorded machine-readably per PR (see DESIGN.md).
//
// Usage: go run ./cmd/benchrecord [-out BENCH_7.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/benchcases"
	"repro/internal/benchkit"
	"repro/internal/engine"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/scenario"
)

func main() {
	out := flag.String("out", "BENCH_7.json", "output JSON path")
	flag.Parse()

	s := benchkit.NewSuite()

	record := func(name string, f benchcases.Op) {
		br := s.Run(name, func(b *testing.B) { benchcases.Loop(b, f) })
		fmt.Printf("%-32s %12.0f ns/op %10d B/op %8d allocs/op\n",
			br.Name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp)
	}

	for _, c := range benchcases.Cases() {
		if c.Record == "" {
			continue
		}
		op, err := c.Setup()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrecord:", err)
			os.Exit(1)
		}
		record(c.Record, op)
	}

	// Engine layer: parallel partitioned execution vs sequential on the
	// same bound instance (the plan is cached after the first run, so both
	// measure execution, not LP solves).
	ctx := context.Background()
	engineBound := func(q *query.Q) *engine.Bound {
		p, err := engine.Prepare(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrecord:", err)
			os.Exit(1)
		}
		b, err := p.Bind(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrecord:", err)
			os.Exit(1)
		}
		return b
	}
	runWith := func(b *engine.Bound, workers int) func() error {
		return func() error {
			_, _, err := b.Run(ctx, &engine.Options{Workers: workers, MinParallelRows: 1})
			return err
		}
	}
	bE1 := engineBound(paper.Fig1Skew(1024))
	record("engine/E1/seq/N=1024", runWith(bE1, 1))
	record("engine/E1/par4/N=1024", runWith(bE1, 4))
	bE3 := engineBound(paper.TriangleProduct(24))
	record("engine/E3/seq/m=24", runWith(bE3, 1))
	record("engine/E3/par4/m=24", runWith(bE3, 4))
	bE12 := engineBound(paper.SimpleFDChain(5, 512))
	record("engine/E12/seq/N=512", runWith(bE12, 1))
	record("engine/E12/par4/N=512", runWith(bE12, 4))

	// Skew family: the skew/zipf-hot adversarial instance (four hot hubs
	// colliding in one static hash partition at 4 workers). Wall clocks
	// compare the schedulers' overheads; on a 1-CPU recorder they cannot
	// show the scheduling gap, so the gap is recorded as modeled makespans
	// (per-split sequential timings + list scheduling, see
	// engine.ProfileSplits) — deterministic, and the quantity a W-core
	// machine's wall clock converges to.
	bSkew := engineBound(scenario.ZipfHot(1024, 2))
	skewOpts := func(static bool) *engine.Options {
		return &engine.Options{Workers: 4, MinParallelRows: 1, StaticPartition: static}
	}
	record("skew/zipf-hot/seq", runWith(bSkew, 1))
	record("skew/zipf-hot/static-w4", func() error {
		_, _, err := bSkew.Run(ctx, skewOpts(true))
		return err
	})
	record("skew/zipf-hot/morsel-w4", func() error {
		_, _, err := bSkew.Run(ctx, skewOpts(false))
		return err
	})
	makespan := func(static bool) float64 {
		// Median of repeated profiles: each split is timed sequentially, so
		// the model is immune to scheduler noise but not to timer noise.
		spans := make([]float64, 0, 7)
		for r := 0; r < 7; r++ {
			prof, err := bSkew.ProfileSplits(ctx, skewOpts(static), static)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrecord:", err)
				os.Exit(1)
			}
			spans = append(spans, float64(prof.Makespan(4, !static).Nanoseconds()))
		}
		sort.Float64s(spans)
		return spans[len(spans)/2]
	}
	msStatic, msMorsel := makespan(true), makespan(false)
	for _, e := range []struct {
		name string
		ns   float64
	}{
		{"skew/zipf-hot/makespan-static-w4", msStatic},
		{"skew/zipf-hot/makespan-morsel-w4", msMorsel},
	} {
		s.Results = append(s.Results, benchkit.BenchResult{Name: e.name, Iterations: 1, NsPerOp: e.ns})
		fmt.Printf("%-32s %12.0f ns/op (modeled 4-worker makespan)\n", e.name, e.ns)
	}
	fmt.Printf("skew/zipf-hot modeled speedup (static ÷ morsel at 4 workers): %.2f×\n", msStatic/msMorsel)
	if msStatic < 2*msMorsel {
		fmt.Fprintf(os.Stderr, "benchrecord: morsel scheduling models only %.2f× over static on skew/zipf-hot, want ≥ 2×\n",
			msStatic/msMorsel)
		os.Exit(1)
	}

	if err := s.WriteJSON(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
