package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// countPar is the parallel configuration the count-path tests run at.
var countPar = Options{Workers: 3, MinParallelRows: 1}

// TestParallelCountMatchesCollect: for auto and every explicit algorithm, a
// parallel COUNT equals the sequential collected length, and so does its
// Stats.OutSize.
func TestParallelCountMatchesCollect(t *testing.T) {
	for _, q := range []struct {
		name string
		b    *Bound
	}{
		{"fig1-quasi", mustBind(t, paper.Fig1QuasiProduct(32))},
		{"hot-triangle", mustBind(t, hotTriangle(4, 8, 300, 5))},
	} {
		for _, alg := range []Algorithm{AlgAuto, AlgChain, AlgSM, AlgCSMA, AlgGenericJoin, AlgBinary} {
			want, _, err := q.b.Run(context.Background(), &Options{Algorithm: alg, Workers: 1})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", q.name, alg, err)
			}
			opts := countPar
			opts.Algorithm = alg
			var c rel.CountSink
			st, err := q.b.RunInto(context.Background(), &opts, &c)
			if err != nil {
				t.Fatalf("%s/%s parallel count: %v", q.name, alg, err)
			}
			if c.N != want.Len() || st.OutSize != want.Len() {
				t.Fatalf("%s/%s: parallel count %d (OutSize %d), sequential collect %d rows",
					q.name, alg, c.N, st.OutSize, want.Len())
			}
			if alg != AlgSM && st.Morsels == 0 {
				t.Fatalf("%s/%s: morsel path not exercised: %+v", q.name, alg, st)
			}
		}
	}
}

// TestParallelCountMemLimit: with MemLimitBytes just below, at and just
// above the output's tupleBytes, a parallel COUNT fails with
// *MemLimitError exactly when the sequential one does, and accounts the
// same OutSize, MemBytes and count.
func TestParallelCountMemLimit(t *testing.T) {
	b := mustBind(t, scenario.AGMProduct(64, 1))
	var full rel.CountSink
	if _, err := b.RunInto(context.Background(), &Options{Workers: 1}, &full); err != nil {
		t.Fatal(err)
	}
	out := tupleBytes(full.N, len(b.Query().AllVars().Members()))
	for _, limit := range []int64{out - 1, out, out + 1} {
		run := func(opts Options) (int, *Stats, error) {
			opts.MemLimitBytes = limit
			var c rel.CountSink
			st, err := b.RunInto(context.Background(), &opts, &c)
			return c.N, st, err
		}
		nSeq, stSeq, errSeq := run(Options{Workers: 1})
		nPar, stPar, errPar := run(countPar)
		var me *MemLimitError
		if tripped := errors.As(errSeq, &me); tripped != (limit < out) {
			t.Fatalf("limit %d (output %d bytes): sequential error %v", limit, out, errSeq)
		}
		if errors.As(errSeq, &me) != errors.As(errPar, &me) {
			t.Fatalf("limit %d: sequential error %v, parallel error %v", limit, errSeq, errPar)
		}
		if stPar.Morsels == 0 {
			t.Fatalf("limit %d: morsel path not exercised: %+v", limit, stPar)
		}
		if nSeq != nPar || stSeq.OutSize != stPar.OutSize || stSeq.MemBytes != stPar.MemBytes {
			t.Fatalf("limit %d: sequential count %d OutSize %d MemBytes %d, parallel %d %d %d",
				limit, nSeq, stSeq.OutSize, stSeq.MemBytes, nPar, stPar.OutSize, stPar.MemBytes)
		}
	}
}

// TestParallelLimitCount: a LIMIT-k wrapper around a counter is not a bare
// counter, so its rows are streamed and it counts min(k, |out|).
func TestParallelLimitCount(t *testing.T) {
	b := mustBind(t, hotTriangle(4, 8, 300, 6))
	var full rel.CountSink
	if _, err := b.RunInto(context.Background(), &Options{Workers: 1}, &full); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, full.N / 2, full.N, full.N + 5} {
		var c rel.CountSink
		if _, err := b.RunInto(context.Background(), &countPar, rel.Limit(&c, k)); err != nil {
			t.Fatalf("limit %d: %v", k, err)
		}
		if want := min(k, full.N); c.N != want {
			t.Fatalf("limit %d counted %d rows, want %d", k, c.N, want)
		}
	}
}

// TestParallelCountAllocatesNoOutput: once the instance's morsel split and
// indexes are warm, a parallel COUNT on worst/agm-product allocates less
// than its output's tupleBytes — no morsel materializes its rows.
func TestParallelCountAllocatesNoOutput(t *testing.T) {
	b := mustBind(t, scenario.AGMProduct(1024, 1))
	count := func() int {
		var c rel.CountSink
		st, err := b.RunInto(context.Background(), &countPar, &c)
		if err != nil {
			t.Fatal(err)
		}
		if st.Morsels == 0 {
			t.Fatalf("morsel path not exercised: %+v", st)
		}
		return c.N
	}
	n := count() // warm the split and the indexes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	count()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	out := tupleBytes(n, len(b.Query().AllVars().Members()))
	if int64(alloc) >= out {
		t.Fatalf("parallel COUNT of %d rows allocated %d bytes, not below the output's %d", n, alloc, out)
	}
}
