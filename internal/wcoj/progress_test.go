package wcoj

import (
	"context"
	"sync"
	"testing"

	"repro/internal/paper"
	"repro/internal/rel"
)

// TestObservedMatchesPlainOutput checks that instrumentation is purely
// observational: the observed entry point's output is byte-identical to the
// plain one, and the tallies are internally consistent (matches never exceed
// candidates, the last order variable's matches equal the output size when
// no FD prunes below it).
func TestObservedMatchesPlainOutput(t *testing.T) {
	q := paper.TriangleRandom(8, 60, 3)
	order := DefaultOrder(q)

	want, _, err := GenericJoin(q, order)
	if err != nil {
		t.Fatal(err)
	}

	ps := NewProgressStats(q.K)
	got := rel.NewCollect("Q", q.AllVars().Members()...)
	got.R.Grow(1) // defeat adoption so rows stream through Push
	if _, err := GenericJoinObservedInto(context.Background(), q, order, got, ps); err != nil {
		t.Fatal(err)
	}
	if !rel.Identical(want, got.R) {
		t.Fatal("observed descent output differs from plain descent")
	}

	for v := 0; v < q.K; v++ {
		if ps.Matches(v) > ps.Candidates(v) {
			t.Fatalf("var %d: matches %d > candidates %d", v, ps.Matches(v), ps.Candidates(v))
		}
	}
	lastVar := order[q.K-1]
	if ps.Matches(lastVar) != int64(want.Len()) {
		t.Fatalf("last variable matches %d, want output size %d", ps.Matches(lastVar), want.Len())
	}
}

// TestObservedSharedAcrossConcurrentDescents runs the same query from many
// goroutines into one ProgressStats and checks the tallies sum exactly —
// the sharing mode the morsel scheduler uses (run with -race in CI).
func TestObservedSharedAcrossConcurrentDescents(t *testing.T) {
	q := paper.TriangleRandom(8, 60, 5)
	order := DefaultOrder(q)

	ps1 := NewProgressStats(q.K)
	var c rel.CountSink
	if _, err := GenericJoinObservedInto(context.Background(), q, order, &c, ps1); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	ps := NewProgressStats(q.K)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cw rel.CountSink
			_, errs[w] = GenericJoinObservedInto(context.Background(), q, order, &cw, ps)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < q.K; v++ {
		if ps.Visits(v) != workers*ps1.Visits(v) ||
			ps.Candidates(v) != workers*ps1.Candidates(v) ||
			ps.Matches(v) != workers*ps1.Matches(v) {
			t.Fatalf("var %d: shared tallies not %d× the single run: visits %d/%d cands %d/%d matches %d/%d",
				v, workers, ps.Visits(v), ps1.Visits(v), ps.Candidates(v), ps1.Candidates(v), ps.Matches(v), ps1.Matches(v))
		}
	}
}
