package wcoj

import (
	"context"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/rel"
)

// ProgressStats accumulates the observed search shape of generic-join
// descents: per variable, how many times the descent reached that variable
// (visits), how many candidate values the seed relation offered (candidates),
// and how many survived the intersection + FD checks and were recursed into
// (matches). Matches/Visits is the observed average fanout — the runtime
// counterpart of the planner's certified degree bounds.
//
// One ProgressStats may be shared by concurrent descents of a query: all
// fields are atomics, and each descent batches its counts locally,
// flushing once per call, so the shared cachelines are touched O(1) times
// per call rather than per trie step.
type ProgressStats struct {
	visits  []atomic.Int64
	cands   []atomic.Int64
	matches []atomic.Int64
}

// NewProgressStats returns stats sized for a query over k variables.
func NewProgressStats(k int) *ProgressStats {
	return &ProgressStats{
		visits:  make([]atomic.Int64, k),
		cands:   make([]atomic.Int64, k),
		matches: make([]atomic.Int64, k),
	}
}

// K returns the variable count the stats were sized for.
func (p *ProgressStats) K() int { return len(p.visits) }

// Visits returns how many descent nodes extended variable v.
func (p *ProgressStats) Visits(v int) int64 { return p.visits[v].Load() }

// Candidates returns how many seed candidates were enumerated for v.
func (p *ProgressStats) Candidates(v int) int64 { return p.cands[v].Load() }

// Matches returns how many bindings of v survived into the next depth.
func (p *ProgressStats) Matches(v int) int64 { return p.matches[v].Load() }

// progressLocal is a descent's private tally, flushed into the shared
// atomics once when the call returns.
type progressLocal struct {
	shared  *ProgressStats
	visits  []int64
	cands   []int64
	matches []int64
}

func newProgressLocal(shared *ProgressStats, k int) *progressLocal {
	if shared == nil {
		return nil
	}
	return &progressLocal{
		shared:  shared,
		visits:  make([]int64, k),
		cands:   make([]int64, k),
		matches: make([]int64, k),
	}
}

// flush adds the local tallies into the shared stats.
func (l *progressLocal) flush() {
	if l == nil {
		return
	}
	for v := range l.visits {
		if l.visits[v] != 0 {
			l.shared.visits[v].Add(l.visits[v])
		}
		if l.cands[v] != 0 {
			l.shared.cands[v].Add(l.cands[v])
		}
		if l.matches[v] != 0 {
			l.shared.matches[v].Add(l.matches[v])
		}
	}
}

// GenericJoinObservedInto is GenericJoinInto with the descent instrumented
// into ps (which may be shared across concurrent calls; nil degrades to the
// plain path). The instrumentation only tallies — output is byte-identical
// to GenericJoinInto.
func GenericJoinObservedInto(ctx context.Context, q *query.Q, order []int, sink rel.Sink, ps *ProgressStats) (*Stats, error) {
	if !identityOrder(order) {
		buf := rel.NewCollect("Q", q.AllVars().Members()...)
		st, err := genericJoinObserved(ctx, q, order, buf, ps)
		if err != nil {
			return st, err
		}
		buf.R.SortDedup()
		rel.Stream(buf.R, sink)
		return st, nil
	}
	return genericJoinObserved(ctx, q, order, sink, ps)
}
