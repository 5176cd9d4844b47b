package engine

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/rel"
)

// morselTargetPerWorker is the minimum morsels-per-worker the scheduler
// aims for: enough granularity that a skewed morsel strands one morsel's
// worth of work behind a worker, not a worker's whole share.
const morselTargetPerWorker = 4

// morselCount sizes the schedule: distinct values / MorselSize morsels,
// floored at morselTargetPerWorker per worker (so stealing has grain to
// work with) and capped at one morsel per distinct value.
func morselCount(distinct, workers, morselSize int) int {
	m := (distinct + morselSize - 1) / morselSize
	if floor := morselTargetPerWorker * workers; m < floor {
		m = floor
	}
	if m > distinct {
		m = distinct
	}
	if m < 1 {
		m = 1
	}
	return m
}

// morselKey identifies a memoized morsel partitioning of the bound instance.
type morselKey struct{ v, n int }

// morselParts returns (building and caching on first use, like partitions)
// the instance range-partitioned on v into n morsels. The memo holds a
// single entry, bounding memory at one extra instance copy.
func (b *Bound) morselParts(v int, vals []rel.Value, n int) [][]*rel.Relation {
	key := morselKey{v, n}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.morsels != nil && b.morselsKey == key {
		return b.morsels
	}
	p := morselRels(b.q, v, vals, n)
	b.morselsKey, b.morsels = key, p
	return p
}

// morselRels splits the instance into n morsel instances by contiguous
// ranges of v's sorted distinct-value union: morsel m covers the values
// vals[m·D/n : (m+1)·D/n), so the ranges are balanced in distinct values
// and ascending in value order — the property the streaming frontier's
// ordering argument rests on. Relations without v are shared read-only;
// a relation containing v is split in one pass (each split is a
// subsequence of a sorted duplicate-free relation, hence itself sorted
// and duplicate-free).
func morselRels(q *query.Q, v int, vals []rel.Value, n int) [][]*rel.Relation {
	d := len(vals)
	starts := make([]rel.Value, n)
	for m := range starts {
		starts[m] = vals[m*d/n]
	}
	// morselOf returns the last morsel whose range starts at or below x;
	// every stored v-value is in vals, so x ≥ starts[0] always.
	morselOf := func(x rel.Value) int {
		return sort.Search(n, func(m int) bool { return starts[m] > x }) - 1
	}
	parts := make([][]*rel.Relation, n)
	for m := range parts {
		parts[m] = make([]*rel.Relation, len(q.Rels))
	}
	for j, r := range q.Rels {
		c := r.Col(v)
		if c < 0 {
			for m := range parts {
				parts[m][j] = r
			}
			continue
		}
		split := make([]*rel.Relation, n)
		for m := range split {
			split[m] = rel.New(r.Name, r.Attrs...)
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			split[morselOf(row[c])].AddTuple(row)
		}
		for m := range parts {
			parts[m][j] = split[m]
		}
	}
	return parts
}

// morselQueue deals contiguous morsel-id ranges to the workers and lets an
// idle worker steal from the tail of the biggest remaining share. Owners
// pop their own front — so each worker walks its share in ascending morsel
// order, feeding the streaming frontier — while thieves take from the back,
// the work the owner would reach last.
type morselQueue struct {
	deques []morselDeque
	steals atomic.Int64
}

type morselDeque struct {
	mu     sync.Mutex
	lo, hi int // remaining own share: morsel ids [lo, hi)
}

func newMorselQueue(nmorsels, workers int) *morselQueue {
	q := &morselQueue{deques: make([]morselDeque, workers)}
	for w := range q.deques {
		q.deques[w].lo = w * nmorsels / workers
		q.deques[w].hi = (w + 1) * nmorsels / workers
	}
	return q
}

// next returns worker w's next morsel: the front of its own share, or —
// once that drains — a steal from the victim with the most remaining work.
// ok is false when every share is empty and the worker should exit. A
// thief that loses the race to the victim's owner (or another thief)
// simply rescans; with all work pre-dealt, the loop terminates.
func (q *morselQueue) next(w int) (m int, stolen, ok bool) {
	d := &q.deques[w]
	d.mu.Lock()
	if d.lo < d.hi {
		m = d.lo
		d.lo++
		d.mu.Unlock()
		return m, false, true
	}
	d.mu.Unlock()
	for {
		best, bestRem := -1, 0
		for i := range q.deques {
			if i == w {
				continue
			}
			di := &q.deques[i]
			di.mu.Lock()
			rem := di.hi - di.lo
			di.mu.Unlock()
			if rem > bestRem {
				best, bestRem = i, rem
			}
		}
		if best < 0 {
			return 0, false, false
		}
		db := &q.deques[best]
		db.mu.Lock()
		if db.lo < db.hi {
			db.hi--
			m = db.hi
			db.mu.Unlock()
			q.steals.Add(1)
			return m, true, true
		}
		db.mu.Unlock()
	}
}

// runMorselsInto is the morsel-driven scheduler (the default parallel
// path): v's sorted distinct-value union is range-partitioned into nm ≫
// workers morsels, a fixed pool pulls them from a work-stealing queue, and
// the per-morsel results are combined into sink.
//
// COUNT: when the caller's sink is a bare *rel.CountSink, each morsel runs
// into a counter of its own and only its row count reaches this
// goroutine. runParallelInto's disjointness argument makes the sum of the
// morsel counts the exact output size, so no morsel materializes a row.
// The counts are delivered through the tally (tallySink.addCount), so
// OutSize, MemBytes and the MemLimitBytes trip account exactly as a
// row-by-row push would.
//
// Any other sink needs the rows, so each morsel collects its sorted run.
// Ordering soundness, extending runParallelInto's disjointness argument:
// morsel ranges are contiguous and ascending in v, so for any two morsels
// m < m′, every v-value of m is strictly below every v-value of m′. Output
// rows are sorted lexicographically on ascending variable ids; when v is
// variable 0 — the output's first column — a row of morsel m therefore
// sorts strictly before every row of morsel m′: the morsel runs are
// disjoint, totally ordered blocks whose concatenation in morsel order is
// exactly the sequential output. That licenses the streaming frontier: the
// moment the least not-yet-emitted morsel completes, its run is streamed
// (completed higher morsels wait their turn), so emission starts after the
// globally-least pending morsel rather than after a full barrier, and a
// stopping sink cancels the remaining morsels. When v > 0 rows from
// different morsels interleave in output order, so the scheduler falls
// back to a barrier and a tournament merge (rel.MergeSortedInto) over all
// runs — still byte-identical, just without early emission.
func (b *Bound) runMorselsInto(ctx context.Context, plan *Plan, v int, vals []rel.Value, workers int, o *Options, st *Stats, sink rel.Sink) error {
	// Grain is algorithm-aware: generic join's per-morsel marginal cost is
	// proportional to the morsel's own work, so it affords fine morsels. The
	// chain/SM/CSMA machines pay O(total-input) setup per run (closure
	// expansion and projection indexes — including shared relations the
	// split does not shrink), so fine grain multiplies setup: their schedule
	// is capped at one morsel per worker, the same setup bill as the static
	// scheduler, keeping value-range splits, stealing, and the streaming
	// frontier.
	nm := morselCount(len(vals), workers, o.MorselSize)
	if plan.Algorithm != AlgGenericJoin && nm > workers {
		nm = workers
	}
	if nm < workers {
		workers = nm // defensive; the caller's clamp makes this rare
	}
	parts := b.morselParts(v, vals, nm)
	st.Workers = workers
	st.PartitionVar = v
	st.Morsels = nm
	st.WorkerMorsels = make([]int, workers)

	// tally is non-nil in COUNT mode (see above).
	var tally *tallySink
	if t, ok := sink.(*tallySink); ok && t.counter() != nil {
		tally = t
	}
	rowBytes := tupleBytes(1, len(b.q.AllVars().Members()))

	gctx, gcancel := context.WithCancel(ctx)
	defer gcancel()
	gauge := &memGauge{limit: o.MemLimitBytes, onTrip: gcancel}

	outs := make([]*rel.Relation, nm) // per-morsel sorted runs (collecting)
	counts := make([]int, nm)         // per-morsel row counts (COUNT mode)
	runMorsel := func(m int) error {
		qm := b.q.WithFreshRels(parts[m])
		if tally == nil {
			var err error
			outs[m], err = collectSplit(gctx, qm, plan, gauge)
			return err
		}
		s, err := runSplit(gctx, qm, plan, func() rel.Sink { return &rel.CountSink{} })
		if err == nil {
			counts[m] = s.(*rel.CountSink).N
		}
		return err
	}

	errs := make([]error, workers)
	completions := make(chan int, nm) // buffered: a worker never blocks reporting
	queue := newMorselQueue(nm, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if errs[w] != nil && !errors.Is(errs[w], context.Canceled) {
					gcancel() // fail fast: release the siblings
				}
			}()
			defer recoverToError(&errs[w])
			faultinject.Fire(faultinject.SitePartitionWorker)
			for {
				m, _, ok := queue.next(w)
				if !ok {
					return
				}
				faultinject.Fire(faultinject.SiteMorselQueue)
				if err := gctx.Err(); err != nil {
					errs[w] = err
					return
				}
				if err := runMorsel(m); err != nil {
					errs[w] = err
					return
				}
				st.WorkerMorsels[w]++
				completions <- m
			}
		}(w)
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()

	// The frontier can stream only when v is the output's first column;
	// output attributes are ascending variable ids, so that is exactly v==0.
	streamFrontier := v == 0
	done := make([]bool, nm)
	next := 0 // least morsel not yet emitted
	completed := 0
	stopped := false

	handle := func(m int) {
		completed++
		done[m] = true
		switch {
		case stopped:
		case tally != nil:
			faultinject.Fire(faultinject.SiteStreamMerge)
			if !tally.addCount(counts[m], rowBytes) {
				stopped = true
				gcancel() // budget tripped: stop the remaining morsels
			}
		case streamFrontier:
			for next < nm && done[next] {
				faultinject.Fire(faultinject.SiteStreamMerge)
				r := outs[next]
				for i := 0; i < r.Len(); i++ {
					if !sink.Push(r.Row(i)) {
						stopped = true
						gcancel() // consumer decision: stop the remaining morsels
						return
					}
				}
				outs[next] = nil // emitted: release the run
				next++
			}
		}
	}

	//lint:ignore fdqvet/ctxloop cancellation reaches this loop via gctx → workers → workersDone; the select blocks, it does not spin
	for completed < nm {
		select {
		case m := <-completions:
			handle(m)
			continue
		case <-workersDone:
		}
		break
	}
	<-workersDone
	//lint:ignore fdqvet/ctxloop drains the bounded completions buffer after all workers exited; at most one handle per finished morsel
	for len(completions) > 0 {
		handle(<-completions)
	}
	st.MemBytes += gauge.used.Load()
	st.Steals = int(queue.steals.Load())

	// Error selection mirrors the static path: a real failure beats the
	// context.Canceled artifacts its group-cancel induced in the siblings;
	// then the memory gauge; then a sink stop (a consumer decision, not an
	// error, or a tripped tally that RunInto reports); then the caller's
	// own cancellation.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	if gauge.trip.Load() {
		return &MemLimitError{Limit: o.MemLimitBytes, Used: gauge.used.Load()}
	}
	if stopped {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !streamFrontier && tally == nil {
		faultinject.Fire(faultinject.SiteStreamMerge)
		rel.MergeSortedInto(sink, outs)
	}
	return nil
}
