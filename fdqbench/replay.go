package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/varset"
	"repro/internal/wcoj"
)

// The traced run cannot see inside the server, so after each operation it
// replays, in process and from this package, the layer calls the server's
// path made for that operation, in the same cache state: the session's
// resolve; on a shape's first read the prepare; on that read or after a
// catalog change the re-bind, FD validation, and index and trie builds on
// fresh views; and, when the instance sizes are new to the shape, planning
// on an empty plan cache. A mirror is one worker's copy of that state; it
// reads the catalog's version and the benchmark's copy of the stored
// relations.
type mirror struct {
	sess    *fdq.Session
	cat     *fdq.Catalog
	masters map[string]*rel.Relation // shared with the bench; written only between operations
	shapes  map[string]*mirrorShape
}

// mirrorShape is the mirror's per-shape state, mirroring the server
// session's cache entry.
type mirrorShape struct {
	prep    *engine.Prepared
	version uint64
	bound   *engine.Bound
	prio    [][]int         // per relation: its variables in Generic-Join order
	ixViews []*rel.Relation // views holding the replay's executor indexes
}

func newMirror(cat *fdq.Catalog, masters map[string]*rel.Relation, opts ...fdq.SessionOption) *mirror {
	return &mirror{sess: fdq.NewSession(cat, opts...), cat: cat, masters: masters, shapes: map[string]*mirrorShape{}}
}

// buildQuery lowers a wire spec onto fresh views of the stored relations,
// the way the fdq session builds a query against a catalog snapshot. The
// result has an empty lattice and plan cache.
func buildQuery(spec *fdqc.QuerySpec, masters map[string]*rel.Relation) (*query.Q, error) {
	q := query.New(spec.Vars...)
	vars := map[string]int{}
	for i, v := range spec.Vars {
		vars[v] = i
	}
	set := func(names []string) varset.Set {
		var s varset.Set
		for _, n := range names {
			s = s.Add(vars[n])
		}
		return s
	}
	relIdx := map[string]int{}
	for _, r := range spec.Rels {
		m := masters[r.Name]
		if m == nil {
			return nil, fmt.Errorf("relation %s not stored", r.Name)
		}
		attrs := make([]int, len(r.Vars))
		for i, v := range r.Vars {
			attrs[i] = vars[v]
		}
		j := q.AddRel(m.WithAttrs(r.Name, attrs...))
		if _, ok := relIdx[r.Name]; !ok {
			relIdx[r.Name] = j
		}
	}
	for _, f := range spec.FDs {
		from, to := set(f.From), set(f.To)
		guard := -1
		var fns map[int]fd.UDF
		switch {
		case f.Via != "":
			fn, err := query.BuiltinUDF(f.Via)
			if err != nil {
				return nil, err
			}
			fns = map[int]fd.UDF{}
			for _, v := range to.Members() {
				fns[v] = fn
			}
		case f.Guard != "":
			guard = relIdx[f.Guard]
		}
		q.FDs.Add(from, to, guard, fns)
	}
	for _, d := range spec.Degrees {
		q.AddDegreeBound(set(d.X), set(d.Y), d.Max, relIdx[d.Guard])
	}
	return q, nil
}

// freshViews returns new views (empty index caches) of q's relations.
func freshViews(q *query.Q) []*rel.Relation {
	out := make([]*rel.Relation, len(q.Rels))
	for j, r := range q.Rels {
		out[j] = r.WithAttrs(r.Name, r.Attrs...)
	}
	return out
}

// state returns the shape's mirror state, preparing it on first use: the
// server session's cache miss, timed under engine.prepare.
func (m *mirror) state(t *tracer, s *shape) (*mirrorShape, error) {
	if ms := m.shapes[s.prefix]; ms != nil {
		return ms, nil
	}
	q, err := buildQuery(s.spec, m.masters)
	if err != nil {
		return nil, err
	}
	t.begin("engine.prepare")
	prep, err := engine.Prepare(q)
	t.end()
	if err != nil {
		return nil, err
	}
	order := wcoj.DefaultOrder(q)
	ms := &mirrorShape{prep: prep, version: math.MaxUint64, prio: make([][]int, len(q.Rels))}
	for j, r := range q.Rels {
		for _, v := range order {
			if r.Col(v) >= 0 {
				ms.prio[j] = append(ms.prio[j], v)
			}
		}
	}
	m.shapes[s.prefix] = ms
	return ms, nil
}

// planKey is the engine's plan-memo key for a bound query (engine.Bound
// memoizes its plan per relation sizes under this key).
func planKey(q *query.Q) string {
	var b strings.Builder
	b.WriteString("engine:plan")
	for _, r := range q.Rels {
		fmt.Fprintf(&b, ":%d", r.Len())
	}
	return b.String()
}

// replayOut is what one replay measured beyond its spans.
type replayOut struct {
	cold      bool // the catalog changed since the shape's last operation
	planned   bool // the plan memo missed: planning ran
	exec      *engine.Stats
	seqTime   time.Duration // sampled: Workers=1 wall clock
	parTime   time.Duration // sampled: Workers=GOMAXPROCS wall clock
	matches   int64         // sampled: Generic-Join matches, all levels
	cands     int64         // sampled: Generic-Join candidates, all levels
	encodeDur time.Duration
	decodeDur time.Duration
	codecRows int
}

// replay re-runs the server-side layer calls of one operation under
// spans. vals are the rows the operation delivered (nil for COUNT).
func (m *mirror) replay(t *tracer, s *shape, o op, vals []fdq.Value, sample bool) (out replayOut, err error) {
	ctx := context.Background()
	t.begin("replay")
	defer t.end()

	fq, err := s.spec.Query()
	if err != nil {
		return out, err
	}
	t.begin("fdq.resolve")
	_, err = m.sess.Explain(fq)
	t.end()
	if err != nil {
		return out, fmt.Errorf("explain: %w", err)
	}
	ms, err := m.state(t, s)
	if err != nil {
		return out, err
	}

	if v := m.cat.Version(); v != ms.version {
		out.cold = true
		q, err := buildQuery(s.spec, m.masters)
		if err != nil {
			return out, err
		}
		t.begin("engine.prepare")
		b, err := ms.prep.Bind(q.Rels)
		t.end()
		if err != nil {
			return out, fmt.Errorf("bind: %w", err)
		}
		t.begin("query.validate")
		err = b.Query().Validate()
		t.end()
		if err != nil {
			return out, fmt.Errorf("validate: %w", err)
		}
		ms.version, ms.bound = v, b
		ms.ixViews = freshViews(q)
	}

	bq := ms.bound.Query()
	key := planKey(bq)
	_, memo := bq.PlanCache(key)
	t.begin("engine.plan")
	pl := ms.bound.Plan()
	t.end()
	if !memo {
		out.planned = true
		if _, ok := bq.PlanCache(key); !ok {
			return out, fmt.Errorf("engine.plan ran but left no plan under %s", key)
		}
		// A binary plan is the planner's tiny-input choice, made without
		// the FD-aware bounds.
		if pl.Algorithm != engine.AlgBinary {
			if err := m.replayCandidates(t, s); err != nil {
				return out, err
			}
		}
	}

	// Index and trie builds: cold on the fresh views after a catalog
	// change, cache hits otherwise — the calls the executor makes.
	ixs := make([]*rel.Index, len(ms.ixViews))
	t.begin("rel.index_build")
	for j, r := range ms.ixViews {
		ixs[j] = r.IndexOn(ms.prio[j]...)
	}
	t.end()
	t.begin("rel.trie_build")
	for _, ix := range ixs {
		ix.Trie()
	}
	t.end()
	for j, r := range ms.ixViews {
		if r.IndexOn(ms.prio[j]...) != ixs[j] {
			return out, fmt.Errorf("index on %s was not cached by its build", r.Name)
		}
	}

	// Execution, as the server runs it (default workers), into a sink that
	// stops where the operation's does.
	var cnt rel.CountSink
	var sink rel.Sink = &cnt
	if o.kind == opLimit {
		sink = rel.Limit(&cnt, o.limit)
	}
	t.begin("engine.exec")
	out.exec, err = ms.bound.RunInto(ctx, nil, sink)
	t.end()
	if err != nil {
		return out, fmt.Errorf("exec: %w", err)
	}

	if width := len(s.spec.Vars); len(vals) > 0 && width > 0 {
		out.codecRows = len(vals) / width
		out.encodeDur, out.decodeDur, err = replayCodec(t, vals, width)
		if err != nil {
			return out, err
		}
	}

	if sample {
		if err := replaySample(t, ms.bound, &out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// replayCandidates times the planner's candidate bounds one by one on a
// fresh query (empty plan cache), in the order and under the gates of the
// engine's decision table.
func (m *mirror) replayCandidates(t *tracer, s *shape) error {
	q, err := buildQuery(s.spec, m.masters)
	if err != nil {
		return err
	}
	if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 {
		return nil // the planner decides without the FD-aware bounds
	}
	q.Lattice() // shape analysis: done once per shape by engine.Prepare, not by planning
	var key strings.Builder
	key.WriteString("bestchain:64")
	for _, r := range q.Rels {
		fmt.Fprintf(&key, ":%d", r.Len())
	}
	if _, ok := q.PlanCache(key.String()); ok {
		return fmt.Errorf("chain bound memo not empty on a fresh query")
	}
	t.begin("bounds.chain")
	cb := bounds.BestChainBound(q, 64)
	t.end()
	chain := math.Inf(1)
	if cb.Finite {
		chain, _ = cb.LogBound.Float64()
	}
	t.begin("bounds.llp")
	llp := bounds.LLP(q)
	t.end()
	if logLLP, _ := llp.LogBound.Float64(); logLLP < chain-1e-9 {
		t.begin("smalg.proof")
		smalg.FindProofAuto(q, llp)
		t.end()
	}
	t.begin("bounds.cllp")
	bounds.CLLPFromQuery(q)
	t.end()
	return nil
}

// replayCodec encodes the delivered rows into batch frames the way the
// server does (batchRows rows a batch) and decodes them back, checking the
// round trip.
func replayCodec(t *tracer, vals []fdq.Value, width int) (enc, dec time.Duration, err error) {
	step := batchRows * width
	var payloads [][]byte
	t.begin("fdqc.encode")
	start := time.Now()
	for i := 0; i < len(vals); i += step {
		payloads = append(payloads, fdqc.AppendBatch(nil, vals[i:min(i+step, len(vals))], width))
	}
	enc = time.Since(start)
	t.end()
	t.begin("fdqc.decode")
	start = time.Now()
	n := 0
	for _, p := range payloads {
		got, derr := fdqc.DecodeBatch(p, width)
		if derr != nil {
			err = derr
			break
		}
		n += len(got)
	}
	dec = time.Since(start)
	t.end()
	if err == nil && n != len(vals) {
		err = fmt.Errorf("codec round trip: %d values in, %d out", len(vals), n)
	}
	return enc, dec, err
}

// replaySample measures, on a sample of operations, the parallel speedup
// (one worker against GOMAXPROCS, after an untimed run that warms the
// indexes both use) and Generic-Join's candidate/match counts.
func replaySample(t *tracer, b *engine.Bound, out *replayOut) error {
	ctx := context.Background()
	if _, err := b.RunInto(ctx, &engine.Options{Workers: 1}, &rel.CountSink{}); err != nil {
		return err
	}
	t.begin("engine.exec_seq")
	start := time.Now()
	_, err := b.RunInto(ctx, &engine.Options{Workers: 1}, &rel.CountSink{})
	out.seqTime = time.Since(start)
	t.end()
	if err != nil {
		return err
	}
	t.begin("engine.exec_par")
	start = time.Now()
	_, err = b.RunInto(ctx, &engine.Options{Workers: runtime.GOMAXPROCS(0)}, &rel.CountSink{})
	out.parTime = time.Since(start)
	t.end()
	if err != nil {
		return err
	}
	q := b.Query()
	ps := wcoj.NewProgressStats(q.K)
	t.begin("wcoj.observed")
	_, err = wcoj.GenericJoinObservedInto(ctx, q, wcoj.DefaultOrder(q), &rel.CountSink{}, ps)
	t.end()
	if err != nil {
		return err
	}
	for v := 0; v < q.K; v++ {
		out.matches += ps.Matches(v)
		out.cands += ps.Candidates(v)
	}
	return nil
}
