package main

import (
	"context"
	"fmt"

	"repro/fdq"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
)

// Row digests are FNV-1a style over the values of each row in order, with a
// row terminator, so they are sensitive to row order, row boundaries and
// every value.
const (
	digestOffset uint64 = 14695981039346656037
	digestPrime  uint64 = 1099511628211
)

func mixRow(h uint64, row []fdq.Value) uint64 {
	for _, v := range row {
		h ^= uint64(v)
		h *= digestPrime
	}
	h ^= 0xff
	return h * digestPrime
}

// digestRows digests row-major values of the given width.
func digestRows(vals []fdq.Value, width int) uint64 {
	h := digestOffset
	for i := 0; i+width <= len(vals); i += width {
		h = mixRow(h, vals[i:i+width])
	}
	return h
}

// reference is an operation's expected outcome: the full result's row
// count and, unless the shape is only counted, the digest of every prefix
// of it (prefix[k] digests the first k rows), so LIMIT-k replies are
// checked in O(1).
type reference struct {
	rows   int
	prefix []uint64
}

// refSink accumulates a reference from an engine run.
type refSink struct {
	ref  reference
	keep bool
	h    uint64
}

func (s *refSink) Push(t rel.Tuple) bool {
	s.ref.rows++
	if s.keep {
		s.h = mixRow(s.h, t)
		s.ref.prefix = append(s.ref.prefix, s.h)
	}
	return true
}

// computeReference evaluates q in process with Generic-Join forced and one
// worker — an executor and schedule independent of the planner's choice for
// the served query — outside any timed window.
func computeReference(q *query.Q, keepPrefix bool) (*reference, error) {
	p, err := engine.Prepare(q)
	if err != nil {
		return nil, err
	}
	b, err := p.Bind(nil)
	if err != nil {
		return nil, err
	}
	s := &refSink{keep: keepPrefix, h: digestOffset}
	if keepPrefix {
		s.ref.prefix = []uint64{digestOffset}
	}
	if _, err := b.RunInto(context.Background(), &engine.Options{Algorithm: engine.AlgGenericJoin, Workers: 1}, s); err != nil {
		return nil, err
	}
	return &s.ref, nil
}

// crossCheckNaive checks the reference evaluator against naive.Evaluate
// (the pairwise-join ground truth) on the small-tier instance of each
// family, with seeds derived from the benchmark seed.
func crossCheckNaive(families []string, seed int64) error {
	gens := generators()
	for _, fam := range families {
		q, err := gens[fam](smallSize(fam), deriveSeed(seed, "naive/"+fam))
		if err != nil {
			return err
		}
		want := naive.Evaluate(q)
		ref, err := computeReference(q, true)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", fam, err)
		}
		var flat []fdq.Value
		for i := 0; i < want.Len(); i++ {
			flat = append(flat, want.Row(i)...)
		}
		if ref.rows != want.Len() || ref.prefix[ref.rows] != digestRows(flat, q.K) {
			return fmt.Errorf("%s: reference evaluator disagrees with naive.Evaluate (%d vs %d rows)", fam, ref.rows, want.Len())
		}
	}
	return nil
}
