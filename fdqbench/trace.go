package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the index of the enclosing span in the same tracer (-1 for an
// operation's root).
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open span ids
	op    int64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// beginOp opens an operation's root span.
func (t *tracer) beginOp(op int64, name string) {
	if t == nil {
		return
	}
	t.op = op
	t.begin(name)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.epoch)
	t.open = t.open[:n]
}

// spanStats aggregates spans by name: how many, and their total self time
// (duration minus the time covered by direct children).
type spanStats struct {
	Count int
	Self  time.Duration
}

// aggregate folds the spans of several tracers into per-name totals.
func aggregate(tracers ...*tracer) map[string]spanStats {
	out := map[string]spanStats{}
	for _, t := range tracers {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			st := out[s.Name]
			st.Count++
			st.Self += s.End - s.Start - child[i]
			out[s.Name] = st
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range tracers {
		for _, s := range t.spans {
			rec := struct {
				Worker int `json:"worker"`
				span
			}{i, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
