package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// fig1Family names the paper's running example served from its .fdq script
// (paper.Fig1QuasiProductScript), the one Fig. 1 form whose computed FDs use
// named builtins and so can cross the wire.
const fig1Family = "paper/fig1-quasi-script"

// generator builds a fresh instance of one family at a size and seed. The
// relations carry the family's own (unprefixed) names.
type generator func(size int, seed int64) (*query.Q, error)

// generators returns every catalog family plus the Fig. 1 script, by name.
func generators() map[string]generator {
	out := map[string]generator{}
	for _, f := range scenario.Catalog() {
		f := f
		out[f.Name] = func(size int, seed int64) (*query.Q, error) {
			return f.Build(scenario.Params{Size: size, Seed: seed}), nil
		}
	}
	out[fig1Family] = func(size int, _ int64) (*query.Q, error) {
		return query.Parse(paper.Fig1QuasiProductScript(size))
	}
	return out
}

// fullSize is the family's full-tier size (the evidence tier), or its
// small-tier size when it has no full tier.
func fullSize(name string) int {
	if name == fig1Family {
		return 64
	}
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			if len(f.Full) > 0 {
				return f.Full[0].Size
			}
			return f.Small[0].Size
		}
	}
	panic("fdqbench: unknown family " + name)
}

// smallSize is the family's small-tier (CI) size.
func smallSize(name string) int {
	if name == fig1Family {
		return 16
	}
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f.Small[0].Size
		}
	}
	panic("fdqbench: unknown family " + name)
}

// portableFamilies lists, in catalog order, the families whose queries can
// cross the wire (no FD computed by an unnamed function), plus the Fig. 1
// script; excluded lists the rest with the reason.
func portableFamilies() (ok []string, excluded map[string]string) {
	excluded = map[string]string{}
	gens := generators()
	for _, f := range scenario.Catalog() {
		q, err := gens[f.Name](f.Small[0].Size, f.Small[0].Seed)
		if err == nil {
			_, err = fdqc.FromQuery(q)
		}
		if err != nil {
			excluded[f.Name] = err.Error()
			continue
		}
		ok = append(ok, f.Name)
	}
	return append(ok, fig1Family), excluded
}

// deriveSeed mixes the benchmark seed with a label into an instance seed, so
// every family and round draws independent data from one --seed.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// shape is one family served under its own catalog prefix: the wire spec
// and the instance currently defined for it.
type shape struct {
	family string
	prefix string // catalog relation-name prefix, unique per shape
	gen    generator
	spec   *fdqc.QuerySpec // relation names carry prefix
	size   int
	seed   int64
	inst   *query.Q // relation names carry prefix
}

// newShape builds a shape: its query is the family's at the catalog's own
// seed (some generators draw the FD structure from the seed, and a shape
// must mean the same query whatever the benchmark seed), and its first
// instance is one of that query drawn from seed.
func newShape(family string, idx, size int, seed int64) (*shape, error) {
	s := &shape{family: family, prefix: fmt.Sprintf("s%02d_", idx), gen: generators()[family]}
	if s.gen == nil {
		return nil, fmt.Errorf("unknown family %s", family)
	}
	var err error
	if family == fig1Family {
		s.spec, err = fdqc.SpecFromScript(paper.Fig1QuasiProductScript(size))
	} else {
		var canon *query.Q
		if canon, err = s.gen(size, catalogSeed(family)); err == nil {
			s.spec, err = fdqc.FromQuery(canon)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", family, err)
	}
	prefixSpec(s.spec, s.prefix)
	if err := s.rewrite(size, seed); err != nil {
		return nil, err
	}
	return s, nil
}

// catalogSeed is the seed the scenario catalog itself gives the family.
func catalogSeed(family string) int64 {
	for _, f := range scenario.Catalog() {
		if f.Name == family {
			if len(f.Full) > 0 {
				return f.Full[0].Seed
			}
			return f.Small[0].Seed
		}
	}
	return 0
}

// regenerate replaces the shape's instance with a fresh one (relations
// renamed under the shape's prefix).
func (s *shape) regenerate(size int, seed int64) error {
	q, err := s.gen(size, seed)
	if err != nil {
		return fmt.Errorf("%s: %w", s.family, err)
	}
	for _, r := range q.Rels {
		if !strings.HasPrefix(r.Name, s.prefix) { // a self-join lists one relation twice
			r.Name = s.prefix + r.Name
		}
	}
	s.inst, s.size, s.seed = q, size, seed
	return nil
}

// rewrite replaces the shape's instance with one of the given size drawn
// from seed. Some generators draw the FD structure itself from the seed
// (fd/chain-guarded flips a coin per step), and an instance must fit the
// served query, so rewrite tries successive seeds until the instance has
// the shape's spec.
func (s *shape) rewrite(size int, seed int64) error {
	want, err := json.Marshal(s.spec)
	if err != nil {
		return err
	}
	for i := int64(0); i < 256; i++ {
		if err := s.regenerate(size, seed+i); err != nil {
			return err
		}
		spec, err := fdqc.FromQuery(s.inst)
		if err != nil {
			return err
		}
		prefixSpec(spec, s.prefix)
		if got, err := json.Marshal(spec); err == nil && bytes.Equal(got, want) {
			return nil
		}
	}
	return fmt.Errorf("%s: no instance of size %d keeps the served query's shape", s.family, size)
}

// prefixSpec renames the spec's relations (and guards) under prefix, as
// regenerate renames the instance's.
func prefixSpec(spec *fdqc.QuerySpec, prefix string) {
	add := func(name *string) {
		if *name != "" && !strings.HasPrefix(*name, prefix) {
			*name = prefix + *name
		}
	}
	for i := range spec.Rels {
		add(&spec.Rels[i].Name)
	}
	for i := range spec.FDs {
		add(&spec.FDs[i].Guard)
	}
	for i := range spec.Degrees {
		add(&spec.Degrees[i].Guard)
	}
}

// table is one catalog relation as the benchmark writes it: the name, the
// column names, and the rows.
type table struct {
	name string
	cols []string
	rows [][]fdq.Value
}

// tables renders the shape's current instance as catalog relations. A
// self-join names one relation twice; it is written once.
func (s *shape) tables() ([]table, error) {
	seen := map[string]*rel.Relation{}
	var out []table
	for _, r := range s.inst.Rels {
		if prev, ok := seen[r.Name]; ok {
			if !rel.Identical(prev, r) {
				return nil, fmt.Errorf("%s: relation %s reused with different data", s.family, r.Name)
			}
			continue
		}
		seen[r.Name] = r
		t := table{name: r.Name, cols: make([]string, r.Arity()), rows: make([][]fdq.Value, r.Len())}
		for i, a := range r.Attrs {
			t.cols[i] = s.inst.Names[a]
		}
		for i := range t.rows {
			t.rows[i] = append([]fdq.Value(nil), r.Row(i)...)
		}
		out = append(out, t)
	}
	return out, nil
}

// master is the table stored the way fdq.Catalog stores it (positional
// attributes, sorted, deduplicated); the traced run binds its in-process
// replays to views of it.
func (t table) master() *rel.Relation {
	attrs := make([]int, len(t.cols))
	for i := range attrs {
		attrs[i] = i
	}
	m := rel.New(t.name, attrs...)
	m.Grow(len(t.rows))
	for _, row := range t.rows {
		m.Add(row...)
	}
	m.SortDedup()
	return m
}
