package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/rel"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 5, 5, 5}, [3]float64{5, 5, 5}},
		{[]float64{1.5, 2.5, 10, 4, 7, 8}, [3]float64{2.25, 5.5, 8.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// A run with too few reads for full chunks still splits into two, so it
// reports its own spread.
func TestEndToEndTwoChunks(t *testing.T) {
	w := &worker{tried: 10}
	for i := 1; i <= 10; i++ {
		w.reads = append(w.reads, float64(i))
		w.events = append(w.events, event{lat: time.Duration(i) * time.Millisecond, rows: 1})
	}
	b := &bench{setups: []float64{1, 2, 3}, writes: map[string][]float64{"r": {1}}}
	m, spread, k := b.endToEnd([]*worker{w}, 0)
	if k != 2 {
		t.Fatalf("%d chunks, want 2", k)
	}
	if _, ok := spread["query_p50_ms"]; !ok {
		t.Error("no per-run spread for query_p50_ms")
	}
	// Chunk medians 3 and 8 ms.
	if got := m["query_p50_ms"].Value; got != 5.5 {
		t.Errorf("query_p50_ms = %v, want 5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(time.Now())
	tr.beginOp(1, "op")
	tr.begin("child")
	tr.end()
	tr.begin("child")
	tr.end()
	tr.end()
	// Pin the durations: op 10ms, children 3ms and 2ms.
	tr.spans[0].End = tr.spans[0].Start + 10*time.Millisecond
	tr.spans[1].End = tr.spans[1].Start + 3*time.Millisecond
	tr.spans[2].End = tr.spans[2].Start + 2*time.Millisecond
	agg := aggregate(tr)
	if got := agg["op"].Self; got != 5*time.Millisecond {
		t.Errorf("op self time %v, want 5ms", got)
	}
	if got := agg["child"]; got.Count != 2 || got.Self != 5*time.Millisecond {
		t.Errorf("child stats %+v, want 2 spans, 5ms self", got)
	}
	for _, s := range tr.spans {
		if s.Op != 1 {
			t.Errorf("span %s has op %d, want 1", s.Name, s.Op)
		}
	}
	var none *tracer
	none.beginOp(1, "op") // a nil tracer records nothing and must not panic
	none.end()
}

// opSequence renders the first n reads each connection of a workload deals
// (and, for ingest, the first n writes).
func opSequence(t *testing.T, def workloadDef, seed int64, n int) []string {
	t.Helper()
	shapes, err := generateShapes(def, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for c := 0; c < def.conns; c++ {
		s := newOpStream(def, shapes, deriveSeed(seed, fmt.Sprintf("conn/%d", c)))
		for i := 0; i < n; i++ {
			o := s.next()
			out = append(out, fmt.Sprintf("%s/%s/%d", o.shape.family, o.kind, o.limit))
		}
	}
	if def.writes != nil {
		in := newIngester(def, shapes, seed)
		for i := 0; i < n; i++ {
			sh, size, s := in.next()
			out = append(out, fmt.Sprintf("%s@%d/%d", sh.family, size, s))
		}
	}
	return out
}

// catalogDigest fingerprints a set of shapes: family, prefix, size, seed
// and every row of every relation.
func catalogDigest(shapes []*shape) uint64 {
	h := fnv.New64a()
	for _, s := range shapes {
		fmt.Fprintf(h, "%s|%s|%d|%d\n", s.family, s.prefix, s.size, s.seed)
		for _, r := range s.inst.Rels {
			fmt.Fprintf(h, "%s:%d:", r.Name, r.Len())
			for i := 0; i < r.Len(); i++ {
				fmt.Fprint(h, r.Row(i))
			}
		}
	}
	return h.Sum64()
}

func TestDeterministicGeneration(t *testing.T) {
	for name, def := range workloads() {
		s1, err := generateShapes(def, 11)
		if err != nil {
			t.Fatal(err)
		}
		s1b, _ := generateShapes(def, 11)
		s2, _ := generateShapes(def, 12)
		if catalogDigest(s1) != catalogDigest(s1b) {
			t.Errorf("%s: same seed, different catalog", name)
		}
		if catalogDigest(s1) == catalogDigest(s2) {
			t.Errorf("%s: new seed, same catalog", name)
		}
		a, b, c := opSequence(t, def, 11, 40), opSequence(t, def, 11, 40), opSequence(t, def, 12, 40)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed, different operation sequence", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: new seed, same operation sequence", name)
		}
	}
}

// The replays bind queries lowered from the wire spec onto stored
// relations; they must be the query the server answers.
func TestBuildQueryMatchesInstance(t *testing.T) {
	for name, def := range workloads() {
		shapes, err := generateShapes(def, 3)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{shapes: shapes}
		if err := b.buildMasters(); err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			if def.count && sh.inst.TotalSize() > 4096 {
				continue // large analytic shapes: covered by the smoke run's checks
			}
			q, err := buildQuery(sh.spec, b.masters)
			if err != nil {
				t.Fatalf("%s %s: %v", name, sh.family, err)
			}
			got, err := computeReference(q, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := computeReference(sh.inst, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.rows != want.rows || got.prefix[got.rows] != want.prefix[want.rows] {
				t.Errorf("%s %s: lowered query answers %d rows, instance %d", name, sh.family, got.rows, want.rows)
			}
		}
	}
}

func TestRewriteKeepsShape(t *testing.T) {
	sh, err := newShape("fd/chain-guarded", 0, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(sh.spec)
	for size := 96; size <= 160; size += 16 {
		if err := sh.rewrite(size, int64(size)); err != nil {
			t.Fatal(err)
		}
		if err := sh.inst.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if sh.size != size {
			t.Errorf("rewrite kept size %d, want %d", sh.size, size)
		}
	}
	if got, _ := json.Marshal(sh.spec); string(got) != string(want) {
		t.Error("rewrite changed the served spec")
	}
}

// coldIndexTime is the fastest of several cold index builds on fresh views
// of r, and hitTime the fastest repeated call on a built one.
func coldIndexTime(r *rel.Relation, prio []int) (cold, hit time.Duration) {
	cold, hit = time.Hour, time.Hour
	for i := 0; i < 5; i++ {
		v := r.WithAttrs(r.Name, r.Attrs...)
		t0 := time.Now()
		ix := v.IndexOn(prio...)
		cold = min(cold, time.Since(t0))
		t0 = time.Now()
		if v.IndexOn(prio...) != ix {
			panic("index not cached")
		}
		hit = min(hit, time.Since(t0))
	}
	return cold, hit
}

// The traced run's rel.index_build_ms must time builds, not cache hits: a
// build on a fresh view grows with the rows, a hit does not.
func TestIndexBuildIsCold(t *testing.T) {
	mk := func(n int) *rel.Relation {
		r := rel.New("R", 0, 1)
		for i := 0; i < n; i++ {
			r.Add(rel.Value((i*7919)%n), rel.Value(i))
		}
		r.SortDedup()
		return r
	}
	small, large := mk(2000), mk(64000)
	cs, hs := coldIndexTime(small, []int{1, 0})
	cl, hl := coldIndexTime(large, []int{1, 0})
	if cl < 8*cs {
		t.Errorf("cold build of 32x the rows took %v vs %v: not growing with rows", cl, cs)
	}
	if hl > cs || hs > cs {
		t.Errorf("cache hits (%v, %v) not cheaper than the smallest cold build %v", hs, hl, cs)
	}
}

// benchmarkSpec mirrors BENCHMARK.json's metric lists.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricNames(t *testing.T) {
	spec := loadSpec(t)
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRe.MatchString(name) || !unitRe.MatchString(unit) {
			t.Errorf("invalid metric %q unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	defs := workloads()
	for _, w := range spec.Workloads {
		if _, ok := defs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not define", w.Name)
		}
	}
}

// A short run of every workload, untraced and traced, must check out and
// report exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{workload: w.Name, seed: 2, seconds: 0.4, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", w.Name, traced, name, m, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}
