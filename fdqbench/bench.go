package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
)

// workloadDef describes one workload: which shapes the server holds, how
// many closed-loop connections drive it, and what each operation asks.
type workloadDef struct {
	conns  int
	shapes []famSize
	count  bool     // every read is COUNT-only
	limit  float64  // share of reads that carry a LIMIT (row-delivering workloads)
	writes []string // ingest: families whose relations are rewritten, in rotation
}

type famSize struct {
	family string
	size   int
}

// maxLimit bounds the LIMIT drawn for oltp-mix reads.
const maxLimit = 64

func workloads() map[string]workloadDef {
	portable, _ := portableFamilies()
	var oltp []famSize
	for _, f := range portable {
		size := fullSize(f)
		if f == "paper/simple-fd-chain" {
			// Its full tier answers ~3.4·10^5 rows in ~0.2 s: an analytic
			// query, which would dominate an OLTP mix. Serve the small tier.
			size = smallSize(f)
		}
		oltp = append(oltp, famSize{f, size})
	}
	return map[string]workloadDef{
		// The served hot path: wire, session-cache hits and short
		// executions; planning does none.
		"oltp-mix": {conns: 2, shapes: oltp, limit: 0.25},
		// Large COUNTs: executors, index probes and the morsel scheduler
		// work while the wire carries a few frames. One client leaves the
		// second core to intra-query parallelism. The set covers
		// generic-join, chain, SM and CSMA plans.
		"analytic": {conns: 1, count: true, shapes: []famSize{
			{"motif/cycle4", 1536}, {"skew/zipf-hot", 8192}, {"skew/near-product", 2048},
			{"worst/agm-product", 4096}, {"motif/clique4", 4096}, {"fd/dag", 4096},
			{"paper/four-cycle-key", 4096}, {"paper/colored-triangle", 4096},
			{"paper/degree-triangle", 8192},
		}},
		// Writes beside reads on FD-rich shapes: each write bumps the
		// catalog version, so every read re-binds, validates and builds
		// cold, and the written shape re-plans. composite-key and the
		// Fig. 1 script are read, not rewritten: their generators have too
		// few distinct sizes to keep the plan memo cold.
		"ingest": {conns: 1, shapes: []famSize{
			{"paper/colored-triangle", 256}, {"paper/four-cycle-key", 256},
			{"paper/degree-triangle", 512}, {"fd/chain-guarded", 128},
			{"fd/dag", 256}, {"fd/cycle", 256}, {"paper/composite-key", 32},
			{fig1Family, 64},
		}, writes: []string{"paper/colored-triangle", "paper/four-cycle-key",
			"paper/degree-triangle", "fd/chain-guarded", "fd/dag", "fd/cycle"}},
	}
}

type opKind int

const (
	opCollect opKind = iota
	opLimit
	opCount
)

func (k opKind) String() string { return [...]string{"collect", "limit", "count"}[k] }

// op is one read: a shape and what to ask of it.
type op struct {
	shape *shape
	kind  opKind
	limit int
}

// opStream deals a connection's reads: the shapes in a seeded shuffled
// order, reshuffled every pass, with a fixed share of each pass read under
// a LIMIT, so each shape and each kind of read gets the same share of
// reads in any run.
type opStream struct {
	rng    *rand.Rand
	shapes []*shape
	def    workloadDef
	deck   []int
	lim    []bool // per deck position: read with a LIMIT
	pos    int
}

func newOpStream(def workloadDef, shapes []*shape, seed int64) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed)), shapes: shapes, def: def}
}

func (s *opStream) next() op {
	if s.pos == len(s.deck) {
		n := len(s.shapes)
		s.deck = s.rng.Perm(n)
		s.lim = make([]bool, n)
		for _, i := range s.rng.Perm(n)[:int(math.Round(s.def.limit*float64(n)))] {
			s.lim[i] = true
		}
		s.pos = 0
	}
	sh, limited := s.shapes[s.deck[s.pos]], s.lim[s.pos]
	s.pos++
	switch {
	case s.def.count:
		return op{shape: sh, kind: opCount}
	case limited:
		return op{shape: sh, kind: opLimit, limit: 1 + s.rng.Intn(maxLimit)}
	}
	return op{shape: sh, kind: opCollect}
}

// generateShapes builds the workload's shapes from the seed.
func generateShapes(def workloadDef, seed int64) ([]*shape, error) {
	out := make([]*shape, len(def.shapes))
	for i, fs := range def.shapes {
		s, err := newShape(fs.family, i, fs.size, deriveSeed(seed, fs.family))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// server is one served catalog: an in-process fdqd on a loopback listener
// and the benchmark's client connections to it.
type server struct {
	cat     *fdq.Catalog
	srv     *fdqd.Server
	served  chan error
	clients []*fdqc.Client
}

// batchRows is the rows per batch frame the server sends, and the batch
// size the traced run's codec replay encodes.
const batchRows = 256

// governor is the default tenant's admission control: queue on the
// certified bound with a budget no served query reaches, so admission runs
// on every query and never waits.
func governor() []fdq.GovernorOption {
	return []fdq.GovernorOption{fdq.WithPolicy(fdq.PolicyQueue), fdq.WithMaxLogBound(60)}
}

// start defines every table, serves the catalog on loopback and dials the
// connections.
func start(shapes []*shape, conns int) (*server, error) {
	s := &server{cat: fdq.NewCatalog(), served: make(chan error, 1)}
	for _, sh := range shapes {
		tabs, err := sh.tables()
		if err != nil {
			return nil, err
		}
		for _, t := range tabs {
			if err := s.cat.Define(t.name, t.cols, t.rows); err != nil {
				return nil, err
			}
		}
	}
	srv, err := fdqd.New(fdqd.Config{Catalog: s.cat, DefaultGovernor: governor(), BatchRows: batchRows})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = srv
	go func() { s.served <- srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := fdqc.Dial(ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop closes the connections and shuts the server down, waiting for it.
func (s *server) stop() error {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// opResult is what one read returned and how long it took.
type opResult struct {
	rows  int
	vals  []fdq.Value // delivered rows, row-major (nil for COUNT)
	stats *fdq.RunStats
	lat   time.Duration
}

// runOp sends one read over the connection and consumes the reply, under
// the fdqc.* spans when traced. The first-frame span runs from sending the
// query to the first row (or the end of an empty or COUNT reply).
func runOp(c *fdqc.Client, o op, t *tracer, buf []fdq.Value) (opResult, error) {
	ctx := context.Background()
	var res opResult
	spec := o.shape.spec
	t.begin("fdqc.query")
	start := time.Now()
	if o.kind == opCount {
		t.begin("fdqc.first_frame")
		n, err := c.Count(ctx, spec)
		t.end()
		res.lat = time.Since(start)
		t.end()
		res.rows = n
		return res, err
	}
	if o.kind == opLimit {
		ls := *spec
		ls.Limit = o.limit
		spec = &ls
	}
	t.begin("fdqc.first_frame")
	rows, err := c.Query(ctx, spec)
	more := err == nil && rows.Next()
	t.end()
	if err != nil {
		t.end()
		return res, err
	}
	t.begin("fdqc.stream")
	vals := buf[:0]
	for ; more; more = rows.Next() {
		vals = append(vals, rows.Row()...)
		res.rows++
	}
	err = rows.Err()
	res.stats = rows.Stats()
	rows.Close()
	t.end()
	res.lat = time.Since(start)
	t.end()
	res.vals = vals
	return res, err
}

// check compares a read's reply with its reference.
func check(o op, res opResult, ref *reference) error {
	want := ref.rows
	if o.kind == opLimit {
		want = min(o.limit, ref.rows)
	}
	if res.rows != want {
		return fmt.Errorf("%s %s: %d rows, want %d", o.shape.family, o.kind, res.rows, want)
	}
	if o.kind == opCount {
		return nil
	}
	if got := digestRows(res.vals, len(o.shape.spec.Vars)); got != ref.prefix[want] {
		return fmt.Errorf("%s %s: row digest %x, want %x", o.shape.family, o.kind, got, ref.prefix[want])
	}
	if res.stats == nil || res.stats.Rows != want {
		return fmt.Errorf("%s %s: stats frame %+v does not report %d rows", o.shape.family, o.kind, res.stats, want)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// totalAlloc reads the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
