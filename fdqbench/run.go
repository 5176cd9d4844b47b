package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/rel"
)

// A run sets up its served catalog in setupRounds rounds: one before the
// measured loop, the others between equal parts of it. Each round sets up
// at least setupReps/setupRounds times and for setupSeconds/setupRounds
// seconds. So set-up is sampled over the same stretch of the host's
// drifting speed as the reads, and a short set-up over as long a stretch
// as a long one. setup_s is the median over every set-up; the first
// round's last set-up is the one measured.
const (
	setupRounds  = 4
	setupReps    = 24
	setupSeconds = 6.0
)

// sampleEvery: the traced run measures parallel speedup and Generic-Join
// match counts on every sampleEvery-th read of a connection.
const sampleEvery = 4

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for the span file
}

// bench is one run's state.
type bench struct {
	cfg     runConfig
	def     workloadDef
	shapes  []*shape
	refs    map[string]*reference
	srv     *server
	masters map[string]*rel.Relation // traced run: the stored relations the replays bind
	writes  map[string][]float64     // Define latencies (ms) by relation: ingest's writes, or the write probe's
	setups  []float64                // seconds per set-up
	ingest  *ingester
	errs    []string // first few failures, for the report
	errMu   sync.Mutex
	acc     layerAcc // traced half, all connections
	accMu   sync.Mutex
	// wireMu keeps a traced replay from overlapping any wire read: reads
	// hold it shared, a replay exclusively. So the wire spans and
	// trace.overhead_pct time the program, not the replay competing for
	// the CPUs.
	wireMu sync.RWMutex
}

// worker is one closed-loop connection.
type worker struct {
	client  *fdqc.Client
	ops     *opStream
	tr      *tracer
	mir     *mirror
	buf     []fdq.Value
	opID    int64
	reads   []float64 // latency (ms) of each successful read
	events  []event   // every successful operation, in order
	byFam   map[string][]float64
	rows    int64
	busy    time.Duration // time inside operations
	alloc   uint64        // bytes allocated inside operations (ingest)
	tried   int
	failed  int
	readCnt int
}

// event is one successful operation of a connection.
type event struct {
	lat   time.Duration
	rows  int
	write bool
}

// layerAcc accumulates what the traced run measures beyond spans.
type layerAcc struct {
	ops        int
	wireLat    []float64 // ms, traced reads
	statOps    int
	queueWait  time.Duration
	nonexec    time.Duration
	streamed   int64
	codecRows  int64
	enc, dec   time.Duration
	cold       int
	planned    int
	exec       time.Duration
	execByAlg  map[string]time.Duration
	nByAlg     map[string]int
	morsels    int64
	steals     int64
	slack      float64
	slackN     int
	seq, par   time.Duration
	matches    int64
	candidates int64
}

func (b *bench) fail(w *worker, err error) {
	w.failed++
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err.Error())
	}
}

// setup defines the current instances in a new catalog, serves it and
// warms every connection on every shape; it returns the server and the
// seconds that took. Instance generation happens before, untimed. Reads
// during warm-up are checked like measured ones.
func (b *bench) setup() (*server, float64, error) {
	t0 := time.Now()
	srv, err := start(b.shapes, b.def.conns)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range srv.clients {
		for _, sh := range b.shapes {
			o := op{shape: sh, kind: opCollect}
			if b.def.count {
				o.kind = opCount
			}
			res, err := runOp(c, o, nil, nil)
			if err == nil {
				err = check(o, res, b.refs[sh.prefix])
			}
			if err != nil {
				srv.stop()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return srv, time.Since(t0).Seconds(), nil
}

// setupRound is one round of set-ups (see setupRounds), each after a GC. It
// returns the last set-up's server.
func (b *bench) setupRound() (*server, error) {
	var srv *server
	for n, total := 0, 0.0; n < setupReps/setupRounds || total < setupSeconds/setupRounds; n++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		runtime.GC()
		s, secs, err := b.setup()
		if err != nil {
			return nil, err
		}
		srv = s
		b.setups = append(b.setups, secs)
		total += secs
	}
	return srv, nil
}

// prepare generates the workload's instances from the seed, computes
// their references, cross-checks the reference evaluator, and runs the
// first round of set-ups, keeping its last server.
func (b *bench) prepare() error {
	var families []string
	for _, fs := range b.def.shapes {
		families = append(families, fs.family)
	}
	if err := crossCheckNaive(families, b.cfg.seed); err != nil {
		return err
	}
	shapes, err := generateShapes(b.def, b.cfg.seed)
	if err != nil {
		return err
	}
	b.refs = map[string]*reference{}
	for _, sh := range shapes {
		ref, err := computeReference(sh.inst, !b.def.count)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", sh.family, err)
		}
		b.refs[sh.prefix] = ref
	}
	b.shapes = shapes
	if b.srv, err = b.setupRound(); err != nil {
		return err
	}
	if len(b.def.writes) > 0 {
		b.ingest = newIngester(b.def, b.shapes, b.cfg.seed)
		return nil
	}
	return b.probeWrites()
}

// probeReps is how many times the write probe loads the catalog.
const probeReps = 50

// probeWrites measures Catalog.Define on a workload whose measured loop
// makes no writes: after a GC, it loads the served tables into a fresh,
// unserved catalog probeReps times. (Timing the set-up loads instead would
// time Defines racing the garbage the instance generation just left.)
func (b *bench) probeWrites() error {
	var tabs []table
	for _, sh := range b.shapes {
		t, err := sh.tables()
		if err != nil {
			return err
		}
		tabs = append(tabs, t...)
	}
	runtime.GC()
	for i := 0; i < probeReps; i++ {
		cat := fdq.NewCatalog()
		for _, t := range tabs {
			t0 := time.Now()
			if err := cat.Define(t.name, t.cols, t.rows); err != nil {
				return err
			}
			b.writes[t.name] = append(b.writes[t.name], msSince(t0))
		}
	}
	return nil
}

func (b *bench) newWorkers() []*worker {
	ws := make([]*worker, b.def.conns)
	for i := range ws {
		ws[i] = &worker{client: b.srv.clients[i],
			ops: newOpStream(b.def, b.shapes, deriveSeed(b.cfg.seed, fmt.Sprintf("conn/%d", i)))}
	}
	return ws
}

// read runs, checks and (when traced) replays one read.
func (b *bench) read(w *worker, o op) {
	w.opID++
	w.tr.beginOp(w.opID, "op")
	defer w.tr.end()
	b.wireMu.RLock()
	res, err := runOp(w.client, o, w.tr, w.buf)
	b.wireMu.RUnlock()
	w.buf = res.vals
	w.tried++
	w.busy += res.lat
	if err == nil {
		err = check(o, res, b.refs[o.shape.prefix])
	}
	if err != nil {
		b.fail(w, err)
		return
	}
	w.reads = append(w.reads, durMS(res.lat))
	w.events = append(w.events, event{lat: res.lat, rows: res.rows})
	if w.byFam == nil {
		w.byFam = map[string][]float64{}
	}
	w.byFam[o.shape.family] = append(w.byFam[o.shape.family], durMS(res.lat))
	w.rows += int64(res.rows)
	if w.mir == nil {
		return
	}
	w.readCnt++
	b.wireMu.Lock()
	out, err := w.mir.replay(w.tr, o.shape, o, res.vals, w.readCnt%sampleEvery == 0)
	b.wireMu.Unlock()
	if err != nil {
		b.fail(w, fmt.Errorf("%s replay: %w", o.shape.family, err))
		return
	}
	b.accMu.Lock()
	b.acc.add(o, res, out)
	b.accMu.Unlock()
}

func (a *layerAcc) add(o op, res opResult, out replayOut) {
	a.ops++
	a.wireLat = append(a.wireLat, durMS(res.lat))
	exec := out.exec.Duration
	if res.stats != nil {
		a.statOps++
		a.queueWait += res.stats.QueueWait
		exec = res.stats.Duration + res.stats.QueueWait
	}
	a.nonexec += res.lat - exec
	if o.kind != opCount {
		a.streamed += int64(res.rows)
	}
	a.codecRows += int64(out.codecRows)
	a.enc += out.encodeDur
	a.dec += out.decodeDur
	if out.cold {
		a.cold++
	}
	if out.planned {
		a.planned++
	}
	st := out.exec
	a.exec += st.Duration
	if a.execByAlg == nil {
		a.execByAlg, a.nByAlg = map[string]time.Duration{}, map[string]int{}
	}
	alg := string(st.Plan.Algorithm)
	a.execByAlg[alg] += st.Duration
	a.nByAlg[alg]++
	a.morsels += int64(st.Morsels)
	a.steals += int64(st.Steals)
	if o.kind != opLimit && st.OutSize > 0 && !math.IsInf(st.Plan.LogBound, 0) && !math.IsNaN(st.Plan.LogBound) {
		a.slack += st.Plan.LogBound - math.Log2(float64(st.OutSize))
		a.slackN++
	}
	a.seq += out.seqTime
	a.par += out.parTime
	a.matches += out.matches
	a.candidates += out.cands
}

// loop runs closed-loop reads on every worker until each has spent d
// inside operations (or, with wall set, until d of wall clock passed). A
// worker stops at 4d of wall clock regardless, so a run whose operations
// keep failing before they are timed still ends.
func (b *bench) loop(ws []*worker, d time.Duration, wall bool) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			start, busy0 := time.Now(), w.busy
			for {
				elapsed := time.Since(start)
				if wall && elapsed >= d || !wall && w.busy-busy0 >= d || elapsed >= 4*d {
					return
				}
				if b.ingest != nil {
					b.ingestRound(w)
				} else {
					b.read(w, w.ops.next())
				}
			}
		}(w)
	}
	wg.Wait()
}

// ingester deals ingest's writes: the written families in a seeded order,
// each taking its sizes from a seeded permutation of a window around its
// full-tier size, so sizes do not repeat until the window is used up and
// execution cost stays within the window's range.
type ingester struct {
	rng     *rand.Rand
	written []*shape
	sizes   map[string][]int
	deck    []int
	pos     int
	rounds  map[string]int
	shapes  []*shape
}

func newIngester(def workloadDef, shapes []*shape, seed int64) *ingester {
	in := &ingester{rng: rand.New(rand.NewSource(deriveSeed(seed, "ingest"))),
		sizes: map[string][]int{}, rounds: map[string]int{}, shapes: shapes}
	for _, fam := range def.writes {
		for _, sh := range shapes {
			if sh.family != fam {
				continue
			}
			in.written = append(in.written, sh)
			full := fullSize(fam)
			lo, hi := full*3/4, full*5/4
			perm := in.rng.Perm(hi - lo + 1)
			for i := range perm {
				perm[i] += lo
			}
			in.sizes[fam] = perm
		}
	}
	return in
}

// next picks the next write: a shape, a size and an instance seed.
func (in *ingester) next() (*shape, int, int64) {
	if in.pos == len(in.deck) {
		in.deck = in.rng.Perm(len(in.written))
		in.pos = 0
	}
	sh := in.written[in.deck[in.pos]]
	in.pos++
	sizes := in.sizes[sh.family]
	r := in.rounds[sh.family]
	in.rounds[sh.family] = r + 1
	return sh, sizes[r%len(sizes)], in.rng.Int63()
}

// ingestRound writes one family's fresh instance and then reads every
// shape once. Generation and reference computation happen first, outside
// the operations' timing.
func (b *bench) ingestRound(w *worker) {
	sh, size, seed := b.ingest.next()
	err := sh.rewrite(size, seed)
	var tabs []table
	if err == nil {
		tabs, err = sh.tables()
	}
	if err == nil {
		var ref *reference
		if ref, err = computeReference(sh.inst, true); err == nil {
			b.refs[sh.prefix] = ref
		}
	}
	if err != nil {
		w.tried++ // the write this round could not make
		b.fail(w, err)
		return
	}
	alloc0 := totalAlloc()
	w.opID++
	w.tr.beginOp(w.opID, "write")
	for _, t := range tabs {
		w.tried++
		w.tr.begin("fdq.define")
		t0 := time.Now()
		err := b.srv.cat.Define(t.name, t.cols, t.rows)
		d := time.Since(t0)
		w.tr.end()
		w.busy += d
		if err != nil {
			b.fail(w, err)
			continue
		}
		w.events = append(w.events, event{lat: d, write: true})
		b.writes[t.name] = append(b.writes[t.name], durMS(d))
	}
	w.tr.end()
	if b.masters != nil {
		for _, t := range tabs {
			b.masters[t.name] = t.master()
		}
	}
	for _, s := range b.ingest.shapes {
		b.read(w, op{shape: s, kind: opCollect})
	}
	w.alloc += totalAlloc() - alloc0
}

// buildMasters stores, for the traced run's replays, every relation the
// way the catalog stores it.
func (b *bench) buildMasters() error {
	b.masters = map[string]*rel.Relation{}
	for _, sh := range b.shapes {
		tabs, err := sh.tables()
		if err != nil {
			return err
		}
		for _, t := range tabs {
			b.masters[t.name] = t.master()
		}
	}
	return nil
}

// startTrace serves the current catalog from a fresh server, so the traced
// half starts cold: each shape's first read is a session-cache miss on the
// server and in the mirror alike. The per-layer metrics thus amortize the
// cold start over the traced reads. Every worker gets a tracer and a fresh
// mirror.
func (b *bench) startTrace(epoch time.Time) ([]*worker, error) {
	if err := b.srv.stop(); err != nil {
		return nil, err
	}
	srv, err := start(b.shapes, b.def.conns)
	if err != nil {
		b.srv = nil
		return nil, err
	}
	b.srv = srv
	if err := b.buildMasters(); err != nil {
		return nil, err
	}
	ws := b.newWorkers()
	for _, w := range ws {
		w.tr = newTracer(epoch)
		w.mir = newMirror(b.srv.cat, b.masters, fdq.WithGovernor(fdq.NewGovernor(governor()...)))
	}
	return ws, nil
}

// spanFile is where a traced run writes its spans.
func (b *bench) spanFile() string {
	return filepath.Join(b.cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
}
