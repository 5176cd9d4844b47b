// Command fdqbench is the repository's served-query benchmark. It serves
// generated scenario-catalog instances from an in-process fdqd on loopback,
// drives them through fdqc connections in a closed loop, checks every reply
// against a reference computed outside the timed window, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// run) as one JSON object on the last line of standard output. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp-mix, analytic or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs and the operation sequence derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "fdqbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdqbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdqbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts are printed with every result.
type hostFacts struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Samples    map[string]int `json:"samples"`
	// Spread is the interquartile range over the median of a metric's
	// per-chunk values (per-set-up for setup_s): the run's own noise.
	Spread    map[string]float64 `json:"spread,omitempty"`
	ErrorRate float64            `json:"error_rate"`
	Errors    []string           `json:"errors,omitempty"`
}

func run(cfg runConfig) (*result, error) {
	def, ok := workloads()[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want oltp-mix, analytic or ingest)", cfg.workload)
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "fdqbench: warning: NumCPU = %d; parallel and two-connection figures are not meaningful below 2 CPUs\n", runtime.NumCPU())
	}
	b := &bench{cfg: cfg, def: def, writes: map[string][]float64{}}
	if err := b.prepare(); err != nil {
		if b.srv != nil {
			b.srv.stop()
		}
		return nil, err
	}
	ws := b.newWorkers()
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2 // untraced half, for the overhead baseline; traced half below
	}
	var alloc uint64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			srv, err := b.setupRound()
			if err == nil {
				err = srv.stop()
			}
			if err != nil {
				b.srv.stop()
				return nil, err
			}
		}
		runtime.GC()
		alloc0 := totalAlloc()
		b.loop(ws, d/setupRounds, false)
		alloc += totalAlloc() - alloc0
	}

	facts := hostFacts{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Samples: map[string]int{"setups": len(b.setups)}}
	var metrics map[string]metric
	var reads []float64
	var traced []*worker
	if !cfg.trace {
		metrics, facts.Spread, facts.Samples["chunks"] = b.endToEnd(ws, alloc)
	} else {
		for _, w := range ws {
			reads = append(reads, w.reads...)
		}
		var err error
		if traced, err = b.startTrace(time.Now()); err != nil {
			if b.srv != nil {
				b.srv.stop()
			}
			return nil, err
		}
		for i, w := range traced {
			w.opID = ws[i].opID
		}
		b.loop(traced, d, true)
		metrics = b.perLayer(traced, reads)
	}
	all := append(append([]*worker(nil), ws...), traced...)
	res := &result{Metrics: metrics}
	nreads := 0
	for _, w := range all {
		res.Attempted += w.tried
		res.Failed += w.failed
		nreads += len(w.reads)
	}
	if err := b.srv.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		trs := make([]*tracer, len(traced))
		for i, w := range traced {
			trs[i] = w.tr
		}
		if err := writeSpans(b.spanFile(), trs...); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s\n", b.spanFile())
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation ran in %v", d)
	}
	res.Correct = res.Failed == 0
	facts.Samples["reads"] = nreads
	for _, l := range b.writes {
		facts.Samples["writes"] += len(l)
	}
	facts.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	facts.Errors = b.errs
	report(facts, metrics, all)
	return res, nil
}

// report prints the host facts, every metric, and each family's read
// latencies as comment lines ahead of the result line.
func report(facts hostFacts, metrics map[string]metric, ws []*worker) {
	hf, _ := json.Marshal(facts)
	fmt.Printf("# host %s\n", hf)
	for _, n := range slices.Sorted(maps.Keys(metrics)) {
		fmt.Printf("# %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	byFam := map[string][]float64{}
	for _, w := range ws {
		for f, l := range w.byFam {
			byFam[f] = append(byFam[f], l...)
		}
	}
	for _, f := range slices.Sorted(maps.Keys(byFam)) {
		l := byFam[f]
		fmt.Printf("# read %-28s n=%-5d p50=%.3fms p90=%.3fms\n", f, len(l), percentile(l, 0.5), percentile(l, 0.9))
	}
}

// chunkReads is the fewest reads per connection a chunk of the run holds;
// see endToEnd.
const chunkReads = 400

// endToEnd computes the untraced run's metrics. Each connection's
// operations are split into up to ten consecutive chunks of at least
// chunkReads reads, and never fewer than two; each timing is computed per
// chunk and reported as the median over chunks, so a burst of interference
// from outside the process moves a chunk, not the result. Throughputs divide by the time each
// connection spent inside operations, which leaves out reply checking and
// ingest's untimed instance generation.
func (b *bench) endToEnd(ws []*worker, alloc uint64) (map[string]metric, map[string]float64, int) {
	k, fewest := 10, math.MaxInt
	ops := 0
	for _, w := range ws {
		k = min(k, len(w.reads)/chunkReads)
		fewest = min(fewest, len(w.events))
		ops += w.tried
	}
	// Two chunks give the run its own spread; a chunk needs an operation.
	k = max(k, min(2, fewest), 1)
	var p50, p90, qps, rps []float64
	for c := 0; c < k; c++ {
		var lats []float64
		var rows int
		var busy time.Duration
		for _, w := range ws {
			for _, e := range w.events[c*len(w.events)/k : (c+1)*len(w.events)/k] {
				busy += e.lat
				if e.write {
					continue
				}
				lats = append(lats, durMS(e.lat))
				rows += e.rows
			}
		}
		perConn := busy.Seconds() / float64(len(ws))
		p50 = append(p50, percentile(lats, 0.5))
		p90 = append(p90, percentile(lats, 0.9))
		qps = append(qps, float64(len(lats))/perConn)
		rps = append(rps, float64(rows)/perConn)
	}
	if b.ingest != nil {
		// Ingest regenerates instances and references between rounds;
		// count only what its operations allocated.
		alloc = 0
		for _, w := range ws {
			alloc += w.alloc
		}
	}
	m := map[string]metric{
		"setup_s":         {median(b.setups), "s"},
		"query_p50_ms":    {median(p50), "ms"},
		"query_p90_ms":    {median(p90), "ms"},
		"throughput_qps":  {median(qps), "1/s"},
		"rows_per_s":      {median(rps), "1/s"},
		"alloc_mb_per_op": {float64(alloc) / float64(ops) / (1 << 20), "MB"},
		"write_p50_ms":    {b.writeP50(), "ms"},
	}
	spread := map[string]float64{"setup_s": iqrShare(b.setups)}
	if k >= 2 {
		spread["query_p50_ms"], spread["query_p90_ms"] = iqrShare(p50), iqrShare(p90)
		spread["throughput_qps"], spread["rows_per_s"] = iqrShare(qps), iqrShare(rps)
	}
	return m, spread, k
}

// writeP50 is the typical write latency: each relation's median Define
// latency, averaged over the relations. (The median over all writes would
// sit in the gap between small and large relations' latencies and jump
// across it from run to run.)
func (b *bench) writeP50() float64 {
	var meds []float64
	for _, l := range b.writes {
		meds = append(meds, median(l))
	}
	return mean(meds)
}

// algPackages maps RunStats.Algorithm to the executor package it runs.
var algPackages = map[string]string{"generic": "wcoj", "chain": "chainalg", "sm": "smalg", "csma": "csma"}

// perLayer computes the traced run's metrics. Span metrics are self time
// per traced read; untraced are the latencies of the untraced half, the
// baseline for the tracing overhead.
func (b *bench) perLayer(ws []*worker, untraced []float64) map[string]metric {
	acc := &b.acc
	trs := make([]*tracer, len(ws))
	hits, misses := 0, 0
	for i, w := range ws {
		trs[i] = w.tr
		cs := w.mir.sess.CacheStats()
		hits += cs.Hits
		misses += cs.Misses
	}
	spans := aggregate(trs...)
	n := float64(max(acc.ops, 1))
	perOp := func(name string) metric { return metric{durMS(spans[name].Self) / n, "ms"} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{
		"fdqc.first_frame_ms":       perOp("fdqc.first_frame"),
		"fdqc.stream_ms":            perOp("fdqc.stream"),
		"fdqc.encode_ns_per_row":    {ratio(float64(acc.enc.Nanoseconds()), float64(acc.codecRows)), "ns"},
		"fdqc.decode_ns_per_row":    {ratio(float64(acc.dec.Nanoseconds()), float64(acc.codecRows)), "ns"},
		"fdqd.nonexec_ms":           {durMS(acc.nonexec) / n, "ms"},
		"fdqd.rows_streamed_per_op": {float64(acc.streamed) / n, "count"},
		"fdq.resolve_ms":            perOp("fdq.resolve"),
		"fdq.cache_hit_ratio":       {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"fdq.rebind_ratio":          {float64(acc.cold) / n, "ratio"},
		"fdq.define_ms":             {mean(slices.Concat(slices.Collect(maps.Values(b.writes))...)), "ms"},
		"fdq.admission_wait_ms":     {ratio(durMS(acc.queueWait), float64(acc.statOps)), "ms"},
		"engine.prepare_ms":         perOp("engine.prepare"),
		"engine.plan_ms":            perOp("engine.plan"),
		"engine.plan_ratio":         {float64(acc.planned) / n, "ratio"},
		"bounds.chain_ms":           perOp("bounds.chain"),
		"bounds.llp_ms":             perOp("bounds.llp"),
		"bounds.cllp_ms":            perOp("bounds.cllp"),
		"smalg.proof_ms":            perOp("smalg.proof"),
		"query.validate_ms":         perOp("query.validate"),
		"rel.index_build_ms":        perOp("rel.index_build"),
		"rel.trie_build_ms":         perOp("rel.trie_build"),
		"engine.exec_ms":            {durMS(acc.exec) / n, "ms"},
		"engine.parallel_speedup":   {ratio(float64(acc.seq), float64(acc.par)), "ratio"},
		"engine.morsels_per_op":     {float64(acc.morsels) / n, "count"},
		"engine.steals_per_op":      {float64(acc.steals) / n, "count"},
		"wcoj.match_ratio":          {ratio(float64(acc.matches), float64(acc.candidates)), "ratio"},
		"engine.bound_slack_log2":   {ratio(acc.slack, float64(acc.slackN)), "log2"},
		"trace.overhead_pct":        {(median(acc.wireLat)/median(untraced) - 1) * 100, "%"},
	}
	for alg, pkg := range algPackages {
		m[pkg+".exec_ms"] = metric{ratio(durMS(acc.execByAlg[alg]), float64(acc.nByAlg[alg])), "ms"}
	}
	return m
}
