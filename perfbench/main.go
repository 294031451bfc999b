// Command perfbench is the repository's benchmark: it builds a Part
// database, drives one of three closed-loop workloads against the real
// engine, checks the answers against a model, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload wire-commit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around its calls into each layer and reports the
// per-layer ones instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// workloads are the three database shapes. Makes and deletes are equally
// likely, so hierarchies keep their loaded size and the workload does not
// drift with run length.
var workloads = map[string]*workload{
	"wire-commit": {name: "wire-commit", shards: 1, pool: 256, serve: true,
		m: mix{read: 0.10, set: 0.60, make: 0.20}, open: openWire},
	"composite-read": {name: "composite-read", shards: 1, pool: 4096, shared: 100, cands: 4,
		m: mix{read: 0.90, set: 1, share: 0.5, solo: true}, open: openEmbed},
	"sharded-2pc": {name: "sharded-2pc", shards: 4, pool: 256,
		m: mix{read: 0.10, cross: 0.25, set: 0.45, make: 0.15}, open: openTyped},
}

func defaultConfig() config {
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	return config{hiers: 500, clients: clients,
		setups: 3, reopens: 5, warmOps: 300}
}

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "wire-commit, composite-read or sharded-2pc")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: hot-set order, op sequence, shared-part layout")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench-work", "scratch directory for databases and the trace")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]ratio
	defs      []metricDef
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the last output line. A metric whose base was zero on this
// workload has no value; the line carries 0 for it so that every name
// is present, and the report above lists it as absent.
func (r result) final() map[string]any {
	m := map[string]jsonMetric{}
	for _, d := range r.defs {
		m[d.name] = jsonMetric{Value: r.metrics[d.name].v, Unit: d.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": m}
}

// run executes one workload run and writes the report to out.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace {
		cfg.setups, cfg.reopens = 1, 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	tr := newTracer(cfg.clients)
	checks := &checker{}

	var e *env
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.teardown()
		}
		e = &env{cfg: cfg, w: w, dir: filepath.Join(work, fmt.Sprintf("db%d", i)), tr: tr, checks: checks}
		t0 := time.Now()
		if err := e.setup(); err != nil {
			e.teardown()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer e.teardown()
	// Start measuring from a flushed disk and a collected heap, whatever
	// the discarded set-ups left behind.
	if err := syncDir(e.dir); err != nil {
		return result{}, err
	}
	runtime.GC()

	hot := popularity(cfg.seed, cfg.hiers)
	gens := make([]*gen, cfg.clients)
	for s := range gens {
		gens[s] = newGen(cfg.seed, s, cfg.clients, hot, w.m, w.shared, w.cands)
	}
	warmFailed := e.runCount(gens, cfg.warmOps)

	segs := make([]segment, windows)
	for i := range segs {
		segs[i].dur = seconds(cfg.seconds / windows)
	}
	if cfg.trace {
		q := seconds(cfg.seconds / 4)
		segs = []segment{{dur: q}, {traced: true, dur: q}, {dur: q}, {traced: true, dur: q}}
	}
	p := e.runTimed(gens, segs)
	e.verify(e.d, "after the measured phase")

	// The crash comes right after the measured phase, so the recovery
	// input is everything logged since the schema checkpoint at set-up.
	// A checkpoint in between can make recovery fail: see README.md,
	// "Known defect".
	recSecs, err := e.crashAndRecover()
	var rreg obs.Snapshot
	var closeDur time.Duration
	var disk, live, pages int64
	if err != nil {
		checks.failf("crash recovery: %v", err)
	} else {
		rreg = e.d.Observability().Snapshot()
		e.verify(e.d, "after recovery")
		if live, err = liveBytes(e.d); err != nil {
			return result{}, fmt.Errorf("live bytes: %w", err)
		}
		closeDur, err = tr.lifecycle("DB.Close", "db", e.d.Close)
		e.d = nil
		if err != nil {
			return result{}, fmt.Errorf("close: %w", err)
		}
		if disk, err = dirBytes(e.dir); err != nil {
			return result{}, err
		}
		if pages, err = dataPages(e.dir); err != nil {
			return result{}, err
		}
	}

	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%g trace=%v clients=%d (closed loop) shards=%d SyncWAL=true\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.clients, w.shards)
	fmt.Fprintf(out, "# dataset: %d objects in %d hierarchies (depth %d, fan-out %d), %d data pages vs %d pool pages (%.2fx)\n",
		e.loaded, cfg.hiers, treeDepth, treeFanout, pages, w.pool, float64(pages)/float64(w.pool))
	fmt.Fprintf(out, "# warm-up %d ops (%d failed)\n", cfg.warmOps*cfg.clients, warmFailed)
	for msg, n := range p.errs {
		fmt.Fprintf(out, "# measured-phase failure x%d: %s\n", n, msg)
	}

	res := result{attempted: p.attempted, failed: p.failed, metrics: map[string]ratio{}}
	reads, commits := pool(p.reads), pool(p.commits)
	if cfg.trace {
		res.defs = perLayer
		layerMetrics(res.metrics, e, p, rreg, closeDur)
		rc := tr.reconcile()
		res.metrics["obs.reconcile_err_frac"] = present(rc.errFrac())
		reportReconcile(out, rc)
		if rc.errFrac() > reconcileTolerance {
			checks.failf("trace: self times plus gaps differ from wall time by %.4f (tolerance %.2f)", rc.errFrac(), reconcileTolerance)
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	} else {
		res.defs = endToEnd
		endToEndMetrics(res.metrics, p, setupSecs, recSecs, div(float64(disk), float64(live)))
		reportTails(out, reads, commits)
		reportWindows(out, p)
		whole := p.whole
		fmt.Fprintf(out, "# failed_frac %s (%d of %d); fsyncs/commit %s; 2PC share of commits %s\n",
			div(float64(p.failed), float64(p.attempted)), p.failed, p.attempted,
			div(whole.c("wal_fsync_total"), whole.c("txn_commit_total")),
			div(whole.c("storage_shard_cross_commit_total"),
				whole.c("storage_shard_cross_commit_total")+whole.c("storage_shard_local_commit_total")))
	}
	samples := map[string]string{
		"throughput_ops_s": fmt.Sprintf("n=%d in %d windows", p.completed, len(p.segOps)),
		"read_p50_us":      fmt.Sprintf("n=%d in %d windows", len(reads), len(p.segOps)),
		"commit_p50_us":    fmt.Sprintf("n=%d in %d windows", len(commits), len(p.segOps)),
		"ok_frac":          fmt.Sprintf("n=%d", p.attempted),
		"setup_s":          fmt.Sprintf("n=%d set-ups", len(setupSecs)),
		"recovery_s":       fmt.Sprintf("n=%d reopens", len(recSecs)),
		"space_amp":        "n=1",
	}
	samples["read_p90_us"] = samples["read_p50_us"]
	for _, d := range res.defs {
		n := samples[d.name]
		fmt.Fprintf(out, "%-36s %14s %-6s %-24s %s\n", d.name, res.metrics[d.name], d.unit, n, d.moves)
	}
	res.correct = checks.ok()
	for _, f := range checks.fails {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", f)
	}
	return res, nil
}

// windows is how many equal windows the untraced measured phase is cut
// into; the latency and throughput metrics take a good one of them (see
// goodWindow).
const windows = 10

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// dataPages counts the pages of every shard's page file.
func dataPages(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "pages*.db"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size() / 4096
	}
	return n, nil
}

// reportWindows prints each window's throughput and commit median, the
// inputs of the windowed metrics.
func reportWindows(out io.Writer, p phase) {
	var parts []string
	for i, n := range p.segOps {
		v, _ := latencies(p.commits[i]).quantile(0.5)
		parts = append(parts, fmt.Sprintf("%.0f/s %.0fus", float64(n)/p.segWall[i].Seconds(), float64(v)/1e3))
	}
	fmt.Fprintf(out, "# windows (throughput, commit p50): %s\n", strings.Join(parts, ", "))
}

// pool concatenates per-window samples.
func pool(ws [][]int64) latencies {
	var l latencies
	for _, w := range ws {
		l = append(l, w...)
	}
	return l
}

// reportTails prints the informational tail of each latency class over
// the whole measured phase: p90, p99 and the highest percentile with at
// least 10 samples beyond it.
func reportTails(out io.Writer, reads, commits latencies) {
	for _, c := range []struct {
		name string
		l    latencies
	}{{"read", reads}, {"commit", commits}} {
		var parts []string
		for _, q := range []float64{0.90, 0.99} {
			if v, ok := c.l.quantile(q); ok {
				parts = append(parts, fmt.Sprintf("p%.0f=%.1fus", q*100, float64(v)/1e3))
			}
		}
		if q, ok := deepestTail(len(c.l)); ok && q > 0.99 {
			v, _ := c.l.quantile(q)
			parts = append(parts, fmt.Sprintf("p%s=%.1fus", strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", q*100), "0"), "."), float64(v)/1e3))
		}
		fmt.Fprintf(out, "# %s tail (informational, n=%d): %s\n", c.name, len(c.l), strings.Join(parts, " "))
	}
}

func reportReconcile(out io.Writer, rc reconciliation) {
	layers := make([]string, 0, len(rc.self))
	for l := range rc.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(out, "# reconciliation over %d spans: wall %.3fs in traced segments\n", rc.spans, float64(rc.wall)/1e9)
	for _, l := range layers {
		fmt.Fprintf(out, "#   self %-8s %8.3fs %5.1f%%\n", l, float64(rc.self[l])/1e9, 100*float64(rc.self[l])/float64(rc.wall))
	}
	fmt.Fprintf(out, "#   gaps          %8.3fs %5.1f%%\n", float64(rc.gaps)/1e9, 100*float64(rc.gaps)/float64(rc.wall))
	fmt.Fprintf(out, "#   |self+gaps-wall|/wall = %.6f (tolerance %.2f)\n", rc.errFrac(), reconcileTolerance)
}
