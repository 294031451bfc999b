package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef is one reported metric. bound (end-to-end only) is the share
// of the parent's median by which it may worsen; moves (per-layer only)
// names the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are what a user of the database sees. Every workload reports
// every one. Commit p90 is not among them: it swung by 35–55% (quartile
// spread over median) between identical wire-commit runs on a 2-vCPU
// machine, beyond any usable bound, so the report prints it as
// information only, beside p99.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "commit_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "ok_frac", unit: "frac", better: "higher", bound: 0.01},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.25},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.05},
}

// perLayer are measured from outside each layer in the traced run.
var perLayer = []metricDef{
	{name: "server.roundtrip_us_p50", unit: "us", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "server.eval_us_mean", unit: "us", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "server.wire_us_per_op", unit: "us", better: "lower", moves: "commit_p50_us, throughput_ops_s on wire-commit"},
	{name: "server.bytes_per_op", unit: "bytes", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "sexpr.parse_us_per_op", unit: "us", better: "lower", moves: "read_p50_us on composite-read"},
	{name: "sexpr.eval_us_per_op", unit: "us", better: "lower", moves: "read_p50_us on composite-read"},
	{name: "lock.acquires_per_txn", unit: "count", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "lock.wait_frac", unit: "frac", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "lock.wait_us_per_txn", unit: "us", better: "lower", moves: "commit_p50_us on wire-commit"},
	{name: "lock.deadlocks_per_1k_txn", unit: "count", better: "lower", moves: "ok_frac on wire-commit"},
	{name: "txn.abort_frac", unit: "frac", better: "lower", moves: "ok_frac on wire-commit"},
	{name: "txn.op_us_p50", unit: "us", better: "lower", moves: "commit_p50_us on sharded-2pc"},
	{name: "txn.commit_us_p50", unit: "us", better: "lower", moves: "commit_p50_us on sharded-2pc"},
	{name: "core.traversal_us_mean", unit: "us", better: "lower", moves: "read_p50_us on composite-read"},
	{name: "core.cache_hit_rate", unit: "frac", better: "higher", moves: "read_p50_us, throughput_ops_s on composite-read"},
	{name: "core.cache_invalidations_per_write", unit: "count", better: "lower", moves: "read_p50_us on composite-read"},
	{name: "core.stalecc_retries_per_1k_reads", unit: "count", better: "lower", moves: "read_p90_us on composite-read"},
	{name: "mvcc.snapshot_read_us_p50", unit: "us", better: "lower", moves: "read_p50_us on composite-read"},
	{name: "mvcc.installs_per_commit", unit: "count", better: "lower", moves: "commit_p50_us on composite-read"},
	{name: "mvcc.versions_live_end", unit: "count", better: "lower", moves: "read_p90_us on composite-read"},
	{name: "pool.hit_rate", unit: "frac", better: "higher", moves: "commit_p50_us on wire-commit, sharded-2pc"},
	{name: "pool.evictions_per_commit", unit: "count", better: "lower", moves: "commit_p50_us on wire-commit, sharded-2pc"},
	{name: "pool.device_reads_per_commit", unit: "count", better: "lower", moves: "commit_p50_us on wire-commit, sharded-2pc"},
	{name: "wal.appends_per_commit", unit: "count", better: "lower", moves: "commit_p50_us on wire-commit; space_amp"},
	{name: "wal.bytes_per_commit", unit: "bytes", better: "lower", moves: "commit_p50_us on wire-commit; space_amp"},
	{name: "wal.fsyncs_per_commit", unit: "count", better: "lower", moves: "throughput_ops_s on wire-commit, sharded-2pc"},
	{name: "wal.group_batch_mean", unit: "count", better: "higher", moves: "throughput_ops_s on wire-commit, sharded-2pc"},
	{name: "wal.fsync_us_mean", unit: "us", better: "lower", moves: "commit_p50_us on wire-commit, sharded-2pc"},
	{name: "wal.group_wait_us_per_commit", unit: "us", better: "lower", moves: "commit_p50_us on wire-commit, sharded-2pc"},
	{name: "shard.cross_commit_frac", unit: "frac", better: "lower", moves: "commit_p50_us on sharded-2pc"},
	{name: "shard.prepares_per_cross_commit", unit: "count", better: "lower", moves: "commit_p50_us on sharded-2pc"},
	{name: "db.recovery_replays", unit: "count", better: "lower", moves: "recovery_s"},
	{name: "db.recovery_indoubt", unit: "count", better: "lower", moves: "recovery_s"},
	{name: "db.checkpoint_s", unit: "s", better: "lower", moves: "recovery_s, space_amp"},
	{name: "db.load_us_per_object", unit: "us", better: "lower", moves: "setup_s"},
	{name: "obs.trace_overhead_frac", unit: "frac", better: "lower", moves: "none: traced against untraced throughput"},
	{name: "obs.reconcile_err_frac", unit: "frac", better: "lower", moves: "none: |self times + gaps - wall| / wall"},
}

func us(l latencies, q float64) ratio {
	v, ok := l.quantile(q)
	if !ok {
		return ratio{}
	}
	return present(float64(v) / 1e3)
}

// goodWindow is a high-quality window's value of f: over the measured
// phase's windows, the 70th percentile of f when higher is better, else
// the 30th. Interference from outside the benchmark only ever slows a
// window down, and on a shared machine it comes in episodes of seconds
// to tens of seconds; this percentile ignores an episode covering up to
// 6 of the 10 windows, without hanging on the one luckiest window as the
// best would. A slowdown in the program itself shows in every window.
func goodWindow(n int, higher bool, f func(i int) ratio) ratio {
	var xs []float64
	for i := 0; i < n; i++ {
		if r := f(i); r.ok {
			xs = append(xs, r.v)
		}
	}
	if len(xs) == 0 {
		return ratio{}
	}
	sort.Float64s(xs)
	q := 0.3
	if higher {
		q = 0.7
	}
	return present(xs[nearestRank(q, len(xs))-1])
}

func endToEndMetrics(m map[string]ratio, p phase, setupSecs, recSecs []float64, spaceAmp ratio) {
	n := len(p.segOps)
	m["throughput_ops_s"] = goodWindow(n, true, func(i int) ratio { return div(float64(p.segOps[i]), p.segWall[i].Seconds()) })
	m["read_p50_us"] = goodWindow(n, false, func(i int) ratio { return us(p.reads[i], 0.50) })
	m["read_p90_us"] = goodWindow(n, false, func(i int) ratio { return us(p.reads[i], 0.90) })
	m["commit_p50_us"] = goodWindow(n, false, func(i int) ratio { return us(p.commits[i], 0.50) })
	m["ok_frac"] = div(float64(p.attempted-p.failed), float64(p.attempted))
	m["setup_s"] = present(median(setupSecs))
	if len(recSecs) > 0 {
		m["recovery_s"] = present(median(recSecs))
	}
	m["space_amp"] = spaceAmp
}

// layerMetrics derives the per-layer metrics from the traced segments:
// span durations for the calls the benchmark makes, registry deltas for
// the counters and histograms the program exports. The registry's
// histograms have one bucket per decade, too coarse to place a median,
// so the metrics taken from them are exact means (sum / count). rreg is the
// recovering instance's registry just after db.Open returned.
func layerMetrics(m map[string]ratio, e *env, p phase, rreg obs.Snapshot, closeDur time.Duration) {
	tr, d := e.tr, p.traced
	reads, writes := float64(len(tr.durations("read"))), float64(len(tr.durations("write")))
	txns, commits := d.c("txn_begin_total"), d.c("txn_commit_total")

	do := tr.durations("client.Do")
	m["server.roundtrip_us_p50"] = us(do, 0.50)
	meanDo := div(float64(do.sum())/1e3, float64(len(do)))
	meanEval := d.histMean("server_request_ns", 1e3)
	m["server.eval_us_mean"] = meanEval
	if meanDo.ok && meanEval.ok {
		m["server.wire_us_per_op"] = present(meanDo.v - meanEval.v)
	}
	m["server.bytes_per_op"] = div(d.c("server_rx_bytes_total")+d.c("server_tx_bytes_total"), d.c("server_requests_total"))

	evals := append(tr.durations("Interp.Eval"), tr.durations("Interp.Eval snapshot-query")...)
	if parse := tr.durations("sexpr.ParseAll"); len(parse) > 0 {
		m["sexpr.parse_us_per_op"] = div(float64(parse.sum())/1e3, reads+writes)
		m["sexpr.eval_us_per_op"] = div(float64(evals.sum())/1e3, reads+writes)
	}

	m["lock.acquires_per_txn"] = div(d.c("lock_acquire_total"), txns)
	m["lock.wait_frac"] = div(d.c("lock_wait_total"), d.c("lock_acquire_total"))
	m["lock.wait_us_per_txn"] = div(d.histSum("lock_wait_ns")/1e3, txns)
	m["lock.deadlocks_per_1k_txn"] = div(1000*d.c("lock_deadlock_total"), txns)
	m["txn.abort_frac"] = div(d.c("txn_abort_total"), txns)
	var ops latencies
	for _, n := range []string{"Txn.WriteAttr", "Txn.New", "Txn.Delete", "Txn.ReadObject"} {
		ops = append(ops, tr.durations(n)...)
	}
	m["txn.op_us_p50"] = us(ops, 0.50)
	m["txn.commit_us_p50"] = us(tr.durations("Txn.Commit"), 0.50)

	m["core.traversal_us_mean"] = d.histMean("core_traversal_ns", 1e3)
	var hits, misses float64
	for _, c := range []string{"ancestor", "partition", "plan"} {
		hits += d.c("core_cache_" + c + "_hits_total")
		misses += d.c("core_cache_" + c + "_misses_total")
	}
	m["core.cache_hit_rate"] = div(hits, hits+misses)
	m["core.cache_invalidations_per_write"] = div(d.c("core_cache_invalidations_total"), writes)
	m["core.stalecc_retries_per_1k_reads"] = div(1000*d.c("core_stalecc_retries_total"), reads)
	m["mvcc.snapshot_read_us_p50"] = us(tr.durations("Interp.Eval snapshot-query"), 0.50)
	m["mvcc.installs_per_commit"] = div(d.c("mvcc_installs_total"), commits)
	m["mvcc.versions_live_end"] = present(float64(d.gauges["mvcc_versions_live"]))

	m["pool.hit_rate"] = div(d.c("storage_pool_hits_total"), d.c("storage_pool_hits_total")+d.c("storage_pool_misses_total"))
	m["pool.evictions_per_commit"] = div(d.c("storage_pool_evictions_total"), commits)
	m["pool.device_reads_per_commit"] = div(d.c("storage_pool_reads_total"), commits)
	m["wal.appends_per_commit"] = div(d.c("wal_append_total"), commits)
	m["wal.bytes_per_commit"] = div(d.c("wal_append_bytes_total"), commits)
	m["wal.fsyncs_per_commit"] = div(d.c("wal_fsync_total"), commits)
	m["wal.group_batch_mean"] = d.histMean("storage_wal_group_commit_batch_size", 1)
	m["wal.fsync_us_mean"] = d.histMean("wal_fsync_ns", 1e3)
	m["wal.group_wait_us_per_commit"] = div(d.histSum("storage_wal_group_commit_wait_ns")/1e3, commits)
	cross := d.c("storage_shard_cross_commit_total")
	m["shard.cross_commit_frac"] = div(cross, cross+d.c("storage_shard_local_commit_total"))
	m["shard.prepares_per_cross_commit"] = div(d.c("storage_shard_prepare_total"), cross)

	m["db.recovery_replays"] = present(float64(rreg.Counters["storage_shard_recovery_replays_total"]))
	m["db.recovery_indoubt"] = present(float64(rreg.Counters["storage_shard_recovery_resolved_commit_total"] +
		rreg.Counters["storage_shard_recovery_resolved_abort_total"]))
	m["db.checkpoint_s"] = present(closeDur.Seconds())
	m["db.load_us_per_object"] = div(float64(e.loadDur.Microseconds()), float64(e.loaded))

	var tOps, uOps, tSec, uSec float64
	for i, n := range p.segOps {
		if i%2 == 1 {
			tOps, tSec = tOps+float64(n), tSec+p.segWall[i].Seconds()
		} else {
			uOps, uSec = uOps+float64(n), uSec+p.segWall[i].Seconds()
		}
	}
	if thr := div(tOps/tSec, uOps/uSec); thr.ok {
		m["obs.trace_overhead_frac"] = present(1 - thr.v)
	}
}
