package main

import "negativaml/internal/negativa"

// runSeconds is how long one run measures. The issue asked for 15 s (30 s
// and 20 s for the cluster and gateway workloads); the driver's budget of
// 4 + 22 × 7 runs in under an hour caps a run near 20 s all told, so every
// duration is the one value below. It gives every row its floor of samples
// (minSamplesPerRow) with a margin in a fast period; in a slow one
// cold_ingest and disk_restore run a second or two longer to reach it.
const runSeconds = 15

// metricDef declares one metric: its unit, which direction is better, and
// for an end-to-end metric the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndMetrics are what a user of the system sees, reported for every
// workload. A bound is one value per metric for all seven workloads, so the
// noisiest workload sets it: each is the issue's value, widened to three
// times the largest inter-quartile spread NOISE.md records for the metric on
// any workload (the driver wants a spread under a third of its bound) and
// capped at the driver's 0.25. The deterministic metrics keep the smallest
// bound that is surely accepted as one. failed_share is reported as its
// complement ok_share, because the driver's bounds are shares of a median
// and a metric that is 0 when all is well has none.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "input_mb_per_s", unit: "MB/s", better: "higher", bound: 0.22},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.09},
	{name: "ok_share", unit: "ratio", better: "higher", bound: 0.0001},
	{name: "file_reduction_pct", unit: "%", better: "higher", bound: 0.0001},
	{name: "gpu_reduction_pct", unit: "%", better: "higher", bound: 0.0001},
	{name: "cpu_reduction_pct", unit: "%", better: "higher", bound: 0.0001},
	{name: "stored_bytes_per_input_byte", unit: "ratio", better: "lower", bound: 0.01},
}

// allRowNames are the rows of every workload; row.<row>.p50_ms exists for
// each and reads 0 on a workload that does not visit the row.
func allRowNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads() {
		for _, r := range w.rows {
			if !seen[r] {
				seen[r] = true
				names = append(names, r)
			}
		}
	}
	return names
}

var (
	stageNames = []string{negativa.StageDetect, negativa.StageLibIndex, negativa.StageLocate, negativa.StageCompact, negativa.StageVerifyRef, negativa.StageVerifyRun}
	tierNames  = []string{"computed", "memory", "disk", "peer"}
)

// perLayerMetrics are the traced run's metrics, named layer.metric with the
// repo's package names as layers. The comment on each group says which
// end-to-end metric on which workload the group is expected to move; it was
// written down before anything was measured, and the README's layer map
// repeats it.
func perLayerMetrics() []metricDef {
	var d []metricDef
	add := func(defs ...metricDef) { d = append(d, defs...) }
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }

	// → op_p50_ms on cold_ingest (20-30 % of the op); nothing elsewhere
	add(lower("ingest.tree_ms", "ms"), higher("ingest.mb_per_s", "MB/s"), lower("ingest.files_per_op", "count"))
	// → op_p50_ms and cpu_ms_per_op on cold_ingest, whose ops index, walk fatbins and parse cubins cold (stamped trees); parse also on disk_restore (restored images re-parse). Not on disk_persist and cluster_cold: elfx shares built indexes process-wide by content digest and their ops resubmit the same bytes, so there these builds show only through the probes
	add(lower("elfx.parse_us_per_lib", "us"), lower("elfx.index_us_per_lib", "us"), higher("elfx.index_mb_per_s", "MB/s"),
		higher("fatbin.parse_mb_per_s", "MB/s"), lower("cubin.parse_us", "us"))
	// → op_p50_ms on cold_ingest
	add(lower("negativa.detect_ms", "ms"), lower("negativa.locate_ms", "ms"), lower("negativa.compact_ms", "ms"),
		lower("negativa.zeroed_ranges_per_op", "count"))
	// → op_p50_ms on disk_persist and disk_restore (v1 on disk) and on cluster_peer_warm (v2 on the wire)
	add(higher("negativa.sparse_encode_mb_per_s", "MB/s"), higher("negativa.sparse_decode_mb_per_s", "MB/s"),
		higher("negativa.wire_encode_mb_per_s", "MB/s"), lower("negativa.wire_bytes_per_range", "B"),
		higher("negativa.transcode_mb_per_s", "MB/s"))
	// → op_p50_ms on warm_resubmit (the verify clone); alloc_mb_per_op everywhere
	add(higher("negativa.materialize_mb_per_s", "MB/s"))
	// → op_p50_ms on cold_ingest (detect) and on warm_resubmit (verify is most of what is left)
	add(lower("mlruntime.detect_run_ms", "ms"), lower("mlruntime.verify_run_ms", "ms"), lower("cudasim.virtual_end_to_end_s", "s"))
	// → op_p50_ms on warm_resubmit, chiefly the tensorflow388 row; parallelism: op_p50_ms against cpu_ms_per_op on cold_ingest
	add(lower("plan.nodes_per_op", "count"), lower("plan.stage_busy_ms", "ms"), higher("plan.parallelism", "ratio"),
		lower("plan.noop_dag_us_per_node", "us"))
	for _, s := range stageNames {
		// → op_p50_ms on the workload where the stage computes; hit_ratio of detect and compact must be 1 on warm_resubmit, disk_restore, cluster_peer_warm
		add(lower("dserve.stage."+s+".ms", "ms"), higher("dserve.stage."+s+".hit_ratio", "ratio"))
	}
	for _, t := range tierNames {
		// → memory: op_p50_ms on warm_resubmit; disk: disk_restore; peer: both cluster workloads; computed: cold_ingest
		add(lower("dserve.tier."+t+".count", "count"), lower("dserve.tier."+t+".ms", "ms"))
	}
	// → boot_ms: op_p50_ms on disk_restore; stream_*: every workload; persist_*: the cluster workloads, whose jobs are persisted; local_cold_ms: the reference cluster_cold is set against
	add(lower("dserve.boot_ms", "ms"), lower("dserve.stream_ms", "ms"), higher("dserve.stream_mb_per_s", "MB/s"),
		lower("dserve.cache_bytes", "B"), lower("dserve.persist_flush_ms", "ms"), lower("dserve.persist_sync_ms", "ms"),
		lower("dserve.persist_manifest_ms", "ms"), lower("dserve.persist_retain_ms", "ms"), lower("dserve.local_cold_ms", "ms"))
	// → puts and put times: op_p50_ms on disk_persist and cluster_cold (three stores); get, map, open: disk_restore; counts: stored_bytes_per_input_byte
	add(lower("castore.puts_per_op", "count"), lower("castore.put_bytes_per_op", "B"), lower("castore.hits_per_op", "count"),
		lower("castore.misses_per_op", "count"), lower("castore.objects", "count"),
		lower("castore.put_us_64k", "us"), lower("castore.put_us_1m", "us"), lower("castore.get_us_1m", "us"),
		lower("castore.open_mapped_us_1m", "us"), lower("castore.sync_dirs_us", "us"), lower("castore.open_us_per_object", "us"),
		higher("castore.export_import_mb_per_s", "MB/s"))
	// → round_trips x rtt: op_p50_ms on cluster_peer_warm; remote_execs and replica_writes: cluster_cold; all 0 on the single-node workloads
	add(lower("cluster.round_trips_per_op", "count"), higher("cluster.peer_hits_per_op", "count"), lower("cluster.peer_misses_per_op", "count"),
		lower("cluster.remote_execs_per_op", "count"), lower("cluster.fallbacks_per_op", "count"), lower("cluster.hedge_fired_per_op", "count"),
		higher("cluster.hedge_won_per_op", "count"), lower("cluster.replica_writes_per_op", "count"), lower("cluster.objects_fetched_per_op", "count"),
		lower("cluster.rtt_us", "us"))
	for _, r := range peerRoutes {
		// → lookup-batch: op_p50_ms on cluster_peer_warm; detect, compact, objects: cluster_cold; bytes: alloc_mb_per_op on both
		add(lower("cluster.route."+r+".calls_per_op", "count"), lower("cluster.route."+r+".server_ms_per_op", "ms"), lower("cluster.route."+r+".bytes_per_op", "B"))
	}
	// → op_p50_ms and op_p90_ms on gateway_open only; coalesced_share also lowers cpu_ms_per_op there
	add(lower("gateway.submit_us", "us"), lower("gateway.queue_wait_ms", "ms"), lower("gateway.unit_wall_ms", "ms"),
		higher("gateway.coalesced_share", "ratio"), lower("gateway.shed_share", "ratio"), lower("gateway.backend_busy_retries", "count"),
		lower("gateway.generator_lag_ms", "ms"), lower("gateway.inflight_max", "count"))
	// → alloc_mb_per_op everywhere
	add(lower("bufpool.get_put_ns", "ns"))
	for _, r := range allRowNames() {
		// → op_p50_ms is the geometric mean of these
		add(lower("row."+r+".p50_ms", "ms"))
	}
	// → none: they describe the harness and the machine, not the program
	add(lower("harness.calib_ms", "ms"), lower("harness.prep_ms_per_op", "ms"), higher("harness.samples_per_row", "count"),
		lower("harness.trace_overhead_pct", "%"))
	return d
}

// perLayer computes every per-layer metric of a traced run. A metric of a
// layer the workload never entered reads 0.
func (res *result) perLayer() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayerMetrics() {
		m[d.name] = 0
	}
	for k, v := range res.probes {
		m[k] = v
	}
	rec := res.rec
	rec.mu.Lock()
	s, n := rec.sums, float64(rec.ops)
	rec.mu.Unlock()
	per := func(key string) float64 { return ratio(s[key], n) }

	m["ingest.tree_ms"] = per("ingest.ms")
	m["ingest.mb_per_s"] = ratio(s["ingest.bytes"]/1e6, s["ingest.ms"]/1e3)
	m["ingest.files_per_op"] = per("ingest.files")
	m["negativa.detect_ms"] = per("computed.detect.ms")
	m["negativa.locate_ms"] = per("computed.locate.ms")
	m["negativa.compact_ms"] = per("computed.compact.ms")
	m["negativa.zeroed_ranges_per_op"] = per("negativa.zeroed_ranges")
	m["cudasim.virtual_end_to_end_s"] = per("cudasim.virtual_s")

	var busy float64
	for _, t := range tierNames {
		m["dserve.tier."+t+".count"] = per("tier." + t + ".count")
		m["dserve.tier."+t+".ms"] = per("tier." + t + ".ms")
		busy += s["tier."+t+".ms"]
	}
	m["plan.nodes_per_op"] = per("plan.nodes")
	m["plan.stage_busy_ms"] = ratio(busy, n)
	m["plan.parallelism"] = ratio(busy, s["plan.wall_ms"])
	for _, st := range stageNames {
		m["dserve.stage."+st+".ms"] = per("stage." + st + ".ms")
		// Useful outcomes over attempts: a memoized stage is useful when a
		// tier served it without recomputing; the deliberately unmemoized
		// verify run is useful when it ran and verified. A stage the
		// workload never attempts wasted nothing and reads 1.
		useful, attempts := s["stage."+st+".hits"], s["stage."+st+".n"]
		if st == negativa.StageVerifyRun {
			useful = s["verify.ok"]
		}
		if attempts == 0 {
			useful, attempts = 1, 1
		}
		m["dserve.stage."+st+".hit_ratio"] = useful / attempts
	}
	m["dserve.boot_ms"] = per("dserve.boot_ms")
	m["dserve.stream_ms"] = per("dserve.stream_ms")
	m["dserve.stream_mb_per_s"] = ratio(s["dserve.stream_bytes"]/1e6, s["dserve.stream_ms"]/1e3)
	m["dserve.cache_bytes"] = per("dserve.cache_bytes")
	for _, phase := range []string{"flush", "sync", "manifest", "retain"} {
		m["dserve.persist_"+phase+"_ms"] = per("dserve.persist_" + phase + "_ms")
	}
	m["castore.puts_per_op"] = per("castore.puts")
	m["castore.put_bytes_per_op"] = per("castore.put_bytes")
	m["castore.hits_per_op"] = per("castore.hits")
	m["castore.misses_per_op"] = per("castore.misses")
	m["castore.objects"] = per("castore.objects")
	for _, name := range peerCounters {
		m[name+"_per_op"] = per(name)
	}
	for _, r := range peerRoutes {
		m["cluster.route."+r+".calls_per_op"] = per("route." + r + ".calls")
		m["cluster.route."+r+".server_ms_per_op"] = per("route." + r + ".ms")
		m["cluster.route."+r+".bytes_per_op"] = per("route." + r + ".bytes")
	}

	if g := res.gw; g != nil {
		m["gateway.submit_us"] = median(g.submitUS)
		m["gateway.queue_wait_ms"] = median(g.queueMS)
		m["gateway.unit_wall_ms"] = g.unitWallMS
		m["gateway.coalesced_share"] = ratio(float64(g.coalesced), float64(g.admitted))
		m["gateway.shed_share"] = ratio(float64(g.shed), float64(g.sent))
		m["gateway.backend_busy_retries"] = float64(g.busyRetries)
		m["gateway.generator_lag_ms"] = percentile(g.lagMS, 0.9)
		m["gateway.inflight_max"] = float64(g.inflightMax)
	}

	var overhead []float64
	for _, r := range res.rows {
		m["row."+r.name+".p50_ms"] = median(res.lat[r.name])
		// Traced and untraced ops alternate on every row, so the ratio of
		// their medians is the tracing overhead with the machine's drift
		// cancelled out.
		if traced, untraced := res.latTraced[r.name], res.latUntraced[r.name]; len(traced) > 0 && len(untraced) > 0 {
			overhead = append(overhead, median(traced)/median(untraced))
		}
	}
	m["harness.calib_ms"] = res.calib.ms()
	m["harness.prep_ms_per_op"] = ratio(ms(res.loopWall-res.meter.wall), float64(res.attempted))
	m["harness.samples_per_row"] = float64(res.samplesPerRow())
	if len(overhead) > 0 {
		m["harness.trace_overhead_pct"] = 100 * (geomean(overhead) - 1)
	}
	return m
}
