package main

// layerDef is one per-layer metric: its unit and the end-to-end metrics,
// under NOTES.md's names, that it should move.
type layerDef struct {
	name, unit, moves string
}

const (
	movesExtract = "serve_capacity_traces_per_s, serve_p50_ms (serve-mixed); <2% of workbench_wall_s; 0 on fleet-collect"
	movesServe   = "serve_p99_ms, serve_p50_ms (serve-mixed)"
	movesJournal = "serve_p99_ms (serve-mixed), fleet_wall_s (fleet-collect)"
	movesTrain   = "workbench_wall_s (workbench-build), setup_s (serve-mixed)"
	movesCollect = "fleet_wall_s (fleet-collect), a little of workbench_wall_s, setup_s (serve-mixed)"
	movesProcess = "every end-to-end metric of the workload"
)

// layerCatalog lists every per-layer metric a traced run reports, in print
// order. A workload that does not exercise a layer reports 0 for it.
var layerCatalog = []layerDef{
	{"attack.featurize_ms", "ms", movesExtract},
	{"attack.split_ms", "ms", movesExtract},
	{"lstm.mlong_ms", "ms", movesExtract},
	{"lstm.mop_ms", "ms", movesExtract},
	{"lstm.mhp_ms", "ms", movesExtract},
	{"attack.vote_parse_ms", "ms", movesExtract},
	{"attack.extract_ms", "ms", movesExtract},
	{"attack.extract_allocs", "count", movesExtract},
	{"serve.queue_wait_p50_ms", "ms", movesServe},
	{"serve.queue_wait_p99_ms", "ms", movesServe},
	{"serve.extract_p50_ms", "ms", movesServe},
	{"serve.extract_p99_ms", "ms", movesServe},
	{"serve.overhead_ms", "ms", movesServe},
	{"trace.decode_ms", "ms", movesServe},
	{"serve.replay_frac", "ratio", movesServe},
	{"serve.shed_frac", "ratio", movesServe},
	{"serve.malformed", "count", movesServe},
	{"journal.append_p50_ms", "ms", movesJournal},
	{"journal.append_p99_ms", "ms", movesJournal},
	{"journal.replay_ms", "ms", movesJournal},
	{"eval.collect_s", "s", movesTrain},
	{"eval.train_s", "s", movesTrain},
	{"eval.overlap_s", "s", movesTrain},
	{"attack.train_s", "s", movesTrain},
	{"trace.collect_ms", "ms", movesCollect},
	{"gpu.slices_per_s", "1/s", movesCollect},
	{"cpu_util", "ratio", movesProcess},
	{"gc.cycles", "count", movesProcess},
	{"gc.pause_ms", "ms", movesProcess},
	{"gen.late_p99_ms", "ms", "serve_p50_ms, serve_p99_ms (serve-mixed): the open loop is invalid when high"},
	{"tracing.overhead_p50_ms", "ms", "median operation latency of the workload: traced minus untraced"},
}
