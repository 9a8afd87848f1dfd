package main

// kind separates the two sorts of number this simulator produces, which
// ROADMAP requires never to be mixed up.
type kind byte

const (
	measured kind = 'm' // host cost of the Go code that ran: wall, CPU, bytes, allocations
	modeled  kind = 's' // virtual-clock time or an exact count; repeats bit for bit per seed
)

// metricDef is one row of BENCHMARK.json. bound is zero for per-layer rows.
type metricDef struct {
	name   string
	unit   string
	better string
	kind   kind
	bound  float64
}

// endToEnd is what a user of the checkpoint-restart system pays on the
// host. Every workload reports every row.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", measured, 0.25},
	{"op_wall_ms", "ms", "lower", measured, 0.25},
	{"op_cpu_ms", "ms", "lower", measured, 0.25},
	{"alloc_mb_per_op", "MB", "lower", measured, 0.02},
	{"mallocs_per_op", "count", "lower", measured, 0.25},
	{"peak_rss_mb", "MB", "lower", measured, 0.10},
}

// perLayer comes from the traced run and the layer replay. Modeled times
// carry the unit sim_ms so they can never be read as host time.
var perLayer = []metricDef{
	{"sim.step_ns", "ns", "lower", measured, 0},
	{"sim.steps_per_run", "count", "lower", modeled, 0},
	{"sim.timer_ns", "ns", "lower", measured, 0},
	{"netstack.stream_mb_s", "MB/s", "higher", measured, 0},
	{"netstack.allocs_per_seg", "count", "lower", measured, 0},
	{"ckpt.capture_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.capture_alloc_mb", "MB", "lower", measured, 0},
	{"ckpt.bytes_call_ms", "ms", "lower", measured, 0},
	{"ckpt.encode_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.encode_raw_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.decode_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.verify_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.restore_pod_ms", "ms", "lower", measured, 0},
	{"ckpt.encode_alloc_mb", "MB", "lower", measured, 0},
	{"ckpt.decode_alloc_mb", "MB", "lower", measured, 0},
	{"ckpt.delta_capture_mb_s", "MB/s", "higher", measured, 0},
	{"ckpt.apply_delta_ms", "ms", "lower", measured, 0},
	{"ckpt.chain_reconstruct_ms", "ms", "lower", measured, 0},
	{"ckpt.delta_wire_ratio", "ratio", "lower", modeled, 0},
	{"imgfmt.enc_zero_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.enc_rand_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.enc_mixed_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.dec_zero_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.dec_rand_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.dec_mixed_mb_s", "MB/s", "higher", measured, 0},
	{"imgfmt.allocs_per_frame", "count", "lower", measured, 0},
	{"imgfmt.wire_ratio", "ratio", "higher", modeled, 0},
	{"imagestore.dedup_put_mb_s", "MB/s", "higher", measured, 0},
	{"imagestore.dedup_get_mb_s", "MB/s", "higher", measured, 0},
	{"imagestore.fs_put_mb_s", "MB/s", "higher", measured, 0},
	{"imagestore.fs_get_mb_s", "MB/s", "higher", measured, 0},
	{"imagestore.remote_put_mb_s", "MB/s", "higher", measured, 0},
	{"imagestore.put_mb_per_op", "MB", "lower", modeled, 0},
	{"imagestore.get_mb_per_op", "MB", "lower", modeled, 0},
	{"imagestore.opens_per_op", "count", "lower", modeled, 0},
	{"imagestore.dedup_stored_ratio", "ratio", "higher", modeled, 0},
	{"netckpt.sim_ms", "sim_ms", "lower", modeled, 0},
	{"netckpt.bytes", "count", "lower", modeled, 0},
	{"coord.bcast_gather_us", "us", "lower", measured, 0},
	{"coord.root_msgs", "count", "lower", modeled, 0},
	{"core.suspend_sim_ms", "sim_ms", "lower", modeled, 0},
	{"core.barrier_sim_ms", "sim_ms", "lower", modeled, 0},
	{"core.standalone_sim_ms", "sim_ms", "lower", modeled, 0},
	{"core.net_restore_sim_ms", "sim_ms", "lower", modeled, 0},
	{"core.peak_buffered_kb", "KB", "lower", modeled, 0},
	{"core.phase_ckpt_host_ms", "ms", "lower", measured, 0},
	{"core.phase_restart_host_ms", "ms", "lower", measured, 0},
	{"core.self_host_ms", "ms", "lower", measured, 0},
	{"core.retained_mb_per_op", "MB", "lower", measured, 0},
	{"supervisor.generations", "count", "lower", modeled, 0},
	{"supervisor.retries", "count", "lower", modeled, 0},
	{"supervisor.gc_collected", "count", "higher", modeled, 0},
	{"supervisor.rto_sim_ms", "sim_ms", "lower", modeled, 0},
	{"supervisor.rpo_sim_ms", "sim_ms", "lower", modeled, 0},
	{"supervisor.ckpt_cycle_host_ms", "ms", "lower", measured, 0},
	{"supervisor.recovery_host_ms", "ms", "lower", measured, 0},
	{"standby.rto_sim_ms", "sim_ms", "lower", modeled, 0},
	{"standby.gens_applied", "count", "higher", modeled, 0},
	{"standby.run_wall_ms", "ms", "lower", measured, 0},
	{"cluster.launch_ms", "ms", "lower", measured, 0},
	{"cluster.op_wall_med_ms", "ms", "lower", measured, 0},
	{"cluster.op_wall_tail_ms", "ms", "lower", measured, 0},
	{"cluster.op_sim_ms", "sim_ms", "lower", modeled, 0},
	{"trace.overhead_pct", "%", "lower", measured, 0},
	{"trace.events_per_run", "count", "lower", modeled, 0},
	{"trace.child_cover_pct", "%", "higher", measured, 0},
}
