package main

import (
	"encoding/json"
	"slices"
)

// This file is the one place that names workloads and metrics.
// BENCHMARK.json is `go run ./bench -spec` verbatim; the smoke test fails
// when the two drift apart.

type workload struct {
	name string
	why  string
	run  func(rc *runCtx) (*outcome, error)
	// primary is the wall-clock metric whose traced/untraced ratio is the
	// workload's obs.trace_overhead_share.
	primary       string
	primaryHigher bool
}

func workloads() []workload {
	return []workload{
		{"cnn_train", "paper CNN (431k params), 8 real clients over TCP: tensor/nn GEMM+conv, DGC encode at 431k and a 3.4 MB model broadcast dominate; the server loop does little", cnnTrain.run, "round_s_p50", false},
		{"mlp_proto", "8.5k-param MLP, 16 clients, negotiation and a delta checkpoint every round: training is ~free, so the round is protocol, selection and fsync; reaches 0.90 accuracy", mlpProto.run, "round_s_p50", false},
		{"fleet_ingest", "rpc.RunFleet, 64 socket clients in lockstep, dim 20000 nnz 1000: server ingest only (frame read, sparse decode, fold, merge at the barrier); nn does nothing", fleetIngest, "updates_per_s", true},
		{"async_push", "FedBuff async session behind session.Manager, 8 clients pull-train-push with no round barrier: same rpc/shard/compress layers without the barrier", asyncPush, "updates_per_s", true},
		{"tree_ingest", "edge.Root + 2 edge.Edge + 64 clients: the two-tier round loops, the fleet fold plus a dense 160 KB partial hop and the ascending-edge merge", treeIngest, "updates_per_s", true},
		{"sim_tta", "in-process SyncEngine + SyncPlanner + Negotiator over netsim LTE links under a fluctuating trace: simulated seconds and uplink MB to 0.70 accuracy, a pure function of the seed", simTTA, "round_s_p50", false},
	}
}

// e2eMetric is one end-to-end metric. A metric is measured on the
// workloads listed in on; everywhere else the contract still wants a
// number, so it reads notApplicable there (printed as n/a, never gated in
// -compare).
type e2eMetric struct {
	name   string
	unit   string
	better string
	bound  float64
	on     []string
}

const notApplicable = 1.0

var allWorkloads = []string{"cnn_train", "mlp_proto", "fleet_ingest", "async_push", "tree_ingest", "sim_tta"}

func e2eMetrics() []e2eMetric {
	return []e2eMetric{
		{"setup_s", "s", "lower", 0.25, allWorkloads},
		{"round_s_p50", "s", "lower", 0.25, allWorkloads},
		{"rounds_per_s", "1/s", "higher", 0.25, []string{"mlp_proto"}},
		{"updates_per_s", "1/s", "higher", 0.25, []string{"fleet_ingest", "async_push", "tree_ingest"}},
		{"uplink_bytes_per_update", "B", "lower", 0.01, []string{"cnn_train", "mlp_proto", "fleet_ingest", "async_push"}},
		{"rounds_to_acc", "count", "lower", 0.20, []string{"mlp_proto"}},
		{"uplink_mb_to_acc", "MB", "lower", 0.20, []string{"mlp_proto"}},
		{"final_acc", "acc", "higher", 0.12, []string{"mlp_proto", "sim_tta"}},
		{"sim_time_to_acc_s", "sim_s", "lower", 0.15, []string{"sim_tta"}},
		{"sim_uplink_mb_to_acc", "MB", "lower", 0.10, []string{"sim_tta"}},
		{"peak_rss_mb", "MB", "lower", 0.15, allWorkloads},
	}
}

func (m e2eMetric) appliesTo(workload string) bool { return slices.Contains(m.on, workload) }

// layerMetric is one per-layer metric. README.md maps each to the
// end-to-end metric an optimisation of its layer should move.
type layerMetric struct {
	name   string
	unit   string
	better string
	// run names the workloads whose traced pass measures the metric from
	// outside the running program; nil marks a probe (a timed loop around
	// a public function, identical in every workload's traced pass).
	run []string
}

var (
	syncRuns  = []string{"cnn_train", "mlp_proto"}
	shardRuns = []string{"cnn_train", "mlp_proto", "async_push"}
)

func layerMetrics() []layerMetric {
	return []layerMetric{
		{"tensor.gemm_gflops", "GFLOP/s", "higher", nil},
		{"tensor.gemm_par_gflops", "GFLOP/s", "higher", nil},
		{"tensor.axpy_gbs_431k", "GB/s", "higher", nil},

		{"nn.cnn_train_batch_ms", "ms", "lower", nil},
		{"nn.cnn_forward_ms_per_sample", "ms", "lower", nil},
		{"nn.param_copy_ms_431k", "ms", "lower", nil},
		{"nn.cnn_train_allocs_per_batch", "count", "lower", nil},
		{"nn.mlp_train_batch_us", "us", "lower", nil},

		{"dataset.synth_samples_per_s", "1/s", "higher", nil},

		{"compress.dgc_encode_ms_431k_r210", "ms", "lower", nil},
		{"compress.dgc_encode_ms_431k_r4", "ms", "lower", nil},
		{"compress.topk_select_ms_431k", "ms", "lower", nil},
		{"compress.dadaquant_encode_ms_431k", "ms", "lower", nil},
		{"compress.qsgd_encode_ms_431k", "ms", "lower", nil},
		{"compress.sparse_addto_ns_per_nnz", "ns", "lower", nil},
		{"compress.sparse_wire_decode_ns_per_nnz", "ns", "lower", nil},
		{"compress.sparse_wire_encode_ns_per_nnz", "ns", "lower", nil},

		{"core.utility_score_ms_431k", "ms", "lower", nil},
		{"core.plan_us_n16", "us", "lower", nil},
		{"core.plan_us_n1000", "us", "lower", nil},
		{"core.negotiate_us_n1000", "us", "lower", nil},
		{"core.mean_assigned_ratio", "ratio", "higher", []string{"cnn_train", "mlp_proto", "sim_tta"}},

		{"scenario.begin_round_us_n1000", "us", "lower", nil},

		{"fl.sync_round_ms", "ms", "lower", nil},
		{"fl.client_train_round_ms", "ms", "lower", nil},
		{"fl.fedavg_apply_ms_431k", "ms", "lower", nil},

		{"rpc.wire_send_update_ns", "ns", "lower", nil},
		{"rpc.wire_recv_update_ns", "ns", "lower", nil},
		{"rpc.wire_allocs_per_update", "count", "lower", nil},
		{"rpc.wire_send_model_ms_431k", "ms", "lower", nil},
		{"rpc.wire_recv_model_ms_431k", "ms", "lower", nil},

		{"rpc.round_s_sum", "s", "lower", syncRuns},
		{"rpc.phase_score_s", "s", "lower", syncRuns},
		{"rpc.phase_update_s", "s", "lower", syncRuns},
		{"rpc.client_train_s", "s", "lower", syncRuns},
		{"rpc.checkpoint_s", "s", "lower", syncRuns},
		{"rpc.unattributed_share", "share", "lower", syncRuns},
		{"rpc.round_tail_s", "s", "lower", syncRuns},
		{"rpc.allocs_per_round", "count", "lower", syncRuns},
		{"rpc.goroutines_peak", "count", "lower", syncRuns},
		{"rpc.evictions", "count", "lower", syncRuns},

		{"rpc.fleet_gen_ns_per_update", "ns", "lower", nil},
		{"rpc.fleet_allocs_per_update", "count", "lower", []string{"fleet_ingest"}},

		{"shard.screen_us_per_update", "us", "lower", nil},
		{"shard.fold_ns_per_nnz", "ns", "lower", nil},
		{"shard.merge_us_dim20k", "us", "lower", nil},
		{"shard.tree_ingest_updates_per_s", "1/s", "higher", nil},
		{"shard.fold_s", "s", "lower", shardRuns},
		{"shard.merge_s", "s", "lower", shardRuns},
		{"shard.backpressure_total", "count", "lower", shardRuns},

		{"checkpoint.save_full_ms_431k", "ms", "lower", nil},
		{"checkpoint.save_delta_ms_431k", "ms", "lower", nil},
		{"checkpoint.load_delta_ms_431k", "ms", "lower", nil},
		{"checkpoint.delta_bytes_per_epoch", "B", "lower", []string{"mlp_proto"}},

		{"session.version_s_p50", "s", "lower", []string{"async_push"}},
		{"session.staleness_mean", "count", "lower", []string{"async_push"}},
		{"session.stale_rejected", "count", "lower", []string{"async_push"}},
		{"session.client_exit_errors", "count", "lower", []string{"async_push"}},

		{"edge.root_round_s_p50", "s", "lower", []string{"tree_ingest"}},
		{"edge.partial_bytes_per_round", "B", "lower", []string{"tree_ingest"}},
		{"edge.folded_per_s", "1/s", "higher", []string{"tree_ingest"}},

		{"obs.counter_inc_ns", "ns", "lower", nil},
		{"obs.histogram_observe_ns", "ns", "lower", nil},
		{"obs.emit_event_us", "us", "lower", nil},
		{"obs.trace_overhead_share", "share", "lower", allWorkloads},
	}
}

// benchmarkJSON renders the contract file.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range e2eMetrics() {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range layerMetrics() {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
