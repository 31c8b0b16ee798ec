#pragma once
// The four workloads. Each fills a Report: with Options::trace off, the
// end-to-end metrics of the timed run; with it on, the per-layer metrics
// of a separate traced run on the same inputs.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-layer metric names, in print order. Every traced run prints all of
/// them; a layer a workload does not reach reads 0 there.
inline const std::vector<std::pair<std::string, std::string>>&
per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.gather_ms", "ms"},
      {"core.forward_ms", "ms"},
      {"autograd.loss_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"optim.step_ms", "ms"},
      {"core.forward_eval_ms", "ms"},
      {"tensor.gemm_gflop", "GFLOP"},
      {"tensor.pack_mb", "MB"},
      {"tensor.arena_high_water_mb", "MB"},
      {"dist.reference_rows_per_s", "1/s"},
      {"dist.scaling_eff", "ratio"},
      {"dist.bytes_per_step", "B"},
      {"dist.retransmits", "count"},
      {"dist.recoveries", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"graph.transpose_hit_ratio", "ratio"},
      {"batch.requests_per_batch", "count"},
      {"batch.rows_per_batch", "count"},
      {"batch.close_share.row_cap", "ratio"},
      {"batch.close_share.deadline", "ratio"},
      {"batch.close_share.linger", "ratio"},
      {"batch.close_share.eager", "ratio"},
      {"batch.execute_ms", "ms"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.validate_ms", "ms"},
      {"serve.forward_ms", "ms"},
      {"serve.featurize_ms", "ms"},
      {"store.hit_ratio", "ratio"},
      {"store.evictions_per_req", "ratio"},
      {"store.lookup_hit_ms", "ms"},
      {"validate.check_ms", "ms"},
      {"reasoning.graph_ms", "ms"},
      {"reasoning.features_ms", "ms"},
      {"graph.spmm_ms", "ms"},
      {"obs.trace_overhead.work_per_cpu_s", "ratio"},
      {"obs.trace_overhead.work_per_s", "ratio"},
      {"obs.trace_overhead.p50_ms", "ratio"},
      {"obs.unattributed_share", "ratio"},
  };
  return names;
}

/// Records every per-layer metric, taking 0 for layers not in `values`.
inline void emit_per_layer(Report& report,
                           const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values.find(name);
    report.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void run_train(const Options& opt, Report& report);
void run_serve_hop(const Options& opt, Report& report);
void run_serve_aig(const Options& opt, Report& report);
void run_featurize(const Options& opt, Report& report);

}  // namespace perfbench
