// Workload `train`: Fig-5 HOGA-5 node classification on the tech-mapped
// 32-bit CSA multiplier through dist::run_distributed (2 worker processes,
// 8 logical shards, 128 rows per shard step, a durable checkpoint every
// epoch). Every job's final state must equal dist::run_reference.
//
// The workers cannot be observed from outside, so the traced run replays
// the same shard-step schedule in this process, calling the public
// functions of core, autograd, optim, dist and storage one by one, and
// checks that the replay reaches the same final state.

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "core/hoga_model.hpp"
#include "data/reasoning_dataset.hpp"
#include "dist/dist.hpp"
#include "dist/sharding.hpp"
#include "graph/transpose_cache.hpp"
#include "optim/optim.hpp"
#include "reasoning/features.hpp"
#include "storage/storage.hpp"
#include "store/digest.hpp"
#include "tensor/kernels.hpp"
#include "train/train_state.hpp"
#include "util/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hoga;

struct TrainInputs {
  data::ReasoningGraph graph;
  core::HogaConfig model;
  dist::DistConfig dist;
  std::int64_t rows_per_job() const {
    return graph.num_nodes * dist.epochs;
  }
};

TrainInputs make_inputs(const Options& opt, const std::string& checkpoint) {
  TrainInputs in;
  in.graph = data::make_reasoning_graph("csa", opt.tiny ? 8 : 32,
                                        /*mapped=*/true);
  in.model = core::HogaConfig{.in_dim = reasoning::kNodeFeatureDim,
                              .hidden = 32,
                              .num_hops = 5,
                              .num_layers = 1,
                              .out_dim = reasoning::kNumClasses};
  in.dist.workers = 2;
  in.dist.num_shards = 8;
  in.dist.batch_size = 128;
  // One epoch per job keeps enough jobs in a run for a median.
  in.dist.epochs = 1;
  in.dist.seed = opt.seed;
  in.dist.checkpoint_path = checkpoint;
  in.dist.checkpoint_every = 1;
  return in;
}

dist::DistResult run_job(const TrainInputs& in) {
  // Fresh state: no job may find an earlier job's checkpoint.
  std::filesystem::remove(in.dist.checkpoint_path);
  return dist::run_distributed(in.model, *in.graph.adj_hop, in.graph.features,
                               in.graph.labels, in.dist);
}

// ---- in-process replay of the logical schedule ----------------------------
// Mirrors dist's schedule: per-(seed, epoch, shard) batch orders, per-step
// dropout streams, row-weighted gradients combined by dist::tree_reduce in
// shard order, one Adam step per reduced gradient.

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                          std::int64_t a, std::int64_t b, std::int64_t c) {
  util::Digest d;
  d.update_value(seed);
  d.update_value(tag);
  d.update_value(a);
  d.update_value(b);
  d.update_value(c);
  return d.value();
}

struct Slot {
  std::vector<float> wgrad;
  double wloss = 0;
  std::int64_t rows = 0;
};

struct ReplayStats {
  Samples step_ms;
  long long rows = 0;
  long long steps = 0;
  long long checkpoints = 0;
  double cpu_s = 0;
};

/// One replayed job; returns its final state. `tracer` may be null.
std::string replay_job(const TrainInputs& in, obs::Tracer* tracer,
                       ReplayStats* stats) {
  const auto span = [tracer](const char* name) {
    return tracer ? tracer->span(name) : obs::Span();
  };
  const dist::DistConfig& cfg = in.dist;
  const graph::Csr& adj = *in.graph.adj_hop;
  const Tensor& x = in.graph.features;

  obs::Span job = span("bench.train_job");
  Rng rng(cfg.seed);
  std::optional<core::Hoga> model;
  std::optional<optim::Adam> opt;
  std::vector<dist::Shard> shards;
  {
    obs::Span s = span("core.model_init");
    model.emplace(in.model, rng);
    opt.emplace(model->parameters(), cfg.lr);
  }
  {
    obs::Span s = span("dist.make_shards");
    shards = dist::make_shards(x.size(0), cfg.num_shards,
                               store::graph_digest(adj, x));
  }
  std::size_t param_floats = 0;
  for (const auto& p : opt->params()) {
    param_floats += static_cast<std::size_t>(p.numel());
  }
  std::int64_t max_rows = 0;
  for (const auto& s : shards) max_rows = std::max(max_rows, s.rows());
  const std::int64_t steps = (max_rows + cfg.batch_size - 1) / cfg.batch_size;
  core::HopFeatures hops;
  {
    obs::Span s = span("core.hop_features");
    hops = core::HopFeatures::compute(adj, x, in.model.num_hops);
  }
  model->set_training(true);

  train::TrainState st;
  const auto checkpoint = [&] {
    obs::Span s = span("storage.checkpoint");
    storage::atomic_write_durable(
        cfg.checkpoint_path, train::save_train_state(*model, *opt, rng, st));
    ++stats->checkpoints;
  };
  std::filesystem::remove(cfg.checkpoint_path);
  checkpoint();

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    double loss_sum = 0;
    std::int64_t counted = 0;
    for (std::int64_t t = 0; t < steps; ++t) {
      const auto step_start = Clock::now();
      std::vector<Slot> slots(shards.size());
      for (const auto& shard : shards) {
        std::vector<std::int64_t> ids;
        {
          // dist recomputes the shard's epoch order on every step.
          obs::Span s = span("dist.shard_order");
          ids.resize(static_cast<std::size_t>(shard.rows()));
          std::iota(ids.begin(), ids.end(), shard.begin);
          Rng order_rng(derive_seed(cfg.seed, 1, epoch, shard.id, 0));
          order_rng.shuffle(ids);
        }
        const std::int64_t lo = t * cfg.batch_size;
        const std::int64_t hi = std::min<std::int64_t>(
            static_cast<std::int64_t>(ids.size()), lo + cfg.batch_size);
        if (lo >= hi) continue;
        const std::vector<std::int64_t> batch(ids.begin() + lo,
                                              ids.begin() + hi);
        std::vector<int> labels;
        labels.reserve(batch.size());
        for (std::int64_t i : batch) {
          labels.push_back(in.graph.labels[static_cast<std::size_t>(i)]);
        }
        {
          obs::Span s = span("optim.zero_grad");
          opt->zero_grad();
        }
        Rng batch_rng(derive_seed(cfg.seed, 2, epoch, t, shard.id));
        Tensor xb;
        {
          obs::Span s = span("core.gather");
          xb = hops.gather(batch);
        }
        ag::Variable logits;
        {
          obs::Span s = span("core.forward");
          logits = model->forward(ag::constant(xb), batch_rng);
        }
        ag::Variable loss;
        {
          obs::Span s = span("autograd.loss");
          loss = ag::softmax_cross_entropy(logits, labels, cfg.class_weights);
        }
        {
          obs::Span s = span("autograd.backward");
          loss.backward();
        }
        obs::Span s = span("dist.weight_grads");
        Slot& slot = slots[static_cast<std::size_t>(shard.id)];
        slot.rows = hi - lo;
        slot.wloss = static_cast<double>(loss.value().data()[0]) *
                     static_cast<double>(slot.rows);
        const float w = static_cast<float>(slot.rows);
        slot.wgrad.reserve(param_floats);
        for (const auto& p : opt->params()) {
          const Tensor& g = p.grad();
          for (std::int64_t i = 0; i < g.numel(); ++i) {
            slot.wgrad.push_back(g.data()[i] * w);
          }
        }
      }
      Slot sum;
      {
        obs::Span s = span("dist.tree_reduce");
        sum = dist::tree_reduce(std::move(slots), [](Slot& a, Slot& b) {
          if (b.rows == 0) return;
          if (a.rows == 0) {
            a = std::move(b);
            return;
          }
          for (std::size_t i = 0; i < a.wgrad.size(); ++i) {
            a.wgrad[i] += b.wgrad[i];
          }
          a.wloss += b.wloss;
          a.rows += b.rows;
        });
      }
      if (sum.rows > 0) {
        obs::Span s = span("optim.step");
        const float inv = 1.f / static_cast<float>(sum.rows);
        std::size_t off = 0;
        for (ag::Variable p : opt->params()) {
          p.zero_grad();
          Tensor& g = p.mutable_grad();
          for (std::int64_t i = 0; i < g.numel(); ++i) {
            g.data()[i] = sum.wgrad[off + static_cast<std::size_t>(i)] * inv;
          }
          off += static_cast<std::size_t>(g.numel());
        }
        opt->step();
        loss_sum += sum.wloss / static_cast<double>(sum.rows);
        ++counted;
        stats->rows += sum.rows;
      }
      ++stats->steps;
      stats->step_ms.add(ms_since(step_start));
    }
    st.epoch_losses.push_back(
        static_cast<float>(loss_sum / std::max<std::int64_t>(1, counted)));
    st.epoch += 1;
    checkpoint();
  }
  obs::Span s = span("storage.save_state");
  return train::save_train_state(*model, *opt, rng, st);
}

}  // namespace

void run_train(const Options& opt, Report& report) {
  TempDir tmp("train");
  const std::string ckpt = tmp.path() + "/train.ckpt";
  std::optional<TrainInputs> in;
  const SetupTimes setup =
      repeated_setup(9, [&] { in = make_inputs(opt, ckpt); });
  report.note("workload train: mapped " +
              std::to_string(in->graph.bitwidth) + "-bit CSA, " +
              std::to_string(in->graph.num_nodes) +
              " nodes, HOGA-5 hidden 32, 2 workers x 8 shards x 128 rows, " +
              "1 epoch per job, checkpoint every epoch");

  // The byte-identity target, outside every timed region.
  const dist::DistResult ref = dist::run_reference(
      in->model, *in->graph.adj_hop, in->graph.features, in->graph.labels,
      in->dist);

  if (!opt.trace) {
    Samples job_ms, job_cpu_ms;
    std::size_t ops = 0;
    report.calibration.sample();
    measure_loop(opt.seconds, samples_needed(50), [&] {
      ++report.attempted;
      const auto t0 = Clock::now();
      const double c0 = process_cpu_s() + children_cpu_s();
      bool ok = false;
      try {
        const dist::DistResult r = run_job(*in);
        ok = r.final_state == ref.final_state && r.recoveries == 0;
      } catch (const std::exception& e) {
        report.note(std::string("  job failed: ") + e.what());
      }
      // The workers are reaped inside run_job, so their CPU is counted.
      job_cpu_ms.add((process_cpu_s() + children_cpu_s() - c0) * 1e3);
      job_ms.add(ms_since(t0));
      if (!ok) ++report.failed;
    }, &ops);
    report.calibration.sample();
    const double rows = static_cast<double>(in->rows_per_job());
    report.setup(setup);
    report.work(rows, job_cpu_ms.percentile(50) / 1e3,
                "rows trained (CPU of the coordinator and its workers, "
                "median of " + std::to_string(ops) + " jobs)");
    report.wall("train_rows_per_s", rows / (job_ms.percentile(50) / 1e3),
                "1/s", "rows per wall second of run_distributed, median job");
    report.latencies(job_ms, "training jobs");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::map<std::string, double> layers;
  // Exchange and scaling, measured on real worker processes (untraced).
  {
    const auto t0 = Clock::now();
    const dist::DistResult r = run_job(*in);
    const double dist_s = ms_since(t0) / 1e3;
    ++report.attempted;
    if (r.final_state != ref.final_state) ++report.failed;
    std::int64_t max_rows = 0;
    for (const auto& s :
         dist::make_shards(in->graph.num_nodes, in->dist.num_shards, 0)) {
      max_rows = std::max(max_rows, s.rows());
    }
    const double steps = static_cast<double>(
        (max_rows + in->dist.batch_size - 1) / in->dist.batch_size *
        in->dist.epochs);
    const double rows = static_cast<double>(in->rows_per_job());
    layers["dist.reference_rows_per_s"] = rows / ref.seconds;
    layers["dist.scaling_eff"] =
        (rows / dist_s) / (rows / ref.seconds) / in->dist.workers;
    layers["dist.bytes_per_step"] = static_cast<double>(r.bytes_sent) / steps;
    layers["dist.retransmits"] = static_cast<double>(r.retransmits);
    layers["dist.recoveries"] = static_cast<double>(r.recoveries);
  }

  // Untraced then traced replay, half the budget each.
  const auto replay_pass = [&](obs::Tracer* tracer, ReplayStats* st) {
    std::size_t ops = 0;
    const double c0 = process_cpu_s();
    const double wall_s = measure_loop(opt.seconds / 2, 1, [&] {
      ++report.attempted;
      if (replay_job(*in, tracer, st) != ref.final_state) ++report.failed;
    }, &ops);
    st->cpu_s = process_cpu_s() - c0;
    return wall_s;
  };
  ReplayStats plain;
  const double plain_s = replay_pass(nullptr, &plain);

  obs::Tracer tracer(nullptr, std::size_t{1} << 20);
  ReplayStats traced;
  kernels::reset_stats();
  const auto transpose0 = graph::TransposeCache::global().stats();
  const double traced_s = replay_pass(&tracer, &traced);
  const auto transpose1 = graph::TransposeCache::global().stats();
  const LayerTable table =
      fold_spans(tracer.finished(), traced_s * 1e3, traced_s * 1e3);
  print_table(report, table);
  if (tracer.dropped() > 0) {
    report.note("  tracer dropped " + std::to_string(tracer.dropped()) +
                " spans");
  }

  const double steps = static_cast<double>(traced.steps);
  const auto per_step = [&](const char* layer) {
    return table.self_ms(layer) / steps;
  };
  layers["core.gather_ms"] = per_step("core.gather");
  layers["core.forward_ms"] = per_step("core.forward");
  layers["autograd.loss_ms"] = per_step("autograd.loss");
  layers["autograd.backward_ms"] = per_step("autograd.backward");
  layers["optim.step_ms"] = per_step("optim.step");
  const auto& ks = kernels::stats();
  layers["tensor.gemm_gflop"] =
      static_cast<double>(ks.gemm_flops.load()) / 1e9 / steps;
  layers["tensor.pack_mb"] =
      static_cast<double>(ks.pack_bytes.load()) / 1e6 / steps;
  layers["storage.checkpoint_ms"] =
      table.self_ms("storage.checkpoint") /
      static_cast<double>(std::max(1LL, traced.checkpoints));
  const long long t_hits = transpose1.hits - transpose0.hits;
  const long long t_lookups = t_hits + transpose1.misses - transpose0.misses;
  layers["graph.transpose_hit_ratio"] =
      t_lookups > 0 ? static_cast<double>(t_hits) / t_lookups : 0;
  layers["obs.trace_overhead.work_per_cpu_s"] = relative_change(
      traced.rows / traced.cpu_s, plain.rows / plain.cpu_s);
  layers["obs.trace_overhead.work_per_s"] =
      relative_change(traced.rows / traced_s, plain.rows / plain_s);
  layers["obs.trace_overhead.p50_ms"] = relative_change(
      traced.step_ms.percentile(50), plain.step_ms.percentile(50));
  layers["obs.unattributed_share"] = table.unattributed_share();
  report.note("  (replay: " + std::to_string(traced.steps) +
              " traced steps; per-step figures divide layer self time by "
              "steps; trace overhead compares the untraced replay)");
  emit_per_layer(report, layers);
}

}  // namespace perfbench
