// Workloads `serve_hop` and `serve_aig`: closed loops of client_threads()
// callers (4 on a 4-core machine), each blocking on
// serve::InferenceService::infer before sending its next request. Closed
// loops build no queue beyond the callers, so no claim about queueing under
// open-loop arrival can rest on them.
//
//   serve_hop: precomputed K=3 hop batches of 1-8 rows (P(b) ~ 1/b), one in
//     four on the bulk lane; default ServeConfig with batching on and the
//     default BatchConfig. Bound by per-request overhead.
//   serve_aig: raw AIGs drawn Zipf-skewed from the 29 IP designs plus
//     mapped 8/12/16-bit CSA and Booth multipliers; default ServeConfig
//     (unbatched) with a memory-only FeatureStore holding about half the
//     pool's hop features, so misses recur. Bound by GEMM work, with
//     featurization and the store on misses.
//
// Every response must be byte-equal to the benchmark's own forward_eval of
// the same input (computed before the loop).

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "circuits/ip_designs.hpp"
#include "circuits/multipliers.hpp"
#include "core/hoga_model.hpp"
#include "obs/obs.hpp"
#include "reasoning/features.hpp"
#include "reasoning/labels.hpp"
#include "serve/serve.hpp"
#include "store/feature_store.hpp"
#include "synth/techmap.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "validate/validate.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hoga;

constexpr int kHops = 3;
constexpr std::uint64_t kModelSeed = 0x5eed;

core::HogaConfig model_config() {
  return core::HogaConfig{.in_dim = reasoning::kNodeFeatureDim,
                          .hidden = 32,
                          .num_hops = kHops,
                          .num_layers = 1,
                          .out_dim = reasoning::kNumClasses};
}

aig::Aig mapped_multiplier(bool booth, int bits) {
  const auto lc = booth ? circuits::make_booth_multiplier(bits)
                        : circuits::make_csa_multiplier(bits);
  return synth::tech_map(lc.aig);
}

/// The serve path's own featurization, done by the benchmark.
core::HopFeatures featurize(const aig::Aig& g) {
  return core::HopFeatures::compute(
      reasoning::to_graph(g).normalized_symmetric(), reasoning::node_features(g),
      kHops);
}

/// forward_eval in the service's node chunks.
Tensor reference_forward(const core::Hoga& model, const Tensor& input,
                         std::int64_t node_batch) {
  const std::int64_t n = input.size(0);
  const std::int64_t c = model.config().out_dim;
  Tensor out({n, c});
  for (std::int64_t lo = 0; lo < n; lo += node_batch) {
    const std::int64_t hi = std::min(n, lo + node_batch);
    const Tensor part =
        model.forward_eval(ag::constant(tensor_ops::slice_rows(input, lo, hi)))
            .value();
    std::copy(part.data(), part.data() + part.numel(), out.data() + lo * c);
  }
  return out;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// One pool entry: the request input, its expected output, and the cost of
/// the benchmark's own validate and forward_eval calls on it.
struct Item {
  Tensor hop_batch;                   // serve_hop
  std::shared_ptr<aig::Aig> aig;      // serve_aig
  Tensor expected;
  double validate_ms = 0;
  double forward_eval_ms = 0;
};

/// Cumulative distribution of `weights`, for draw().
std::vector<double> make_cdf(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<double> cdf;
  double acc = 0;
  for (double w : weights) {
    acc += w / total;
    cdf.push_back(acc);
  }
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, Rng& rng) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), rng.uniform());
  return std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1);
}

struct Pool {
  std::vector<Item> items;
  std::vector<double> cdf;  // draw distribution over items
  bool bulk_lane = false;   // one in four requests on the bulk lane
};

/// Fills expected outputs and the per-item validate / forward_eval costs.
void compute_references(const core::Hoga& model, Pool& pool) {
  const serve::ServeConfig defaults;
  for (Item& it : pool.items) {
    Tensor input;
    auto t0 = Clock::now();
    if (it.aig) {
      (void)validate::check_aig(*it.aig, defaults.max_request_nodes);
      it.validate_ms = ms_since(t0);
      input = featurize(*it.aig).gather_all();
    } else {
      input = it.hop_batch;
    }
    t0 = Clock::now();
    (void)validate::check_hop_batch(input, kHops, model.config().in_dim,
                                    defaults.max_request_nodes);
    it.validate_ms += ms_since(t0);
    t0 = Clock::now();
    it.expected = reference_forward(model, input, defaults.node_batch);
    it.forward_eval_ms = ms_since(t0);
  }
}

struct LoopResult {
  Samples latency_ms;
  long long attempted = 0;
  long long failed = 0;
  double wall_s = 0;
  double cpu_s = 0;                  // process CPU over the loop
  std::vector<double> served_at_s;   // completion times of correct responses
  double bench_ms = 0;              // summed caller loop time
  std::vector<long long> item_hits;  // requests per pool item
};

/// Runs the closed loop for `seconds` (extended until `min_ops` requests,
/// up to four times the budget). `corrupt_first` alters the first served
/// output before it is checked.
LoopResult closed_loop(serve::InferenceService& svc, const Pool& pool,
                       std::uint64_t seed, double seconds, std::size_t min_ops,
                       obs::Tracer* tracer, bool corrupt_first) {
  const int callers = client_threads();
  LoopResult out;
  out.item_hits.assign(pool.items.size(), 0);
  std::mutex mu;
  std::atomic<long long> done{0};
  std::atomic<bool> corrupt_pending{corrupt_first};
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  const auto caller = [&](int id) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(id) + 1);
    LoopResult mine;
    mine.item_hits.assign(pool.items.size(), 0);
    const auto start = Clock::now();
    while (true) {
      const double elapsed = ms_since(t0) / 1e3;
      if (elapsed >= 4 * seconds) break;
      if (elapsed >= seconds &&
          done.load(std::memory_order_relaxed) >=
              static_cast<long long>(min_ops)) {
        break;
      }
      const std::size_t i = draw(pool.cdf, rng);
      const Item& item = pool.items[i];
      serve::Request req;
      if (item.aig) {
        req.aig = item.aig.get();
      } else {
        req.hop_batch = item.hop_batch;
      }
      if (pool.bulk_lane && rng.uniform_int(4) == 0) {
        req.lane = batch::Lane::kBulk;
      }
      const auto r0 = Clock::now();
      serve::Response resp;
      {
        obs::Span span;
        if (tracer) span = tracer->span("bench.request");
        resp = svc.infer(req);
      }
      const double ms = ms_since(r0);
      if (resp.outcome == serve::Outcome::kServed &&
          corrupt_pending.exchange(false)) {
        resp.output = resp.output.clone();
        resp.output.data()[0] = -resp.output.data()[0] - 1.f;
      }
      ++mine.attempted;
      ++mine.item_hits[i];
      if (resp.outcome != serve::Outcome::kServed ||
          !same_bytes(resp.output, item.expected)) {
        ++mine.failed;
      } else {
        mine.served_at_s.push_back(ms_since(t0) / 1e3);
      }
      mine.latency_ms.add(ms);
      done.fetch_add(1, std::memory_order_relaxed);
    }
    const double loop_ms = ms_since(start);
    std::lock_guard<std::mutex> lock(mu);
    out.latency_ms.merge(mine.latency_ms);
    out.attempted += mine.attempted;
    out.failed += mine.failed;
    out.bench_ms += loop_ms;
    out.served_at_s.insert(out.served_at_s.end(), mine.served_at_s.begin(),
                           mine.served_at_s.end());
    for (std::size_t k = 0; k < pool.items.size(); ++k) {
      out.item_hits[k] += mine.item_hits[k];
    }
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < callers; ++id) threads.emplace_back(caller, id);
  for (auto& t : threads) t.join();
  out.wall_s = ms_since(t0) / 1e3;
  out.cpu_s = process_cpu_s() - cpu0;
  return out;
}

/// Everything a serve run sets up: pool, model, store and service.
struct ServeInputs {
  Pool pool;
  std::unique_ptr<core::Hoga> model;
  std::unique_ptr<store::FeatureStore> store;
  std::size_t store_budget = 0;
  std::unique_ptr<serve::InferenceService> service;
};

serve::ServeConfig serve_config(bool batching, store::FeatureStore* store,
                                obs::MetricsRegistry* metrics,
                                obs::Tracer* tracer) {
  serve::ServeConfig cfg;
  cfg.batching = batching;
  cfg.feature_store = store;
  cfg.metrics = metrics;
  cfg.tracer = tracer;
  return cfg;
}

Pool make_hop_pool(const Options& opt) {
  const aig::Aig g = mapped_multiplier(false, opt.tiny ? 8 : 16);
  const core::HopFeatures hops = featurize(g);
  Rng rng(opt.seed);
  Pool pool;
  pool.bulk_lane = true;
  const std::size_t n = opt.tiny ? 64 : 1024;
  std::vector<double> size_weights;  // P(b) ~ 1/b for b = 1..8
  for (int b = 1; b <= 8; ++b) size_weights.push_back(1.0 / b);
  const std::vector<double> size_cdf = make_cdf(size_weights);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = draw(size_cdf, rng) + 1;
    std::vector<std::int64_t> ids;
    for (std::size_t id : rng.sample_without_replacement(
             static_cast<std::size_t>(hops.num_nodes()), b)) {
      ids.push_back(static_cast<std::int64_t>(id));
    }
    Item item;
    item.hop_batch = hops.gather(ids);
    pool.items.push_back(std::move(item));
  }
  pool.cdf = make_cdf(std::vector<double>(n, 1.0));
  return pool;
}

Pool make_aig_pool(const Options& opt) {
  Pool pool;
  const auto& specs = circuits::openabcd_specs();
  const std::size_t ip = opt.tiny ? 5 : specs.size();
  for (std::size_t i = 0; i < ip; ++i) {
    Item item;
    item.aig = std::make_shared<aig::Aig>(circuits::build_ip_design(specs[i]));
    pool.items.push_back(std::move(item));
  }
  for (int bits : opt.tiny ? std::vector<int>{8} : std::vector<int>{8, 12, 16}) {
    for (bool booth : {false, true}) {
      Item item;
      item.aig = std::make_shared<aig::Aig>(mapped_multiplier(booth, bits));
      pool.items.push_back(std::move(item));
    }
  }
  // Zipf(1) popularity over a fixed ranking of the pool. The ranking does
  // not depend on the seed, so seeds change the request sequence but not
  // the popularity of each circuit.
  std::vector<std::size_t> rank(pool.items.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  Rng fixed(0x2545f4914f6cdd1dULL);
  fixed.shuffle(rank);
  std::vector<double> weights(pool.items.size());
  for (std::size_t r = 0; r < rank.size(); ++r) {
    weights[rank[r]] = 1.0 / static_cast<double>(r + 1);
  }
  pool.cdf = make_cdf(weights);
  return pool;
}

/// Byte budget holding about half the pool's hop features.
std::size_t half_pool_bytes(const Pool& pool) {
  std::size_t total = 0;
  for (const Item& it : pool.items) {
    total += static_cast<std::size_t>(it.aig->num_nodes()) * (kHops + 1) *
             reasoning::kNodeFeatureDim * sizeof(float);
  }
  return total / 2;
}

std::unique_ptr<store::FeatureStore> make_store(std::size_t budget,
                                                obs::MetricsRegistry* metrics) {
  store::StoreConfig sc;  // no directory: memory tier only
  sc.memory_budget_bytes = budget;
  sc.metrics = metrics;
  return std::make_unique<store::FeatureStore>(sc);
}

ServeInputs make_inputs(const Options& opt, bool aig) {
  ServeInputs in;
  in.pool = aig ? make_aig_pool(opt) : make_hop_pool(opt);
  // One fixed model, as a deployed service has: the seed drives the
  // traffic. Forward cost depends on the weights' values (see README), so
  // a seeded model would move the figures from seed to seed.
  Rng rng(kModelSeed);
  in.model = std::make_unique<core::Hoga>(model_config(), rng);
  if (aig) {
    in.store_budget = half_pool_bytes(in.pool);
    in.store = make_store(in.store_budget, nullptr);
  }
  in.service = std::make_unique<serve::InferenceService>(
      *in.model, serve_config(!aig, in.store.get(), nullptr, nullptr));
  return in;
}

/// The loops run until p99 has ten samples beyond it.
constexpr double kTail = 99;

void run_serve(const Options& opt, Report& report, bool aig) {
  const std::string name = aig ? "serve_aig" : "serve_hop";
  // Declared before the service, which may hold pointers to them.
  obs::MetricsRegistry registry;
  obs::Tracer tracer(nullptr, std::size_t{1} << 21);
  std::optional<ServeInputs> in;
  const SetupTimes setup = repeated_setup(9, [&] {
    in.reset();
    in.emplace(make_inputs(opt, aig));
  });
  compute_references(*in->model, in->pool);
  const std::size_t min_ops = samples_needed(kTail);
  report.note("workload " + name + ": closed loop, " +
              std::to_string(client_threads()) + " callers, " +
              std::to_string(in->pool.items.size()) + " distinct requests" +
              (aig ? ", unbatched, memory-only feature store of " +
                         std::to_string(in->store_budget) + " bytes"
                   : ", batching on (default BatchConfig)"));
  report.note("  closed loop: no claim about queueing under open-loop "
              "arrival rests on these figures");

  if (!opt.trace) {
    report.calibration.sample();
    const LoopResult r = closed_loop(*in->service, in->pool, opt.seed,
                                     opt.seconds, min_ops, nullptr,
                                     opt.corrupt == "served");
    report.attempted += r.attempted;
    report.failed += r.failed;
    report.calibration.sample();
    report.setup(setup);
    report.work(static_cast<double>(r.attempted - r.failed), r.cpu_s,
                "requests served (CPU of the whole process, callers "
                "included)");
    report.wall("req_per_s", windowed_rate(r.served_at_s, r.wall_s), "1/s",
                "median of " + std::to_string(static_cast<int>(r.wall_s)) +
                    " one-second windows");
    report.latencies(r.latency_ms, "requests");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Untraced pass on a fresh service (and store), then the traced pass.
  const auto fresh = [&](obs::MetricsRegistry* metrics, obs::Tracer* tracer) {
    in->service.reset();
    if (aig) in->store = make_store(in->store_budget, metrics);
    in->service = std::make_unique<serve::InferenceService>(
        *in->model,
        serve_config(!aig, in->store.get(), metrics, tracer));
  };
  fresh(nullptr, nullptr);
  const LoopResult plain = closed_loop(*in->service, in->pool, opt.seed,
                                       opt.seconds / 2, 1, nullptr, false);

  LoopResult traced;
  {
    obs::Observability ctx;
    ctx.metrics = &registry;
    obs::ScopedObservability scope(ctx);
    fresh(&registry, &tracer);
    kernels::reset_stats();
    traced = closed_loop(*in->service, in->pool, opt.seed, opt.seconds / 2, 1,
                         &tracer, false);
  }
  report.attempted += plain.attempted + traced.attempted;
  report.failed += plain.failed + traced.failed;
  const auto spans = tracer.finished();
  const LayerTable table =
      fold_spans(spans, traced.bench_ms, traced.wall_s * 1e3);
  print_table(report, table);
  if (tracer.dropped() > 0) {
    report.note("  tracer dropped " + std::to_string(tracer.dropped()) +
                " spans");
  }

  std::map<std::string, double> layers;
  const double reqs = static_cast<double>(traced.attempted);
  const auto per_call = [&](const char* layer) {
    const long long calls = table.calls(layer);
    return calls > 0 ? table.self_ms(layer) / static_cast<double>(calls) : 0;
  };
  // The benchmark's own validate / forward_eval costs, weighted by how
  // often the traced pass drew each input.
  double validate_ms = 0, forward_eval_ms = 0;
  for (std::size_t i = 0; i < in->pool.items.size(); ++i) {
    const double w = static_cast<double>(traced.item_hits[i]) / reqs;
    validate_ms += w * in->pool.items[i].validate_ms;
    forward_eval_ms += w * in->pool.items[i].forward_eval_ms;
  }
  layers["core.forward_eval_ms"] = forward_eval_ms;
  layers["validate.check_ms"] = validate_ms;
  const auto& ks = kernels::stats();
  layers["tensor.gemm_gflop"] =
      static_cast<double>(ks.gemm_flops.load()) / 1e9 / reqs;
  layers["tensor.pack_mb"] =
      static_cast<double>(ks.pack_bytes.load()) / 1e6 / reqs;
  layers["tensor.arena_high_water_mb"] =
      static_cast<double>(registry.counter("arena.high_water").value()) / 1e6;

  const batch::BatchStats bs = in->service->batch_stats();
  if (bs.batches > 0) {
    const double batches = static_cast<double>(bs.batches);
    layers["batch.requests_per_batch"] =
        static_cast<double>(bs.submitted) / batches;
    layers["batch.rows_per_batch"] = static_cast<double>(bs.rows) / batches;
    layers["batch.close_share.row_cap"] = bs.closed_row_cap / batches;
    layers["batch.close_share.deadline"] = bs.closed_deadline / batches;
    layers["batch.close_share.linger"] = bs.closed_linger / batches;
    layers["batch.close_share.eager"] = bs.closed_eager / batches;
    layers["batch.execute_ms"] = per_call("batch.execute");
  }
  obs::Histogram qw =
      registry.histogram("serve.queue_wait_ms", obs::latency_ms_bounds());
  for (const double q : {50.0, 99.0}) {
    const std::string key =
        "serve.queue_wait_ms.p" + std::to_string(static_cast<int>(q));
    if (static_cast<std::size_t>(qw.count()) >= samples_needed(q)) {
      layers[key] = qw.quantile(q / 100);
    } else {
      report.note("  " + key + " not reported: " + std::to_string(qw.count()) +
                  " samples, needs " + std::to_string(samples_needed(q)) +
                  " (the batching path records no queue wait)");
    }
  }
  layers["serve.validate_ms"] = per_call("serve.validate");
  layers["serve.forward_ms"] = per_call("serve.forward");
  layers["serve.featurize_ms"] = per_call("serve.featurize");
  if (aig) {
    const store::StoreStats ss = in->store->stats();
    layers["store.hit_ratio"] =
        ss.lookups > 0 ? static_cast<double>(ss.hits()) / ss.lookups : 0;
    layers["store.evictions_per_req"] = static_cast<double>(ss.evictions) / reqs;
    Samples hit_ms;
    for (const auto& s : spans) {
      if (s.name != "serve.featurize") continue;
      for (const auto& [k, v] : s.attrs) {
        if (k == "source" && v == "store") {
          hit_ms.add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
      }
    }
    layers["store.lookup_hit_ms"] =
        hit_ms.size() > 0 ? hit_ms.sum() / static_cast<double>(hit_ms.size())
                          : 0;
  }
  layers["obs.trace_overhead.work_per_cpu_s"] = relative_change(
      (traced.attempted - traced.failed) / traced.cpu_s,
      (plain.attempted - plain.failed) / plain.cpu_s);
  layers["obs.trace_overhead.work_per_s"] = relative_change(
      windowed_rate(traced.served_at_s, traced.wall_s),
      windowed_rate(plain.served_at_s, plain.wall_s));
  layers["obs.trace_overhead.p50_ms"] = relative_change(
      traced.latency_ms.percentile(50), plain.latency_ms.percentile(50));
  layers["obs.unattributed_share"] = table.unattributed_share();
  report.note("  (traced pass: " + std::to_string(traced.attempted) +
              " requests; per-request figures divide by requests, span "
              "figures by calls)");
  emit_per_layer(report, layers);
}

}  // namespace

void run_serve_hop(const Options& opt, Report& report) {
  run_serve(opt, report, false);
}

void run_serve_aig(const Options& opt, Report& report) {
  run_serve(opt, report, true);
}

}  // namespace perfbench
