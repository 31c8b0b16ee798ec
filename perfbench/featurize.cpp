// Workload `featurize`: single-threaded phase-1 precompute of tech-mapped
// CSA and Booth multipliers (64 and 128 bits, 59k-272k nodes) and the 29
// IP designs: to_graph, normalized_symmetric(0), to_fanin_graph,
// node_features, then HopFeatures::compute_concat over both adjacencies
// with K=5. Each pass visits every design once, in a seeded order. Every
// output must be byte-equal to the same computation under
// kernels::ScopedReferenceMode(true); outputs are compared by their
// util::Digest, so no reference tensor of a 272k-node design is held.
//
// The traced run replays compute_concat through its public parts
// (Csr::spmm per hop and the copy into the stacked tensor), so SpMM time
// is attributed separately; the replay must match the same digests.

#include <algorithm>

#include "circuits/ip_designs.hpp"
#include "circuits/multipliers.hpp"
#include "core/hop_features.hpp"
#include "reasoning/features.hpp"
#include "synth/techmap.hpp"
#include "tensor/kernels.hpp"
#include "util/digest.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace hoga;

constexpr int kHops = 5;
/// Tail percentile: a run holds a few hundred design featurizations.
constexpr double kTail = 90;

std::vector<aig::Aig> make_designs(const Options& opt) {
  std::vector<aig::Aig> designs;
  for (int bits : opt.tiny ? std::vector<int>{8} : std::vector<int>{64, 128}) {
    designs.push_back(
        synth::tech_map(circuits::make_csa_multiplier(bits).aig));
    designs.push_back(
        synth::tech_map(circuits::make_booth_multiplier(bits).aig));
  }
  const auto& specs = circuits::openabcd_specs();
  const std::size_t ip = opt.tiny ? 3 : specs.size();
  for (std::size_t i = 0; i < ip; ++i) {
    designs.push_back(circuits::build_ip_design(specs[i]));
  }
  return designs;
}

core::HopFeatures featurize(const aig::Aig& g) {
  const graph::Csr hop = reasoning::to_graph(g).normalized_symmetric(0.f);
  const graph::Csr fanin = reasoning::to_fanin_graph(g);
  return core::HopFeatures::compute_concat({&hop, &fanin},
                                           reasoning::node_features(g), kHops);
}

/// The same computation, one public call at a time, each in its own span.
Tensor featurize_traced(const aig::Aig& g, obs::Tracer& tracer) {
  obs::Span root = tracer.span("bench.design");
  graph::Csr sym, hop, fanin;
  Tensor x;
  {
    obs::Span s = tracer.span("reasoning.to_graph");
    sym = reasoning::to_graph(g);
  }
  {
    obs::Span s = tracer.span("graph.normalize");
    hop = sym.normalized_symmetric(0.f);
  }
  {
    obs::Span s = tracer.span("reasoning.to_fanin_graph");
    fanin = reasoning::to_fanin_graph(g);
  }
  {
    obs::Span s = tracer.span("reasoning.node_features");
    x = reasoning::node_features(g);
  }
  const std::int64_t n = x.size(0), d = x.size(1);
  const std::int64_t k1 = kHops + 1, d_total = 2 * d;
  Tensor stacked;
  {
    obs::Span s = tracer.span("tensor.alloc");
    stacked = Tensor({n, k1, d_total});
  }
  const graph::Csr* adjs[] = {&hop, &fanin};
  for (std::int64_t p = 0; p < 2; ++p) {
    Tensor current = x;
    for (int k = 0; k <= kHops; ++k) {
      if (k > 0) {
        obs::Span s = tracer.span("graph.spmm");
        current = adjs[p]->spmm(current);
      }
      obs::Span s = tracer.span("core.hop_stack");
      for (std::int64_t i = 0; i < n; ++i) {
        std::copy(current.data() + i * d, current.data() + (i + 1) * d,
                  stacked.data() + (i * k1 + k) * d_total + p * d);
      }
    }
    obs::Span s = tracer.span("tensor.free");
    current = Tensor();
  }
  obs::Span s = tracer.span("graph.free");
  sym = hop = fanin = graph::Csr();
  x = Tensor();
  return stacked;
}

std::uint64_t digest(const Tensor& t) {
  util::Digest d;
  d.update(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return d.value();
}

struct PassStats {
  Samples design_ms;
  Samples pass_ms;      // featurization time of each whole pass
  Samples pass_cpu_ms;  // and its CPU time
  long long nodes = 0;
  double busy_s = 0;
};

}  // namespace

void run_featurize(const Options& opt, Report& report) {
  std::vector<aig::Aig> designs;
  const SetupTimes setup =
      repeated_setup(3, [&] { designs = make_designs(opt); });
  std::vector<std::uint64_t> expected;
  long long pass_nodes = 0;
  {
    kernels::ScopedReferenceMode reference(true);
    for (const auto& g : designs) {
      expected.push_back(digest(featurize(g).stacked()));
      pass_nodes += g.num_nodes();
    }
  }
  report.note("workload featurize: " + std::to_string(designs.size()) +
              " designs, " + std::to_string(pass_nodes) +
              " nodes per pass, single thread, K=" + std::to_string(kHops));

  bool corrupt_pending = opt.corrupt == "hop";
  // One op = one pass over all designs in a seeded order; each design's
  // featurization is one latency sample. Checks run outside the timing.
  std::uint64_t pass_no = 0;
  const auto pass = [&](PassStats& st, obs::Tracer* tracer) {
    std::vector<std::size_t> order(designs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + ++pass_no);
    rng.shuffle(order);
    double pass_ms = 0, pass_cpu_ms = 0;
    for (std::size_t i : order) {
      const auto t0 = Clock::now();
      const double c0 = thread_cpu_s();
      Tensor out = tracer ? featurize_traced(designs[i], *tracer)
                          : featurize(designs[i]).stacked();
      const double ms = ms_since(t0);
      pass_cpu_ms += (thread_cpu_s() - c0) * 1e3;
      st.design_ms.add(ms);
      st.busy_s += ms / 1e3;
      pass_ms += ms;
      st.nodes += designs[i].num_nodes();
      if (corrupt_pending) {
        corrupt_pending = false;
        out.data()[out.numel() / 2] += 1.f;
      }
      ++report.attempted;
      if (digest(out) != expected[i]) ++report.failed;
    }
    st.pass_ms.add(pass_ms);
    st.pass_cpu_ms.add(pass_cpu_ms);
  };
  const std::size_t min_passes =
      (samples_needed(kTail) + designs.size() - 1) / designs.size();

  if (!opt.trace) {
    PassStats st;
    std::size_t passes = 0;
    report.calibration.sample();
    measure_loop(opt.seconds, min_passes, [&] { pass(st, nullptr); }, &passes);
    report.calibration.sample();
    report.setup(setup);
    report.work(static_cast<double>(pass_nodes),
                st.pass_cpu_ms.percentile(50) / 1e3,
                "AIG nodes featurized (median of " + std::to_string(passes) +
                    " passes)");
    report.wall("featurize_nodes_per_s",
                static_cast<double>(pass_nodes) /
                    (st.pass_ms.percentile(50) / 1e3),
                "1/s", "median pass");
    report.latencies(st.design_ms, "design featurizations");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  PassStats plain, traced;
  std::size_t passes = 0;
  measure_loop(opt.seconds / 2, 1, [&] { pass(plain, nullptr); }, &passes);
  obs::Tracer tracer(nullptr, std::size_t{1} << 20);
  const double traced_s = measure_loop(
      opt.seconds / 2, 1, [&] { pass(traced, &tracer); }, &passes);
  // Benchmark-thread time is the featurization time; the digest checks between
  // designs are the benchmark's, not the program's.
  const LayerTable table =
      fold_spans(tracer.finished(), traced.busy_s * 1e3, traced_s * 1e3);
  print_table(report, table);

  std::map<std::string, double> layers;
  const double n = static_cast<double>(traced.design_ms.size());
  layers["reasoning.graph_ms"] = (table.self_ms("reasoning.to_graph") +
                                  table.self_ms("reasoning.to_fanin_graph")) /
                                 n;
  layers["reasoning.features_ms"] =
      table.self_ms("reasoning.node_features") / n;
  layers["graph.spmm_ms"] = table.self_ms("graph.spmm") / n;
  layers["obs.trace_overhead.work_per_cpu_s"] =
      relative_change(traced.nodes / traced.pass_cpu_ms.sum(),
                      plain.nodes / plain.pass_cpu_ms.sum());
  layers["obs.trace_overhead.work_per_s"] =
      relative_change(traced.nodes / traced.busy_s, plain.nodes / plain.busy_s);
  layers["obs.trace_overhead.p50_ms"] = relative_change(
      traced.design_ms.percentile(50), plain.design_ms.percentile(50));
  layers["obs.unattributed_share"] = table.unattributed_share();
  report.note("  (traced: " + std::to_string(traced.design_ms.size()) +
              " designs; per-design figures divide layer self time by "
              "designs; the traced replay is compared with untraced "
              "compute_concat)");
  emit_per_layer(report, layers);
}

}  // namespace perfbench
