#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>
#include <unordered_map>

namespace perfbench {

int client_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t samples_needed(double q) {
  // n * (1 - q/100) >= 10
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q / 100.0) - 1e-9));
}

std::optional<double> Samples::supported(double q) const {
  if (values_.size() < samples_needed(q)) return std::nullopt;
  return percentile(q);
}

double windowed_rate(const std::vector<double>& times_s, double wall_s) {
  const auto windows = static_cast<std::size_t>(wall_s);
  if (windows == 0) return static_cast<double>(times_s.size()) / wall_s;
  std::vector<double> counts(windows, 0);
  for (double t : times_s) {
    const auto w = static_cast<std::size_t>(t);
    if (w < windows) counts[w] += 1;
  }
  Samples s;
  for (double c : counts) s.add(c);
  return s.percentile(50);
}

namespace {
double rusage_cpu_s(int who) {
  rusage r{};
  getrusage(who, &r);
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
}
}  // namespace

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const long kb = std::max(self.ru_maxrss, children.ru_maxrss);
  return static_cast<double>(kb) * 1024.0 / 1e6;
}

void Report::note(const std::string& text) const {
  std::printf("%s\n", text.c_str());
  std::fflush(stdout);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-36s %.6g %s", name.c_str(), value,
                unit.c_str());
  note(buf);
}

void Report::wall(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) const {
  char buf[320];
  std::snprintf(buf, sizeof buf, "  %-36s %.6g %s  (wall clock, not gated; %s)",
                name.c_str(), value, unit.c_str(), detail.c_str());
  note(buf);
}

void Report::timing(const std::string& name, const Samples& s, double q,
                    const std::string& what) const {
  char buf[320];
  const auto v = s.supported(q);
  if (!v) {
    std::snprintf(buf, sizeof buf,
                  "  %-36s REFUSED: p%g needs %zu samples, have %zu %s",
                  name.c_str(), q, samples_needed(q), s.size(), what.c_str());
    note(buf);
    return;
  }
  const auto beyond = static_cast<long long>(
      std::floor(static_cast<double>(s.size()) * (1.0 - q / 100.0)));
  std::snprintf(buf, sizeof buf,
                "  %-36s %.6g ms  (wall clock, not gated; p%g of n=%zu %s, "
                "%lld beyond)",
                name.c_str(), *v, q, s.size(), what.c_str(), beyond);
  note(buf);
}

void Report::latencies(const Samples& s, const std::string& what) const {
  timing("p50_ms", s, 50, what);
  if (s.supported(99)) {
    timing("p99_ms", s, 99, what);
  } else {
    timing("p90_ms", s, 90, what);
  }
}

void Report::setup(const SetupTimes& t) {
  metric("setup_s", t.cpu_s * calibration.factor(), "s");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "  (setup_s = CPU seconds of set-up in reference seconds, "
                "median of %d set-ups; raw CPU %.6g s, wall %.6g s)",
                t.runs, t.cpu_s, t.wall_s);
  note(buf);
}

void Report::work(double units, double cpu_s, const std::string& what) {
  metric("work_per_ref_s", units / (cpu_s * calibration.factor()), "1/s");
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "  (work_per_ref_s = %s per reference second; raw %.6g per "
                "CPU second; calibration loop median %.4g ms, reference "
                "%.4g ms)",
                what.c_str(), units / cpu_s, calibration.median_ms(),
                kCalibrationReferenceMs);
  note(buf);
}

namespace {
volatile double calibration_sink = 0;  // keeps the loop's result alive
}  // namespace

void Calibration::sample(int n) {
  // Square roots over a strided walk of 512 KB: fixed work that neither
  // the compiler nor the program under test can change.
  static std::vector<double> buf(std::size_t{1} << 16, 1.0);
  const std::size_t mask = buf.size() - 1;
  for (int k = 0; k < n; ++k) {
    const double c0 = thread_cpu_s();
    double acc = 0;
    for (int pass = 0; pass < 8; ++pass) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        acc += std::sqrt(buf[(i * 17) & mask] + static_cast<double>(i) * 1e-9);
      }
    }
    calibration_sink = acc;
    cpu_ms_.add((thread_cpu_s() - c0) * 1e3);
  }
}

double Calibration::factor() const {
  const double ms = median_ms();
  return ms > 0 ? kCalibrationReferenceMs / ms : 1.0;
}

void Report::finish() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  %-36s %.6g ratio  (%lld failed of %lld attempted)",
                "fail_share",
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 1.0,
                failed, attempted);
  note(buf);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    double v = vu.first;
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), v, vu.second.c_str());
    json += buf;
  }
  json += "}}";
  note(json);
}

TempDir::TempDir(const std::string& tag) {
  namespace fs = std::filesystem;
  path_ = (fs::current_path() / ".bench_tmp" /
           (tag + "-" + std::to_string(::getpid())))
              .string();
  fs::remove_all(path_);
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(path_, ec);
  const fs::path parent = fs::path(path_).parent_path();
  if (fs::is_empty(parent, ec)) fs::remove(parent, ec);
}

double LayerTable::self_ms(const std::string& layer) const {
  const auto it = rows.find(layer);
  return it == rows.end() ? 0 : it->second.self_ms;
}

long long LayerTable::calls(const std::string& layer) const {
  const auto it = rows.find(layer);
  return it == rows.end() ? 0 : it->second.calls;
}

LayerTable fold_spans(const std::vector<hoga::obs::SpanRecord>& spans,
                      double bench_ms, double wall_ms) {
  std::unordered_map<std::uint64_t, std::vector<const hoga::obs::SpanRecord*>>
      children;
  for (const auto& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(&s);
  }
  LayerTable table;
  table.bench_ms = bench_ms;
  double bench_roots_ms = 0;
  double bench_self_ms = 0;
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    // Self time: the span's interval minus the union of its children's
    // intervals (clipped to it), so overlapping children count once.
    double covered = 0;
    const auto it = children.find(s.span_id);
    if (it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const auto* c : it->second) {
        const auto lo = std::max(c->start_ns, s.start_ns);
        const auto hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.push_back({lo, hi});
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += static_cast<double>(cur_hi - cur_lo);
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += static_cast<double>(cur_hi - cur_lo);
      covered /= 1e6;
    }
    const bool bench = s.name.rfind("bench.", 0) == 0;
    if (bench) {
      // The benchmark's own span: its self time is time no layer claims.
      bench_self_ms += dur - covered;
      if (s.parent_id == 0) bench_roots_ms += dur;
      continue;
    }
    LayerRow& row = table.rows[s.name];
    row.layer = s.name;
    row.self_ms += dur - covered;
    row.calls += 1;
    if (s.parent_id == 0) row.background = true;
  }
  table.unattributed_ms =
      std::max(0.0, bench_ms - bench_roots_ms) + bench_self_ms;
  for (auto& [name, row] : table.rows) {
    const double denom = row.background ? wall_ms : bench_ms;
    row.share = denom > 0 ? row.self_ms / denom : 0;
  }
  return table;
}

void print_table(const Report& report, const LayerTable& table) {
  char buf[256];
  report.note("per-layer table (self time; share of benchmark-thread time, "
              "background rows share of one thread's wall time):");
  std::snprintf(buf, sizeof buf, "  %-28s %12s %10s %8s", "layer", "self_ms",
                "calls", "share");
  report.note(buf);
  std::vector<const LayerRow*> rows;
  for (const auto& [name, row] : table.rows) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const LayerRow* a, const LayerRow* b) {
    if (a->background != b->background) return b->background;
    return a->self_ms > b->self_ms;
  });
  for (const auto* r : rows) {
    std::snprintf(buf, sizeof buf, "  %-28s %12.3f %10lld %7.2f%%%s",
                  r->layer.c_str(), r->self_ms, r->calls, 100 * r->share,
                  r->background ? "  (background thread)" : "");
    report.note(buf);
  }
  std::snprintf(buf, sizeof buf, "  %-28s %12.3f %10s %7.2f%%", "unattributed",
                table.unattributed_ms, "-", 100 * table.unattributed_share());
  report.note(buf);
}

}  // namespace perfbench
