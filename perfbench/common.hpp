#pragma once
// Shared pieces of the repository benchmark: options, sample statistics,
// the result report, the benchmark-owned temp directory, and the fold of
// tracer spans into a per-layer table.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: small circuits and short loops, same code paths.
  bool tiny = false;
  /// Self-test fault: "served" alters one served output before it is
  /// checked, "hop" one value of a computed hop tensor. Either must show up
  /// as a failed operation.
  std::string corrupt;
};

/// Callers of the closed serve loops: min(4, nproc).
int client_threads();

/// Timing samples with percentiles by linear interpolation between order
/// statistics (the numpy default).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void merge(const Samples& other);
  std::size_t size() const { return values_.size(); }
  double sum() const;
  double percentile(double q) const;
  /// The percentile only when at least ten samples lie beyond it;
  /// nullopt means the sample cannot support it.
  std::optional<double> supported(double q) const;

 private:
  std::vector<double> values_;
};

/// Samples needed so that percentile q has ten samples beyond it.
std::size_t samples_needed(double q);

/// Runs `op` repeatedly for `seconds`, then keeps going until at least
/// `min_ops` operations ran, giving up at four times the budget (a
/// percentile the sample cannot support is then refused). Returns the wall
/// seconds spent.
template <typename Op>
double measure_loop(double seconds, std::size_t min_ops, Op&& op,
                    std::size_t* ops_out) {
  const auto t0 = Clock::now();
  std::size_t ops = 0;
  while (true) {
    const double elapsed = ms_since(t0) / 1e3;
    if (elapsed >= seconds && ops >= min_ops) break;
    if (elapsed >= 4 * seconds) break;
    op();
    ++ops;
  }
  *ops_out = ops;
  return ms_since(t0) / 1e3;
}

/// Events per second: the median over the whole one-second windows of
/// [0, wall_s) of the events (timestamps in seconds) inside each, which a
/// short stall of the machine moves less than a total over the run.
double windowed_rate(const std::vector<double>& times_s, double wall_s);

/// CPU seconds (user + system) of this process, of its reaped children,
/// and of the calling thread. CPU time leaves out what the hypervisor
/// steals from a busy virtual CPU, which wall time on a shared machine
/// does not.
double process_cpu_s();
double children_cpu_s();
double thread_cpu_s();

struct SetupTimes {
  double cpu_s = 0;   // median CPU seconds of this process per set-up
  double wall_s = 0;  // median wall seconds per set-up
  int runs = 0;
};

/// Runs `setup` `runs` times and returns the medians. A fixed count keeps
/// the allocation history, and with it peak RSS, the same in every run.
/// The last run's products are the ones the workload uses.
template <typename Setup>
SetupTimes repeated_setup(int runs, Setup&& setup) {
  Samples cpu, wall;
  for (int i = 0; i < runs; ++i) {
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    setup();
    cpu.add(process_cpu_s() - c0);
    wall.add(ms_since(t0) / 1e3);
  }
  return {cpu.percentile(50), wall.percentile(50), runs};
}

/// Machine-speed calibration. The speed of a shared virtual machine drifts
/// by more than any regression bound over minutes (host load, frequency,
/// stolen time), for single-threaded code too. A fixed loop, owned by the
/// benchmark and untouched by the program under test, is timed before and
/// after each measurement; gated figures are expressed in reference
/// seconds: CPU seconds scaled by kCalibrationReferenceMs over the median
/// CPU time of the loop in the same run.
inline constexpr double kCalibrationReferenceMs = 1.0;

class Calibration {
 public:
  /// Times the loop `n` times on the calling thread.
  void sample(int n = 25);
  /// Reference seconds per CPU second in this run.
  double factor() const;
  double median_ms() const { return cpu_ms_.percentile(50); }

 private:
  Samples cpu_ms_;
};

/// Peak resident set in MB (1e6 bytes): the larger of this process and its
/// largest reaped child, so forked training workers count.
double peak_rss_mb();

/// Collects metrics and the pass/fail tally, prints the human-readable
/// report as it goes, and prints the final JSON result line.
class Report {
 public:
  /// One human-readable line on stdout.
  void note(const std::string& text) const;
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints a wall-clock figure that is reported but not a JSON metric.
  void wall(const std::string& name, double value, const std::string& unit,
            const std::string& detail) const;
  /// Prints percentile q of `s` (ms) as `name` with its sample count, or
  /// refuses when fewer than ten samples lie beyond q.
  void timing(const std::string& name, const Samples& s, double q,
              const std::string& what) const;
  /// Prints the median, and p99 or, when the sample cannot support it, p90.
  void latencies(const Samples& s, const std::string& what) const;
  /// Records setup_s in reference seconds and notes the raw figures.
  void setup(const SetupTimes& t);
  /// Records work_per_ref_s: `units` of work over `cpu_s` CPU seconds,
  /// in reference seconds; `what` says what a unit is.
  void work(double units, double cpu_s, const std::string& what);

  Calibration calibration;

  long long attempted = 0;
  long long failed = 0;
  bool correct() const { return failed == 0 && attempted > 0; }

  /// Notes fail_share, then prints the JSON result as the last line.
  void finish() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// A directory under `.bench_tmp/` in the working directory that is
/// removed, with everything in it, at scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One row of the per-layer table: self time (span time not covered by
/// child spans), call count, and share of the denominator.
struct LayerRow {
  std::string layer;
  double self_ms = 0;
  long long calls = 0;
  double share = 0;
  bool background = false;  // root span off the benchmark threads
};

struct LayerTable {
  std::map<std::string, LayerRow> rows;
  double bench_ms = 0;  // summed wall time of the benchmark threads
  /// Benchmark-thread time no layer span covers: outside every "bench.*"
  /// root, or the self time of the benchmark's own "bench.*" spans.
  double unattributed_ms = 0;
  double self_ms(const std::string& layer) const;
  long long calls(const std::string& layer) const;
  double unattributed_share() const {
    return bench_ms > 0 ? unattributed_ms / bench_ms : 0;
  }
};

/// Folds finished spans into a table. Benchmark threads wrap their work in
/// root spans named "bench.*", which get no row of their own; other root
/// spans (for example a scheduler's executor thread) are background rows,
/// whose share is of one thread's wall time `wall_ms`.
LayerTable fold_spans(const std::vector<hoga::obs::SpanRecord>& spans,
                      double bench_ms, double wall_ms);

void print_table(const Report& report, const LayerTable& table);

/// Relative change of a traced figure over its untraced counterpart.
inline double relative_change(double traced, double untraced) {
  return untraced != 0 ? (traced - untraced) / untraced : 0;
}

}  // namespace perfbench
