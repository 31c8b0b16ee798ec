// The repository benchmark. One binary, four named workloads:
//
//   perfbench --workload <train|serve_hop|serve_aig|featurize> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--corrupt served|hop]
//
// --trace 0 runs the timed measurement and prints the end-to-end metrics;
// --trace 1 runs a separate traced run on the same inputs and prints the
// per-layer table and metrics. Human-readable lines come first; the last
// line of stdout is one JSON object {correct, attempted, failed, metrics}.
// The exit code is 0 only when every checked output was correct.
//
// --tiny and --corrupt exist for the benchmark's self-test (selftest.py):
// tiny inputs through the same code paths, and a deliberately corrupted
// output that must be counted as failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|serve_hop|serve_aig|featurize> --seed <n> --seconds "
               "<s> --trace <0|1> [--tiny] [--corrupt served|hop]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt") {
      opt.corrupt = value();
      if (opt.corrupt != "served" && opt.corrupt != "hop") {
        usage("--corrupt takes served or hop");
      }
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  try {
    if (opt.workload == "train") {
      perfbench::run_train(opt, report);
    } else if (opt.workload == "serve_hop") {
      perfbench::run_serve_hop(opt, report);
    } else if (opt.workload == "serve_aig") {
      perfbench::run_serve_aig(opt, report);
    } else if (opt.workload == "featurize") {
      perfbench::run_featurize(opt, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  report.finish();
  return report.correct() ? 0 : 1;
}
