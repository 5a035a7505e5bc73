// perfbench: host-clock benchmark of the csaw library.
//
//   perfbench --workload <walk_corpus|serve_mixed|serve_scaleout>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the environment record, then as the last line of stdout the
// result: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
// the end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when an
// output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<walk_corpus|serve_mixed|serve_scaleout> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (opt.workload == "walk_corpus") run = perfbench::run_walk_corpus;
  if (opt.workload == "serve_mixed") run = perfbench::run_serve_mixed;
  if (opt.workload == "serve_scaleout") run = perfbench::run_serve_scaleout;
  if (run == nullptr) return usage("unknown --workload");

  perfbench::Report report;
  report.env("workload", opt.workload);
  report.env("seed", std::to_string(opt.seed));
  report.env("seconds", std::to_string(opt.seconds));
  report.env("trace", opt.trace ? "1" : "0");
  report.env("nproc", std::to_string(std::thread::hardware_concurrency()));
  try {
    run(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "%s", report.table().c_str());
  std::printf("%s\n%s\n", report.env_json().c_str(), report.result_json().c_str());
  return report.correct() ? 0 : 1;
}
