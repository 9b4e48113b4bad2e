// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload sim-sweep|rt-serve|audit --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--source-sha SHA]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// measurement and prints the per-layer metrics.  The last stdout line is the
// result object; the line before it is the run's provenance.  Exit codes:
// 0 ok, 1 a correctness check failed or the run threw, 2 usage.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload sim-sweep|rt-serve|audit --seed N"
               " --seconds S --trace 0|1 [--git-sha SHA] [--source-sha SHA]\n";
  return 2;
}

void print_table(const perfbench::Result& r,
                 const std::vector<perfbench::Metric>& catalogue) {
  for (const auto& m : catalogue) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) continue;
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(16) << it->second << " " << std::left
              << std::setw(6) << m.unit << " ("
              << (m.better == perfbench::Better::kHigher ? "higher" : "lower")
              << " is better)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Internal: one end-to-end round in a fresh process (round_in_child).
  if (argc == 4 && std::string(argv[1]) == "--round") {
    try {
      perfbench::print_round(argv[2], std::stoull(argv[3]), std::cout);
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 1;
    }
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage("bad argument '" + key + "'");
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (!args.count(required))
      return usage(std::string("missing --") + required);

  perfbench::Provenance prov;
  prov.workload = args["workload"];
  const auto& names = perfbench::workloads();
  if (std::find(names.begin(), names.end(), prov.workload) == names.end())
    return usage("unknown workload '" + prov.workload + "'");
  try {
    prov.seed = std::stoull(args["seed"]);
    prov.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace takes 0 or 1");
  prov.trace = args["trace"] == "1";
  prov.git_sha = args.count("git-sha") ? args["git-sha"] : "unavailable";
  prov.source_sha =
      args.count("source-sha") ? args["source-sha"] : "unavailable";
  prov.threads_used = prov.trace || prov.workload == "rt-serve"
                          ? perfbench::kRtWorkers + 2
                          : 1;

  try {
    std::cout << std::setprecision(6);
    const double slowdown_start = perfbench::host_slowdown();
    std::cout << "perfbench " << prov.workload << " seed " << prov.seed
              << (prov.trace ? " (traced run)" : " (untraced run)") << "\n";
    const perfbench::Result r =
        prov.trace
            ? perfbench::run_per_layer(prov.seed, prov.seconds, std::cout)
            : perfbench::run_end_to_end(prov.workload, prov.seed,
                                        prov.seconds, std::cout);
    const double slowdown_end = perfbench::host_slowdown();
    const auto& catalogue = prov.trace ? perfbench::per_layer_metrics()
                                       : perfbench::end_to_end_metrics();
    print_table(r, catalogue);
    std::cout << "note: every workload is closed loop, so latency "
                 "percentiles suffer coordinated omission\n";
    std::cout << "transactions attempted " << r.attempted << ", failed "
              << r.failed << "\n";
    for (const auto& e : r.errors) std::cout << "CORRECTNESS FAILURE: " << e << "\n";
    std::cout << perfbench::provenance_line(prov, slowdown_start, slowdown_end) << "\n";
    std::cout << perfbench::result_line(r, catalogue) << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
