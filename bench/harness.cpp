#include "harness.h"

#include <benchmark/benchmark.h>

#include <exception>
#include <iostream>
#include <string>
#include <vector>

namespace discs::bench {

int run_main(int argc, char** argv, const BenchMain& bench) {
  const std::string name(bench.name);
  std::string out_path =
      "BENCH_" + name.substr(name.find('_') + 1) + ".json";
  bool smoke = false;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = std::string(a.substr(6));
    } else if (!bench.extra_flag || !bench.extra_flag(a)) {
      args.push_back(argv[i]);
    }
  }
  std::string min_time_flag = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time_flag.data());
  // Route the JSON through the library's own file reporter.
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());

  try {
    bench.register_benchmarks(smoke);
  } catch (const std::exception& e) {
    std::cerr << name << ": benchmark registration failed: " << e.what()
              << "\n";
    return 1;
  }

  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  benchmark::AddCustomContext("discs_build_type", DISCS_BUILD_TYPE);
  benchmark::AddCustomContext("discs_compiler", DISCS_COMPILER);

  std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (ran == 0) {
    std::cerr << name << ": no benchmarks ran\n";
    return 1;
  }
  std::cerr << name << ": wrote " << out_path << " (" << ran
            << " benchmarks)\n";
  return 0;
}

}  // namespace discs::bench
