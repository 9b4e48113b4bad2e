// The shared main of the google-benchmark binaries that write a baseline
// JSON (bench_sim, bench_faults, bench_rt):
//
//   --smoke        tiny min_time per benchmark (CI wiring check); the
//                  binary's registration also picks its small sizes
//   --out=PATH     JSON results path (default BENCH_<suffix>.json, e.g.
//                  BENCH_sim.json for bench_sim)
//
// plus all standard --benchmark_* flags.  The JSON context carries discs's
// own build type and compiler (not the benchmark library's).  Exits
// nonzero if registration throws, an argument is unrecognized, or zero
// benchmarks run.
#pragma once

#include <functional>
#include <string_view>

namespace discs::bench {

struct BenchMain {
  /// The binary's name, "bench_<suffix>"; prefixes every diagnostic.
  std::string_view name;
  /// Registers the binary's benchmarks (`smoke` selects the small sizes).
  /// A throw — a bad protocol name, a failing constructor — exits nonzero
  /// instead of silently dropping a benchmark.
  std::function<void(bool smoke)> register_benchmarks;
  /// Claims a binary-specific flag; returns true when it consumed `arg`.
  std::function<bool(std::string_view arg)> extra_flag;
};

int run_main(int argc, char** argv, const BenchMain& bench);

}  // namespace discs::bench
