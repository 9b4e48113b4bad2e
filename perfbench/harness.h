// Measurement plumbing shared by the benchmark's workloads: the protocol set,
// the metric catalogue, timers, order statistics, provenance and the result
// line the benchmark prints last.
//
// Every number is taken from outside the program: wall time around calls
// into a layer's public functions, process CPU time from getrusage, and
// counters the program already keeps in obs::Registry.  Nothing here is
// compiled into the libraries under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

/// The protocol set P: the three corners of Theorem 1 (cops-snow N+O+V,
/// wren N+V+W, spanner O+V+W) plus eiger.  Every workload runs each of them
/// on its own cluster.
const std::vector<std::string>& protocols();

/// The workloads perfbench runs.
const std::vector<std::string>& workloads();
/// The workloads BENCHMARK.json lists, whose end-to-end metrics carry a
/// bound: all but rt-serve.  On a shared 4-vCPU host rt-serve's rates and
/// tail latencies spread 0.18-0.41 (IQR/median) across 35-second runs,
/// more than the largest bound (0.25) a gated metric may have.  Its
/// throughput and latency stay measured, as the per-layer rt.tx_per_s,
/// rt.p50_us and rt.p99_us, and `--workload rt-serve` still runs it.
const std::vector<std::string>& gated_workloads();

enum class Better { kHigher, kLower };

struct Metric {
  std::string name;
  std::string unit;
  Better better;
};

/// The 14 end-to-end metrics every untraced run prints.
const std::vector<Metric>& end_to_end_metrics();
/// The per-layer metrics every traced run prints.
const std::vector<Metric>& per_layer_metrics();

/// Metric names are 1..64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(std::string_view name);

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds consumed by this process so far.
double cpu_s();

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Percentile `q` of `h`, interpolated within its bucket: the samples of a
/// bucket are taken as spread evenly over it.  obs::Histogram::percentile
/// returns the bucket midpoint, which on rt latencies (integer
/// microseconds) reads the same in every run; this keeps the digits that
/// move when the distribution moves inside a bucket.
double interpolated_percentile(const discs::obs::Histogram& h, double q);

/// A derived per-run seed: splitmix64 of (seed, salt), so each history of
/// a run gets its own inputs while the run stays a function of --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// The reference kernel: a fixed discrete-event loop (priority queue, map,
/// hash-map and string churn, virtual dispatch) compiled from this package,
/// so that no change to src/ alters it.  Returns its wall seconds.
///
/// The host's speed switches between a fast and a slow state for seconds at
/// a time.  The slow state costs the simulator 1.5-1.8x, a dependent
/// integer loop nothing, a DRAM pointer chase about 1.1x and this kernel
/// about 1.3x, so the kernel tracks the state where a plain spin loop does
/// not (README.md, finding H1).
double reference_kernel_s();

/// About the reference kernel's usual wall time on the 4-vCPU KVM guest the
/// benchmark was written on.  It only sets the scale of the figures
/// measured "at reference speed".
inline constexpr double kReferenceS = 0.0019;

/// The host's slowdown right now: the median of five reference kernel runs
/// over kReferenceS.  Printed at the start and end of every run.
double host_slowdown();

/// Interleaves the reference kernel with timed work, so that a wall time
/// measured inside the work can be brought to reference speed.
class ReferencePacer {
 public:
  ReferencePacer() : last_s_(reference_kernel_s()) {}
  /// Runs `work`, then the kernel, and returns the host's slowdown around
  /// `work`: the mean of the kernel's times before and after it over
  /// kReferenceS.  A wall time inside `work` divided by it is the time the
  /// work takes at reference speed.
  template <typename F>
  double around(F&& work) {
    work();
    const double next_s = reference_kernel_s();
    const double slowdown = (last_s_ + next_s) / 2 / kReferenceS;
    last_s_ = next_s;
    return slowdown;
  }

 private:
  double last_s_;
};

/// What a run reports: the result line's fields plus diagnostics.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  ///< one line per failed correctness check

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"},
/// each metric rendered with its unit from `catalogue`.  Throws if a
/// catalogue metric is missing from `r.metrics` or an extra one is present.
std::string result_line(const Result& r, const std::vector<Metric>& catalogue);

/// Run provenance, printed as one JSON line before the result.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string git_sha;      ///< from run.py; "unavailable" outside git
  std::string source_sha;   ///< digest of the compiled sources, from run.py
  std::size_t threads_used = 1;
};

std::string provenance_line(const Provenance& p, double slowdown_start,
                            double slowdown_end);

/// Logical CPUs this process may run on (sched_getaffinity).
std::size_t nproc();

}  // namespace perfbench
