#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace perfbench {

using discs::obs::Json;
using discs::obs::JsonObject;

const std::vector<std::string>& protocols() {
  static const std::vector<std::string> p = {"cops-snow", "wren", "spanner",
                                             "eiger"};
  return p;
}

const std::vector<std::string>& workloads() {
  static const std::vector<std::string> w = {"sim-sweep", "rt-serve", "audit"};
  return w;
}

const std::vector<std::string>& gated_workloads() {
  static const std::vector<std::string> w = {"sim-sweep", "audit"};
  return w;
}

namespace {

/// Appends `prefix + p` for every p in P.
void per_protocol(std::vector<Metric>& out, const std::string& prefix,
                  const std::string& unit, Better better) {
  for (const auto& p : protocols()) out.push_back({prefix + p, unit, better});
}

}  // namespace

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = [] {
    std::vector<Metric> out;
    per_protocol(out, "tx_per_s.", "1/s", Better::kHigher);
    per_protocol(out, "p50_us.", "us", Better::kLower);
    per_protocol(out, "p99_us.", "us", Better::kLower);
    out.push_back({"success_ratio", "ratio", Better::kHigher});
    out.push_back({"setup_s", "s", Better::kLower});
    return out;
  }();
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = [] {
    std::vector<Metric> out;
    const auto lo = Better::kLower;
    // sim-sweep: where the simulator's single thread spends a transaction.
    per_protocol(out, "sim.steps_per_tx.", "count", lo);
    per_protocol(out, "sim.deliveries_per_tx.", "count", lo);
    per_protocol(out, "proto.msgs_per_tx.", "count", lo);
    per_protocol(out, "sim.trace_record_us_per_tx.", "us", lo);
    per_protocol(out, "sim.deliver_us_per_tx.", "us", lo);
    per_protocol(out, "proto.server_step_us_per_tx.", "us", lo);
    per_protocol(out, "proto.client_step_us_per_tx.", "us", lo);
    per_protocol(out, "workload.sched_us_per_tx.", "us", lo);
    // rt-serve: work and busy time of the real-threads backend.
    per_protocol(out, "rt.steps_per_tx.", "count", lo);
    per_protocol(out, "rt.deliveries_per_step.", "count", Better::kHigher);
    per_protocol(out, "rt.msgs_per_tx.", "count", lo);
    per_protocol(out, "rt.cpu_us_per_tx.", "us", lo);
    per_protocol(out, "rt.busy_ratio.", "ratio", Better::kHigher);
    per_protocol(out, "rt.tx_per_s.", "1/s", Better::kHigher);
    per_protocol(out, "rt.p50_us.", "us", lo);
    per_protocol(out, "rt.p99_us.", "us", lo);
    // audit: the certification path, stage by stage.
    per_protocol(out, "workload.drive_us_per_tx.", "us", lo);
    per_protocol(out, "obs.doc_us_per_tx.", "us", lo);
    per_protocol(out, "obs.export_us_per_tx.", "us", lo);
    per_protocol(out, "obs.import_us_per_tx.", "us", lo);
    per_protocol(out, "obs.replay_us_per_tx.", "us", lo);
    per_protocol(out, "consistency.check_us_per_tx.", "us", lo);
    per_protocol(out, "obs.bytes_per_tx.", "bytes", lo);
    per_protocol(out, "sim.events_per_tx.", "count", lo);
    // What the traced run costs against the untraced one, per workload.
    for (const auto& w : workloads())
      out.push_back({"trace.overhead_ratio." + w, "ratio", lo});
    return out;
  }();
  return m;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double interpolated_percentile(const discs::obs::Histogram& h, double q) {
  using discs::obs::Histogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  if (n == 1) return double(h.min());
  // Histogram::percentile(r / (n-1)) is the midpoint of the bucket holding
  // the sample of rank r, so the bucket of a rank is observable, and since
  // ranks are sorted, a bucket's ranks are one contiguous run.
  auto bucket_of = [&](std::uint64_t rank) {
    const double mid = h.percentile(double(rank) / double(n - 1));
    return Histogram::bucket_index(static_cast<std::uint64_t>(mid));
  };
  const auto target = static_cast<std::uint64_t>(
      std::clamp(q, 0.0, 1.0) * double(n - 1) + 0.5);
  const std::size_t bucket = bucket_of(target);
  std::uint64_t lo = 0, hi = target;  // first rank in `bucket`
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (bucket_of(mid) < bucket) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n - 1;  // last rank in `bucket`
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi + 1) / 2;
    if (bucket_of(mid) > bucket) hi = mid - 1; else lo = mid;
  }
  const double in_bucket = double(lo - first + 1);
  const double v = double(Histogram::bucket_low(bucket)) +
                   double(Histogram::bucket_width(bucket)) *
                       (double(target - first) + 0.5) / in_bucket;
  return std::clamp(v, double(h.min()), double(h.max()) + 1.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

struct Actor {
  virtual ~Actor() = default;
  virtual std::uint64_t step(std::uint64_t x) = 0;
};
struct Counter : Actor {
  std::uint64_t state = 1;
  std::uint64_t step(std::uint64_t x) override {
    return state = state * 31 + x;
  }
};
struct Ledger : Actor {
  std::map<std::uint64_t, std::uint64_t> entries;
  std::uint64_t step(std::uint64_t x) override {
    entries[x % 97] += x;
    if (entries.size() > 50) entries.erase(entries.begin());
    return entries.size();
  }
};
struct Log : Actor {
  std::vector<std::string> lines;
  std::uint64_t step(std::uint64_t x) override {
    lines.push_back(std::to_string(x));
    if (lines.size() > 16) lines.erase(lines.begin());
    return lines.back().size();
  }
};

}  // namespace

double reference_kernel_s() {
  const double t0 = now_s();
  std::vector<std::unique_ptr<Actor>> actors;
  for (int i = 0; i < 24; ++i) {
    if (i % 3 == 0) actors.push_back(std::make_unique<Counter>());
    else if (i % 3 == 1) actors.push_back(std::make_unique<Ledger>());
    else actors.push_back(std::make_unique<Log>());
  }
  using Due = std::pair<std::uint64_t, std::uint32_t>;  // (time, actor)
  std::priority_queue<Due, std::vector<Due>, std::greater<>> queue;
  for (std::uint32_t i = 0; i < 64; ++i) queue.push({i, i % 24});
  std::unordered_map<std::string, std::uint64_t> seen;
  std::uint64_t x = 88172645463325252ULL, acc = 0;
  for (int n = 0; n < 8000; ++n) {
    const auto [at, who] = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += actors[who]->step(x);
    seen[std::to_string(x % 512)] += acc;
    if (seen.size() > 400) seen.erase(seen.begin());
    queue.push({at + 1 + x % 7, std::uint32_t((x >> 9) % 24)});
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return now_s() - t0;
}

double host_slowdown() {
  std::vector<double> runs;
  for (int i = 0; i < 5; ++i) runs.push_back(reference_kernel_s());
  return median(runs) / kReferenceS;
}

std::string result_line(const Result& r,
                        const std::vector<Metric>& catalogue) {
  if (r.metrics.size() != catalogue.size())
    throw std::logic_error("result has " + std::to_string(r.metrics.size()) +
                           " metrics, catalogue has " +
                           std::to_string(catalogue.size()));
  JsonObject metrics;
  for (const auto& m : catalogue) {
    auto it = r.metrics.find(m.name);
    if (it == r.metrics.end())
      throw std::logic_error("metric not measured: " + m.name);
    metrics.emplace_back(m.name, Json(JsonObject{{"value", Json(it->second)},
                                                 {"unit", Json(m.unit)}}));
  }
  return Json(JsonObject{{"correct", Json(r.correct)},
                         {"attempted", Json(r.attempted)},
                         {"failed", Json(r.failed)},
                         {"metrics", Json(std::move(metrics))}})
      .dump();
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string provenance_line(const Provenance& p, double slowdown_start,
                            double slowdown_end) {
  const std::size_t cpus = nproc();
  return Json(JsonObject{
                  {"provenance", Json("discs.perfbench.v1")},
                  {"workload", Json(p.workload)},
                  {"seed", Json(p.seed)},
                  {"seconds", Json(p.seconds)},
                  {"trace", Json(p.trace)},
                  {"build_type", Json(PERFBENCH_BUILD_TYPE)},
                  {"compiler", Json(PERFBENCH_COMPILER)},
                  {"git_sha", Json(p.git_sha)},
                  {"source_sha256", Json(p.source_sha)},
                  {"nproc", Json(std::uint64_t(cpus))},
                  {"threads_used", Json(std::uint64_t(p.threads_used))},
                  {"threads_exceed_nproc", Json(p.threads_used > cpus)},
                  {"host_slowdown_start", Json(slowdown_start)},
                  {"host_slowdown_end", Json(slowdown_end)},
              })
      .dump();
}

}  // namespace perfbench
