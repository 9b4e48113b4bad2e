// Real-threads backend throughput (google-benchmark): sustained tx/s and
// client-observed latency percentiles versus worker-pool size, per
// protocol.  The regime mirrors BM_WorkloadSustained in bench_sim: many
// transactions amortizing cluster construction, capture (the rt analogue
// of trace retention) off — so the two artifacts bracket the same
// workload executed by the two backends.
//
// Numbers are wall-clock and machine-dependent (worker scaling in
// particular needs real cores); the committed baseline is used by
// check_bench_regression.py for *coverage* only, like BENCH_sim.json.
//
// Flags: the shared bench main (harness.h; --smoke also shrinks the
// workload), plus
//   --metrics-out=PATH discs.metrics.v1 timeline from the sampled variant
//                      (BM_RtSustainedSampled) — the artifact CI uploads;
//                      render with `trace_explorer timeline`
//
// BM_RtSustainedSampled runs the same regime as BM_RtSustained with the
// metrics sampler on (2ms cadence); comparing the two pins the sampler
// overhead budget (docs/OBSERVABILITY.md: ≤5%).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "proto/registry.h"
#include "rt/runtime.h"
#include "workload/workload.h"

using namespace discs;

namespace {

std::size_t g_num_txs = 400;
std::string g_metrics_out;  // --metrics-out=PATH (empty = sample in memory)

proto::ClusterConfig cluster_config() {
  proto::ClusterConfig ccfg;
  ccfg.num_servers = 4;
  ccfg.num_clients = 6;
  ccfg.num_objects = 8;
  return ccfg;
}

/// One sustained rt run per iteration; workers from the benchmark arg.
/// `sampled` turns the metrics sampler on (2ms cadence) — the overhead
/// comparator and, with --metrics-out, the timeline artifact emitter.
void run_sustained(benchmark::State& state, const std::string& name,
                   bool sampled) {
  auto protocol = proto::protocol_by_name(name);
  const auto workers = static_cast<std::size_t>(state.range(0));
  std::size_t txs = 0;
  std::uint64_t events = 0;
  std::size_t samples = 0;
  obs::Histogram latency;
  for (auto _ : state) {
    wl::WorkloadConfig wcfg;
    wcfg.num_txs = g_num_txs;
    wcfg.seed = 9;
    wcfg.collect_history = false;  // ignored: capture off skips it anyway
    rt::Options opts;
    opts.workers = workers;
    opts.capture = false;
    if (sampled) {
      opts.metrics_interval_us = 2000;
      opts.metrics_path = g_metrics_out;  // empty = in-memory series only
    }
    rt::RunReport rep = rt::run(*protocol, cluster_config(), wcfg, opts);
    benchmark::DoNotOptimize(rep.events);
    txs += rep.txs_completed;
    events += rep.events;
    samples += rep.metrics.samples.size();
    latency.merge(rep.latency_us);
  }
  state.counters["tx/s"] = benchmark::Counter(static_cast<double>(txs),
                                              benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = latency.p50();
  state.counters["p95_us"] = latency.p95();
  state.counters["p99_us"] = latency.p99();
  state.counters["workers"] = static_cast<double>(workers);
  if (sampled) state.counters["samples"] = static_cast<double>(samples);
}

void BM_RtSustained(benchmark::State& state, const std::string& name) {
  run_sustained(state, name, /*sampled=*/false);
}

void BM_RtSustainedSampled(benchmark::State& state, const std::string& name) {
  run_sustained(state, name, /*sampled=*/true);
}

/// Dynamic registration so a bad protocol name surfaces as a nonzero exit,
/// not a silently missing benchmark (the bench_sim convention).
void register_benchmarks(bool smoke) {
  if (smoke) g_num_txs = 40;
  for (const char* name : {"cops", "cops-snow", "wren", "eiger", "spanner"}) {
    proto::protocol_by_name(name);  // validate before registering
    std::string label = std::string("BM_RtSustained/") + name;
    auto* b = benchmark::RegisterBenchmark(label.c_str(), BM_RtSustained,
                                           std::string(name));
    for (auto w : {1, 2, 4, 8}) b->Arg(w);
    b->Unit(benchmark::kMillisecond);
    b->UseRealTime();  // worker threads do the work; CPU time misleads
  }
  // One sampled configuration: against BM_RtSustained/cops/4 it pins the
  // sampler overhead, and with --metrics-out it writes the CI timeline.
  auto* s = benchmark::RegisterBenchmark(
      "BM_RtSustainedSampled/cops", BM_RtSustainedSampled,
      std::string("cops"));
  s->Arg(4);
  s->Unit(benchmark::kMillisecond);
  s->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  auto metrics_out = [](std::string_view a) {
    if (a.rfind("--metrics-out=", 0) != 0) return false;
    g_metrics_out = std::string(a.substr(14));
    return true;
  };
  return bench::run_main(argc, argv,
                         {"bench_rt", register_benchmarks, metrics_out});
}
