// Fault-engine cost (google-benchmark): what injecting faults adds on top
// of plain scheduling, and how the network's MsgId index holds up when a
// plan delays thousands of messages into a long in-flight backlog.
//
//   BM_WorkloadBaseline      the unfaulted concurrent workload driver
//   BM_WorkloadEmptyPlan     same traffic through the fault engine with a
//                            rule-free plan — pure engine overhead
//   BM_WorkloadLossyPlan     drop 20% + retransmit: the engine actually
//                            working
//   BM_BacklogDeliver        deliver N backlogged messages by id (O(1) per
//                            delivery with the index; used to be O(n))
//   BM_BacklogFindInFlight   point lookups into the same backlog
//
// Flags: the shared bench main (harness.h).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fault/plan.h"
#include "fault/session.h"
#include "harness.h"
#include "proto/registry.h"
#include "sim/network.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace discs;

namespace {

proto::ClusterConfig cluster_config() {
  proto::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 5;
  cfg.num_objects = 6;
  return cfg;
}

wl::WorkloadConfig workload_config() {
  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 30;
  wcfg.seed = 9;
  wcfg.write_fraction = 0.5;
  return wcfg;
}

void run_workload(benchmark::State& state, const fault::FaultPlan* plan) {
  auto protocol = proto::protocol_by_name("cops-snow");
  std::size_t events = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    proto::IdSource ids;
    proto::Cluster cluster = protocol->build(sim, cluster_config(), ids);
    wl::WorkloadResult result;
    if (plan) {
      fault::FaultSession session(*plan,
                                  {cluster.view.servers, cluster.clients});
      result = wl::run_workload_concurrent_faulted(
          sim, *protocol, cluster, ids, workload_config(), session);
    } else {
      result = wl::run_workload_concurrent(sim, *protocol, cluster, ids,
                                           workload_config());
    }
    benchmark::DoNotOptimize(result);
    events += sim.now();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_WorkloadBaseline(benchmark::State& state) {
  run_workload(state, nullptr);
}

void BM_WorkloadEmptyPlan(benchmark::State& state) {
  fault::FaultPlan empty;
  run_workload(state, &empty);
}

void BM_WorkloadLossyPlan(benchmark::State& state) {
  fault::FaultPlan lossy = fault::drop_retransmit_plan(0.2, 5);
  run_workload(state, &lossy);
}

/// A network carrying `n` undelivered messages, as a long delay plan would
/// produce.  Payloads are null: this measures buffer mechanics only.
sim::Network backlog_network(std::uint64_t n) {
  sim::Network net;
  for (std::uint64_t i = 0; i < n; ++i) {
    sim::Message m;
    m.id = sim::make_msg_id(ProcessId(i % 7), i);
    m.src = ProcessId(i % 7);
    m.dst = ProcessId((i + 1) % 7);
    net.post(std::move(m));
  }
  return net;
}

void BM_BacklogDeliver(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Network base = backlog_network(n);
  std::vector<MsgId> order;
  Rng rng(5);
  for (const auto& m : base.in_flight()) order.push_back(m.id);
  for (std::uint64_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (auto _ : state) {
    sim::Network net = base;
    for (MsgId id : order) benchmark::DoNotOptimize(net.deliver(id));
  }
  state.counters["deliveries/s"] = benchmark::Counter(
      static_cast<double>(n * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_BacklogFindInFlight(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Network net = backlog_network(n);
  Rng rng(5);
  for (auto _ : state) {
    MsgId id = sim::make_msg_id(ProcessId(rng.below(7)), rng.below(n));
    benchmark::DoNotOptimize(net.find_in_flight(id));
  }
}

void register_benchmarks(bool /*smoke*/) {
  proto::protocol_by_name("cops-snow");  // validate before registering
  benchmark::RegisterBenchmark("BM_WorkloadBaseline", BM_WorkloadBaseline);
  benchmark::RegisterBenchmark("BM_WorkloadEmptyPlan", BM_WorkloadEmptyPlan);
  benchmark::RegisterBenchmark("BM_WorkloadLossyPlan", BM_WorkloadLossyPlan);
  // Every backlog size runs under --smoke too: the committed baseline pins
  // all three, and the smoke min_time keeps the largest one cheap.
  for (std::int64_t n : {1000, 10000, 100000}) {
    benchmark::RegisterBenchmark("BM_BacklogDeliver", BM_BacklogDeliver)
        ->Arg(n);
    benchmark::RegisterBenchmark("BM_BacklogFindInFlight",
                                 BM_BacklogFindInFlight)
        ->Arg(n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, {"bench_faults", register_benchmarks, {}});
}
