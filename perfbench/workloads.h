// The benchmark's three workloads and the single-protocol runs they are made
// of.  Each run builds its own cluster, calls the program's public entry
// points, and times them from outside.
//
//   sim-sweep  wl::run_workload_sequential under the fair scheduler, trace
//              retention and history collection off (the bench_table1 sweep
//              regime).  Why: all of its time goes to sim, proto and kv on
//              one thread, and one long run per protocol exposes state that
//              grows with run length (cops-snow's old-reader log).
//   rt-serve   the same cluster, spec stream and run length through rt::run
//              on 2 workers + 2 client submitters, capture, streaming,
//              metrics sampler and flight recorder off.  Why: it executes
//              the transactions of sim-sweep, so any difference between the
//              two comes from the rt layer (inboxes, routing, parking, idle
//              ticks), and it skips the simulator's scheduler and trace code.
//   audit      wl::run_workload_concurrent with 4 clients on hot keys, then
//              obs::make_doc -> export_jsonl -> import_jsonl -> replay_doc ->
//              cons::check_reads_valid + the checker for the protocol's
//              consistency claim.  Why: chaos, fuzz and rt verification all
//              certify through this path; writes next to reads on hot keys
//              build long version chains and dense reads-from edges, and a
//              seeded simulator history keeps checker cost fixed per seed.
//
// All three are closed loop: a client submits its next transaction only
// after the previous one completed, so latency percentiles suffer
// coordinated omission (an open-loop driver needs an rt API change).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "harness.h"
#include "obs/histogram.h"
#include "proto/common/cluster.h"
#include "workload/workload.h"

namespace perfbench {

using discs::proto::ClusterConfig;
using discs::proto::Protocol;
using discs::wl::WorkloadConfig;

/// Transactions per protocol in one sim-sweep or rt-serve run.  Fixed, so a
/// parent and a change run the same work; long enough that cops-snow's
/// run-length-dependent slowdown shows (about 3x slower per transaction
/// than at 1000).
inline constexpr std::size_t kSweepTxs = 4000;
/// audit: histories per protocol per round, and transactions per history.
/// 20 keeps the exhaustive strict-serializability search inside its default
/// node budget on hot-key histories; see README.md, finding H5.
inline constexpr std::size_t kAuditHistories = 48;
inline constexpr std::size_t kAuditTxs = 20;
/// rt-serve threads: workers stepping servers, plus one submitter per client.
inline constexpr std::size_t kRtWorkers = 2;

/// One untraced sim-sweep run of one protocol.
struct SweepRun {
  double build_s = 0;  ///< Protocol::build
  double drive_s = 0;  ///< wl::run_workload_sequential
  std::size_t txs = 0;
  std::size_t incomplete = 0;
  std::uint64_t events = 0;
  double p50_events = 0;  ///< client.tx.latency_events percentiles
  double p99_events = 0;
  std::string digest;  ///< final Simulation::digest(), taken untimed
};
SweepRun sweep_run(const Protocol& protocol, std::uint64_t seed,
                   std::size_t num_txs);

/// Least rounds of paired pieces in one traced sim-sweep run: a drive with
/// trace retention off, one with it on, and an untimed re-apply.  Short
/// runs do more rounds, until the drives with retention on add up to 0.2 s.
/// The cost of recording and the scheduler's residual are medians of
/// paired differences, since each is smaller than the host's drift between
/// two unpaired timings.
inline constexpr std::size_t kTraceRounds = 3;

/// One traced sim-sweep run of rounds of paired pieces, then the last
/// retained trace re-applied on a rebuilt cluster event by event through
/// Simulation::apply, timing each call by event kind and process role.
/// Every time is at reference speed (harness.h, ReferencePacer).
struct SweepTrace {
  std::size_t txs = 0;
  std::size_t incomplete = 0;
  double drive_off_s = 0;  ///< retention off (the untraced regime); median
  double drive_on_s = 0;   ///< retention on; median
  double record_s = 0;     ///< median over rounds of (on - off)
  double sched_s = 0;      ///< median over rounds of (on - untimed re-apply)
  double reapply_s = 0;    ///< the timed re-apply loop
  double deliver_s = 0;    ///< sum of apply() over deliveries
  double server_step_s = 0;
  double client_step_s = 0;  ///< client steps plus ClientBase::invoke
  double other_s = 0;        ///< fault events (none in this workload)
  std::uint64_t steps = 0;   ///< Registry sim.steps over the retained drive
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  bool digest_match = false;  ///< every re-apply landed on the drive's digest
  std::string error;          ///< why a re-apply failed, if one did
};
SweepTrace sweep_trace(const Protocol& protocol, std::uint64_t seed,
                       std::size_t num_txs);

/// One rt-serve run of one protocol.  `traced` adds the Registry rt.*
/// counters and getrusage CPU time around the call.
struct RtRun {
  double call_s = 0;  ///< the whole rt::run call
  double wall_s = 0;  ///< RunReport::wall_seconds
  double cpu_s = 0;   ///< getrusage user+sys over the call (traced)
  std::size_t completed = 0;
  std::size_t incomplete = 0;
  std::size_t threads = 0;
  bool timed_out = false;
  discs::obs::Histogram latency_us;  ///< RunReport::latency_us
  std::uint64_t steps = 0;  ///< Registry rt.* over the call (traced)
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
};
RtRun rt_run(const Protocol& protocol, std::uint64_t seed,
             std::size_t num_txs, bool traced);

/// One audited history of one protocol.  Untraced, the pipeline from drive
/// to checks is one timed interval; `traced` times each stage on its own.
struct AuditRun {
  double build_s = 0;
  double total_s = 0;  ///< drive through checks
  double drive_s = 0;
  double doc_s = 0;  ///< the stages after the drive: traced only
  double export_s = 0;
  double import_s = 0;
  double replay_s = 0;
  double check_s = 0;
  std::size_t txs = 0;
  std::size_t incomplete = 0;
  std::size_t certified = 0;  ///< completed txs of a history checked kOk
  std::uint64_t bytes = 0;    ///< exported artifact size
  std::uint64_t events = 0;
  discs::obs::Histogram latency_events;  ///< client.tx.latency_events
  std::string error;    ///< a failed correctness check; empty when none
};
AuditRun audit_run(const Protocol& protocol, std::uint64_t seed,
                   std::size_t num_txs, bool traced);

/// Runs one end-to-end round of `workload` (every protocol of P once) and
/// prints it as text lines for the parent run: the child side of
/// perfbench --round.
void print_round(const std::string& workload, std::uint64_t seed,
                 std::ostream& out);

/// Runs `workload` for about `seconds` and returns the end-to-end metrics
/// (trace off) or the per-layer metrics of the traced run (trace on).
/// Human-readable detail goes to `log`.
Result run_end_to_end(const std::string& workload, std::uint64_t seed,
                      double seconds, std::ostream& log);
Result run_per_layer(std::uint64_t seed, double seconds, std::ostream& log);

}  // namespace perfbench
