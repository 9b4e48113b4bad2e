#include "workloads.h"

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "consistency/checkers.h"
#include "obs/registry.h"
#include "obs/trace_io.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "rt/runtime.h"
#include "sim/simulation.h"

namespace perfbench {

namespace cons = discs::cons;
namespace obs = discs::obs;
namespace proto = discs::proto;
namespace rt = discs::rt;
namespace sim = discs::sim;
namespace wl = discs::wl;

namespace {

/// 4 servers, 2 clients, 256 objects, uniform keys.
ClusterConfig sweep_cluster() {
  ClusterConfig c;
  c.num_servers = 4;
  c.num_clients = 2;
  c.num_objects = 256;
  return c;
}

/// 10% writes (half of them multi-object), 2-object read-only transactions,
/// history collection off.
WorkloadConfig sweep_workload(std::uint64_t seed, std::size_t num_txs) {
  WorkloadConfig w;
  w.num_txs = num_txs;
  w.write_fraction = 0.1;
  w.multi_write_fraction = 0.5;
  w.read_objects = 2;
  w.write_objects = 2;
  w.zipf_theta = 0;
  w.seed = seed;
  w.collect_history = false;
  return w;
}

/// 4 servers, 4 clients, 64 objects.
ClusterConfig audit_cluster() {
  ClusterConfig c;
  c.num_servers = 4;
  c.num_clients = 4;
  c.num_objects = 64;
  return c;
}

/// Zipf theta 0.99, 50% writes, history collection on.
WorkloadConfig audit_workload(std::uint64_t seed, std::size_t num_txs) {
  WorkloadConfig w;
  w.num_txs = num_txs;
  w.write_fraction = 0.5;
  w.multi_write_fraction = 0.5;
  w.read_objects = 2;
  w.write_objects = 2;
  w.zipf_theta = 0.99;
  w.seed = seed;
  w.collect_history = true;
  return w;
}


/// Wall seconds of one Protocol::build into a fresh simulation.
double time_build(const Protocol& protocol, const ClusterConfig& ccfg) {
  sim::Simulation s;
  proto::IdSource ids;
  const double t0 = now_s();
  proto::Cluster c = protocol.build(s, ccfg, ids);
  return now_s() - t0;
}

/// The checker for the protocol's consistency claim, mapped as the chaos
/// campaign maps it.
cons::CheckResult check_claim(const Protocol& protocol,
                              const discs::hist::History& h) {
  const std::string claim = protocol.consistency_claim();
  if (claim.find("strict") != std::string::npos)
    return cons::check_strict_serializability(h);
  if (claim.find("read-atomic") != std::string::npos)
    return cons::check_read_atomicity(h);
  return cons::check_causal_consistency(h);
}

std::vector<std::unique_ptr<Protocol>> load_protocols() {
  std::vector<std::unique_ptr<Protocol>> out;
  for (const auto& name : protocols())
    out.push_back(proto::protocol_by_name(name));
  return out;
}

/// Calls `round(i)` at least `min_rounds` times, then while another round
/// (as long as the longest so far) still ends within `seconds`.
std::size_t for_rounds(double seconds, std::size_t min_rounds,
                       const std::function<void(std::size_t)>& round) {
  const double end = now_s() + seconds;
  double longest = 0;
  std::size_t i = 0;
  while (i < min_rounds || now_s() + longest <= end) {
    const double t0 = now_s();
    round(i++);
    longest = std::max(longest, now_s() - t0);
  }
  return i;
}

using Samples = std::map<std::string, std::vector<double>>;

double mean(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return v.empty() ? 0 : total / double(v.size());
}

/// Mean, median, min and max of every protocol's rounds: the spread the
/// reported means hide.
void log_spread(std::ostream& log, const std::string& what,
                const Samples& s) {
  for (const auto& [key, v] : s) {
    if (v.empty()) continue;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    log << "  " << what << " " << key << ": mean " << mean(v) << " median "
        << median(v) << " min " << *lo << " max " << *hi << " over "
        << v.size() << " rounds\n";
  }
}

/// One metric's samples per spec stream: [stream][protocol] -> rounds.
using StreamSamples = std::vector<Samples>;

/// Every metric `prefix + p`: the mean of each stream's rounds, averaged
/// over the streams.
void put_per_stream(Result& r, const std::string& prefix,
                    const StreamSamples& s) {
  for (const auto& p : protocols()) {
    double sum = 0;
    for (const auto& stream : s) {
      auto it = stream.find(p);
      if (it != stream.end()) sum += mean(it->second);
    }
    r.metrics[prefix + p] = s.empty() ? 0 : sum / double(s.size());
  }
}

/// Sum over P of the median set-up time of each protocol.
double setup_total(const Samples& setup) {
  double total = 0;
  for (const auto& [p, v] : setup) total += median(v);
  return total;
}

/// Protocol::build samples per protocol per sim-sweep round, besides the
/// builds of the measured runs.
constexpr std::size_t kSetupSamples = 5;
/// A protocol's sample in a sim-sweep or rt-serve round repeats its run
/// (same inputs, fresh cluster) until at least this much time was measured
/// (at reference speed on sim-sweep):
/// spanner's simulator run takes about 16 ms, short enough for one
/// scheduler hiccup to decide it.
constexpr double kMinSampleS = 0.2;

/// What one end-to-end round measured for one protocol.
struct RoundRow {
  double tx_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double setup_s = 0;  ///< median over the round's set-ups
  double slowdown = 1;  ///< mean host slowdown (1 where not paced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< hash of the final state; 0 = none taken
};

/// One end-to-end round: every protocol of P once.
struct Round {
  std::map<std::string, RoundRow> rows;
  std::vector<std::string> errors;
  std::uint64_t threads = 1;
};

Round sim_sweep_round(std::uint64_t seed) {
  Round out;
  ReferencePacer pacer;
  for (const auto& p : load_protocols()) {
    RoundRow& row = out.rows[p->name()];
    std::vector<double> setup, slowdowns, builds;
    slowdowns.push_back(pacer.around([&] {
      for (std::size_t k = 0; k < kSetupSamples; ++k)
        builds.push_back(time_build(*p, sweep_cluster()));
    }));
    for (double b : builds) setup.push_back(b / slowdowns.back());
    double drive_s = 0;  // at reference speed
    std::size_t done = 0, reps = 0;
    do {
      SweepRun s;
      const double slowdown =
          pacer.around([&] { s = sweep_run(*p, seed, kSweepTxs); });
      slowdowns.push_back(slowdown);
      setup.push_back(s.build_s / slowdown);
      drive_s += s.drive_s / slowdown;
      done += s.txs - s.incomplete;
      row.attempted += s.txs;
      row.failed += s.incomplete;
      // The simulator has no per-transaction wall clock: its latency
      // histogram counts events, each worth the run's mean time per event.
      const double us_per_event = s.drive_s / slowdown * 1e6 / double(s.events);
      row.p50_us += s.p50_events * us_per_event;
      row.p99_us += s.p99_events * us_per_event;
      const std::uint64_t digest = std::hash<std::string>{}(s.digest) | 1;
      if (reps++ == 0)
        row.digest = digest;
      else if (digest != row.digest)
        out.errors.push_back("sim-sweep " + p->name() +
                             ": a repeated run ended on another digest");
    } while (drive_s < kMinSampleS);
    row.tx_per_s = double(done) / drive_s;
    row.p50_us /= double(reps);
    row.p99_us /= double(reps);
    row.setup_s = median(setup);
    row.slowdown = mean(slowdowns);
  }
  return out;
}

Round rt_serve_round(std::uint64_t seed) {
  Round out;
  for (const auto& p : load_protocols()) {
    RoundRow& row = out.rows[p->name()];
    std::vector<double> setup;
    double wall_s = 0;
    std::size_t done = 0;
    obs::Histogram latency_us;
    do {
      const RtRun run = rt_run(*p, seed, kSweepTxs, /*traced=*/false);
      setup.push_back(run.call_s - run.wall_s);
      wall_s += run.wall_s;
      done += run.completed;
      row.attempted += run.completed + run.incomplete;
      row.failed += run.incomplete;
      latency_us.merge(run.latency_us);
      out.threads = std::max<std::uint64_t>(out.threads, run.threads);
      if (run.timed_out)
        out.errors.push_back("rt-serve " + p->name() +
                             ": run exceeded its wall budget");
    } while (wall_s < kMinSampleS);
    row.tx_per_s = double(done) / wall_s;
    row.p50_us = interpolated_percentile(latency_us, 0.50);
    row.p99_us = interpolated_percentile(latency_us, 0.99);
    row.setup_s = median(setup);
  }
  return out;
}

/// Sums of one protocol's audited histories in one round.
struct AuditTotals {
  double pipeline_s = 0;
  double drive_s = 0;
  double slowdown = 0;  ///< mean host slowdown over the chunks
  std::size_t txs = 0;
  std::size_t certified = 0;
  std::uint64_t events = 0;
  obs::Histogram latency_events;
};

/// Histories audited between two runs of the reference kernel: about 40 ms
/// of work, so that pacing costs about 5%.
constexpr std::size_t kAuditChunk = 8;

/// Audits kAuditHistories histories of `p`, each with its own derived seed,
/// paced by the reference kernel every kAuditChunk histories; every time in
/// the totals, in `setup` and in `runs` is at reference speed.  Records
/// failures into `r`.
AuditTotals audit_round(const Protocol& p, std::uint64_t seed, bool traced,
                        Result& r, std::vector<double>& setup,
                        std::vector<AuditRun>* runs = nullptr) {
  AuditTotals t;
  ReferencePacer pacer;
  std::size_t chunks = 0;
  for (std::size_t k0 = 0; k0 < kAuditHistories; k0 += kAuditChunk) {
    std::vector<AuditRun> chunk;
    const double slowdown = pacer.around([&] {
      for (std::size_t k = k0; k < std::min(k0 + kAuditChunk, kAuditHistories);
           ++k)
        chunk.push_back(audit_run(p, derive_seed(seed, k), kAuditTxs, traced));
    });
    t.slowdown += slowdown;
    ++chunks;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      AuditRun& a = chunk[i];
      for (double* time : {&a.build_s, &a.total_s, &a.drive_s, &a.doc_s,
                           &a.export_s, &a.import_s, &a.replay_s, &a.check_s})
        *time /= slowdown;
      setup.push_back(a.build_s);
      t.pipeline_s += a.total_s;
      t.drive_s += a.drive_s;
      t.txs += a.txs;
      t.certified += a.certified;
      t.events += a.events;
      t.latency_events.merge(a.latency_events);
      r.attempted += a.txs;
      r.failed += a.txs - a.certified;
      if (!a.error.empty())
        r.fail("audit " + p.name() + " history " + std::to_string(k0 + i) +
               ": " + a.error);
      if (runs) runs->push_back(std::move(a));
    }
  }
  t.slowdown /= double(chunks);
  return t;
}

Round audit_e2e_round(std::uint64_t seed) {
  Round out;
  for (const auto& p : load_protocols()) {
    Result r;
    std::vector<double> setup;
    const AuditTotals t = audit_round(*p, seed, /*traced=*/false, r, setup);
    const double us_per_event = t.drive_s * 1e6 / double(t.events);
    out.rows[p->name()] = {double(t.certified) / t.pipeline_s,
                           t.latency_events.p50() * us_per_event,
                           t.latency_events.percentile(0.99) * us_per_event,
                           median(setup),
                           t.slowdown,
                           r.attempted,
                           r.failed,
                           0};
    out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
  }
  return out;
}

Round run_round(const std::string& workload, std::uint64_t seed) {
  if (workload == "sim-sweep") return sim_sweep_round(seed);
  if (workload == "rt-serve") return rt_serve_round(seed);
  if (workload == "audit") return audit_e2e_round(seed);
  throw std::invalid_argument("unknown workload: " + workload);
}

/// Runs one round in a fresh child process (perfbench --round W SEED) and
/// parses what it printed.  A process keeps its CPU placement, memory
/// layout and, for rt, its worker pool's threads for life; on a shared
/// host that alone moved every protocol of a run together by up to 1.3x
/// while the rounds inside one process agreed.  A fresh process per round
/// samples those conditions instead of inheriting one draw for the run.
Round round_in_child(const std::string& workload, std::uint64_t seed) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  exe[len] = '\0';
  const std::string cmd = "'" + std::string(exe) + "' --round " + workload +
                          " " + std::to_string(seed);
  FILE* child = popen(cmd.c_str(), "r");
  if (!child) throw std::runtime_error("cannot start " + cmd);
  std::string text;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, child)) text += buf;
  if (pclose(child) != 0)
    throw std::runtime_error("round failed: " + cmd + "\n" + text);

  Round out;
  std::istringstream in(text);
  std::string tag;
  while (in >> tag) {
    if (tag == "threads") {
      in >> out.threads;
    } else if (tag == "row") {
      std::string name;
      RoundRow row;
      in >> name >> row.tx_per_s >> row.p50_us >> row.p99_us >> row.setup_s >>
          row.slowdown >> row.attempted >> row.failed >> row.digest;
      out.rows[name] = row;
    } else if (tag == "error") {
      std::string line;
      std::getline(in >> std::ws, line);
      out.errors.push_back(line);
    }
  }
  if (!in.eof() || out.rows.size() != protocols().size())
    throw std::runtime_error("unreadable round output from " + cmd + "\n" +
                             text);
  return out;
}

}  // namespace

SweepRun sweep_run(const Protocol& protocol, std::uint64_t seed,
                   std::size_t num_txs) {
  SweepRun out;
  sim::Simulation s;
  s.set_trace_retention(false);
  proto::IdSource ids;
  const double t0 = now_s();
  proto::Cluster cluster = protocol.build(s, sweep_cluster(), ids);
  const double t1 = now_s();
  auto& reg = obs::Registry::global();
  reg.reset();
  const wl::WorkloadConfig wcfg = sweep_workload(seed, num_txs);
  const double t2 = now_s();
  wl::WorkloadResult res =
      wl::run_workload_sequential(s, protocol, cluster, ids, wcfg);
  const double t3 = now_s();
  out.build_s = t1 - t0;
  out.drive_s = t3 - t2;
  out.txs = num_txs;
  out.incomplete = res.incomplete;
  out.events = s.now();
  if (const obs::Histogram* h = reg.find_histogram("client.tx.latency_events")) {
    out.p50_events = h->p50();
    out.p99_events = h->percentile(0.99);
  }
  out.digest = s.digest();
  return out;
}

namespace {

/// Re-applies the retained trace of `drive` on a cluster rebuilt from
/// `ccfg`, invoking each transaction of `windows` at the trace position
/// where the driver invoked it.  With `timed`, adds the wall time of every
/// call into `out` by event kind and process role.  Returns the loop's wall
/// seconds; sets `out.error` when the re-apply diverges or ends on another
/// digest than the drive.
double reapply(const Protocol& protocol, const ClusterConfig& ccfg,
               const sim::Simulation& drive,
               const std::vector<wl::TxWindow>& windows, bool timed,
               SweepTrace& out) {
  sim::Simulation re;
  proto::IdSource ids;
  proto::Cluster cluster = protocol.build(re, ccfg, ids);
  std::vector<char> is_client(re.process_count(), 0);
  for (auto c : cluster.clients) is_client[c.value()] = 1;
  const auto records = drive.trace().records();
  std::size_t next = 0;
  auto invoke_due = [&](std::size_t position) {
    while (next < windows.size() && windows[next].invoked_at <= position) {
      const wl::TxWindow& w = windows[next++];
      const double a = timed ? now_s() : 0;
      re.process_as<proto::ClientBase>(w.client).invoke(w.spec);
      if (timed) out.client_step_s += now_s() - a;
    }
  };
  const double loop0 = now_s();
  for (std::size_t i = 0; i < records.size(); ++i) {
    invoke_due(i);
    const sim::Event& e = records[i].event;
    const double a = timed ? now_s() : 0;
    const bool ok = re.apply(e);
    const double d = timed ? now_s() - a : 0;
    if (!ok) {
      out.error = "re-apply diverged at event " + std::to_string(i) + " (" +
                  e.describe() + ")";
      return 0;
    }
    if (!timed) continue;
    switch (e.kind) {
      case sim::Event::Kind::kDeliver:
        out.deliver_s += d;
        break;
      case sim::Event::Kind::kStep:
        (is_client[e.process.value()] ? out.client_step_s
                                      : out.server_step_s) += d;
        break;
      default:
        out.other_s += d;
    }
  }
  invoke_due(records.size());
  const double loop_s = now_s() - loop0;
  if (re.digest() != drive.digest())
    out.error = "re-applied trace ended on a different digest than the drive";
  return loop_s;
}

}  // namespace

SweepTrace sweep_trace(const Protocol& protocol, std::uint64_t seed,
                       std::size_t num_txs) {
  SweepTrace out;
  const ClusterConfig ccfg = sweep_cluster();
  const WorkloadConfig wcfg = sweep_workload(seed, num_txs);
  out.txs = num_txs;
  ReferencePacer pacer;
  auto& reg = obs::Registry::global();

  // Rounds of: a drive with retention off and one with it on, in
  // alternating order, then an untimed re-apply of the retained trace;
  // at least kTraceRounds, and until the drives with retention on add up to
  // kMinSampleS.  Every piece is timed at reference speed.
  sim::Simulation drive;
  wl::WorkloadResult res;
  std::vector<double> off_s, on_s, record_s, sched_s;
  double on_total_s = 0;
  for (std::size_t pair = 0;
       pair < kTraceRounds || on_total_s < kMinSampleS; ++pair) {
    for (const bool retain : {pair % 2 == 1, pair % 2 == 0}) {
      sim::Simulation s;
      s.set_trace_retention(retain);
      proto::IdSource ids;
      proto::Cluster cluster = protocol.build(s, ccfg, ids);
      reg.reset();
      double wall_s = 0;
      wl::WorkloadResult r;
      const double slowdown = pacer.around([&] {
        const double t0 = now_s();
        r = wl::run_workload_sequential(s, protocol, cluster, ids, wcfg);
        wall_s = now_s() - t0;
      });
      (retain ? on_s : off_s).push_back(wall_s / slowdown);
      if (!retain) continue;
      out.steps = reg.value("sim.steps");
      out.deliveries = reg.value("sim.deliveries");
      out.messages = reg.value("sim.messages_sent");
      drive = std::move(s);
      res = std::move(r);
    }
    double wall_s = 0;
    const double slowdown = pacer.around([&] {
      wall_s = reapply(protocol, ccfg, drive, res.windows, false, out);
    });
    if (!out.error.empty()) return out;
    on_total_s += on_s.back();
    record_s.push_back(on_s.back() - off_s.back());
    sched_s.push_back(on_s.back() - wall_s / slowdown);
  }
  out.drive_off_s = median(off_s);
  out.drive_on_s = median(on_s);
  out.record_s = median(record_s);
  out.sched_s = median(sched_s);
  out.incomplete = res.incomplete;

  double wall_s = 0;
  const double slowdown = pacer.around([&] {
    wall_s = reapply(protocol, ccfg, drive, res.windows, true, out);
  });
  if (!out.error.empty()) return out;
  out.reapply_s = wall_s / slowdown;
  out.deliver_s /= slowdown;
  out.server_step_s /= slowdown;
  out.client_step_s /= slowdown;
  out.other_s /= slowdown;
  out.digest_match = true;
  return out;
}

RtRun rt_run(const Protocol& protocol, std::uint64_t seed,
             std::size_t num_txs, bool traced) {
  RtRun out;
  rt::Options opts;
  opts.workers = kRtWorkers;
  opts.capture = false;  // stream_path, metrics and flight are off by default
  auto& reg = obs::Registry::global();
  if (traced) reg.reset();
  const double c0 = traced ? cpu_s() : 0;
  const double t0 = now_s();
  rt::RunReport rep = rt::run(protocol, sweep_cluster(),
                              sweep_workload(seed, num_txs), opts);
  out.call_s = now_s() - t0;
  if (traced) {
    out.cpu_s = cpu_s() - c0;
    out.steps = reg.value("rt.steps");
    out.deliveries = reg.value("rt.deliveries");
    out.messages = reg.value("rt.messages_sent");
  }
  out.wall_s = rep.wall_seconds;
  out.completed = rep.txs_completed;
  out.incomplete = rep.txs_incomplete;
  out.threads = rep.threads_used;
  out.timed_out = rep.timed_out;
  out.latency_us = rep.latency_us;
  return out;
}

AuditRun audit_run(const Protocol& protocol, std::uint64_t seed,
                   std::size_t num_txs, bool traced) {
  AuditRun a;
  const ClusterConfig ccfg = audit_cluster();
  const WorkloadConfig wcfg = audit_workload(seed, num_txs);
  sim::Simulation s;
  proto::IdSource ids;
  const double b0 = now_s();
  proto::Cluster cluster = protocol.build(s, ccfg, ids);
  a.build_s = now_s() - b0;
  auto& reg = obs::Registry::global();
  reg.reset();

  // The drive is always timed (it scales the latency histogram); with
  // `traced` off the stages after it are one timed interval.
  const double start = now_s();
  wl::WorkloadResult res =
      wl::run_workload_concurrent(s, protocol, cluster, ids, wcfg);
  double mark = now_s();
  a.drive_s = mark - start;
  auto stage = [&](double& into) {
    if (!traced) return;
    const double t = now_s();
    into = t - mark;
    mark = t;
  };
  std::vector<obs::InvokeRecord> invokes;
  invokes.reserve(res.windows.size());
  for (const auto& w : res.windows)
    invokes.push_back({w.invoked_at, w.client, w.spec});
  const obs::TraceDoc doc = obs::make_doc(protocol, "perfbench.audit", ccfg, s,
                                          cluster, std::move(invokes));
  stage(a.doc_s);
  const std::string text = obs::export_jsonl(doc);
  stage(a.export_s);
  const obs::TraceDoc imported = obs::import_jsonl(text);
  stage(a.import_s);
  const obs::DocReplay replay = obs::replay_doc(imported, protocol);
  stage(a.replay_s);
  const cons::CheckResult valid = cons::check_reads_valid(replay.history);
  const cons::CheckResult claim = check_claim(protocol, replay.history);
  stage(a.check_s);
  a.total_s = now_s() - start;

  a.txs = num_txs;
  a.incomplete = res.incomplete;
  a.bytes = text.size();
  a.events = s.now();
  if (const obs::Histogram* h = reg.find_histogram("client.tx.latency_events"))
    a.latency_events = *h;

  // Correctness, untimed.  A kUnknown verdict (search budget exhausted) is
  // not an error: its transactions count as uncertified.
  if (!replay.ok || !replay.digest_match)
    a.error = "replay_doc failed: " + replay.error;
  else if (obs::export_jsonl(replay.reexport) != text)
    a.error = "re-export is not byte-exact";
  else if (valid.verdict == cons::Verdict::kViolation)
    a.error = "reads not valid: " + valid.summary();
  else if (claim.verdict == cons::Verdict::kViolation)
    a.error = "violates its claim '" + protocol.consistency_claim() +
              "': " + claim.summary();
  if (a.error.empty() && valid.ok() && claim.ok())
    a.certified = a.txs - a.incomplete;
  return a;
}

void print_round(const std::string& workload, std::uint64_t seed,
                 std::ostream& out) {
  const Round round = run_round(workload, seed);
  out << std::setprecision(17) << "threads " << round.threads << '\n';
  for (const auto& [name, r] : round.rows)
    out << "row " << name << ' ' << r.tx_per_s << ' ' << r.p50_us << ' '
        << r.p99_us << ' ' << r.setup_s << ' ' << r.slowdown << ' '
        << r.attempted << ' ' << r.failed << ' ' << r.digest << '\n';
  for (const auto& e : round.errors) out << "error " << e << '\n';
}

/// Spec streams a run cycles through.  cops-snow's cost depends on its
/// key sequence (one seed ran 1.6x faster than another at 4000
/// transactions), so the simulator and rt runs average over several streams
/// derived from --seed.  audit keeps one: every distinct history is another
/// chance for the strict-serializability search to exhaust its budget
/// (README.md, finding H5), and each round already covers kAuditHistories
/// derived histories.
std::size_t streams_of(const std::string& workload) {
  if (workload == "sim-sweep") return 8;
  if (workload == "rt-serve") return 4;
  return 1;
}

Result run_end_to_end(const std::string& workload, std::uint64_t seed,
                      double seconds, std::ostream& log) {
  Result r;
  const std::size_t streams = streams_of(workload);
  StreamSamples tps(streams), p50(streams), p99(streams);
  Samples setup, slowdown;
  std::map<std::pair<std::string, std::size_t>, std::uint64_t> digest;
  std::uint64_t threads = 1;
  const std::size_t rounds = for_rounds(seconds, streams, [&](std::size_t i) {
    const std::size_t k = i % streams;
    const std::uint64_t stream_seed =
        streams == 1 ? seed : derive_seed(seed, 1000 + k);
    const Round round = round_in_child(workload, stream_seed);
    threads = std::max(threads, round.threads);
    for (const auto& e : round.errors) r.fail(e);
    for (const auto& [name, row] : round.rows) {
      tps[k][name].push_back(row.tx_per_s);
      p50[k][name].push_back(row.p50_us);
      p99[k][name].push_back(row.p99_us);
      setup[name].push_back(row.setup_s);
      slowdown[name].push_back(row.slowdown);
      r.attempted += row.attempted;
      r.failed += row.failed;
      // Same stream, same inputs: every round must end in the same state.
      if (row.digest == 0) continue;
      auto [it, first] = digest.emplace(std::make_pair(name, k), row.digest);
      if (!first && it->second != row.digest)
        r.fail(workload + " " + name + ": round " + std::to_string(i) +
               " ended on a different digest than the stream's first round");
    }
  });
  log << workload << ": " << rounds << " rounds over " << streams
      << " spec stream(s), one process per round, on " << threads
      << " thread(s) (nproc " << nproc() << ")\n";
  if (threads > nproc())
    log << "  WARNING: more threads than this machine has CPUs; the numbers "
           "measure oversubscription\n";
  if (workload != "rt-serve") {
    log << "  times are at reference speed: each wall time is divided by the "
           "host slowdown measured around it\n";
    log << "  p50/p99 are latency-in-events percentiles times the run's "
           "mean time per event, not per-transaction wall clocks\n";
    log_spread(log, "host slowdown", slowdown);
  }
  for (std::size_t k = 0; k < streams; ++k) {
    log << " stream " << k << "\n";
    log_spread(log, "tx/s", tps[k]);
    log_spread(log, "p99 us", p99[k]);
  }
  // Over many rounds the mean of each stream spreads least (README.md,
  // "How a run measures").
  put_per_stream(r, "tx_per_s.", tps);
  put_per_stream(r, "p50_us.", p50);
  put_per_stream(r, "p99_us.", p99);
  r.metrics["setup_s"] = setup_total(setup);
  r.metrics["success_ratio"] =
      r.attempted == 0 ? 0 : 1.0 - double(r.failed) / double(r.attempted);
  return r;
}

Result run_per_layer(std::uint64_t seed, double seconds, std::ostream& log) {
  Result r;
  const auto protos = load_protocols();
  // One sample per pass for every per-layer metric; the result is the
  // median over passes.
  Samples m;
  auto put = [&](const std::string& prefix, const std::string& p, double v) {
    m[prefix + p].push_back(v);
  };
  const std::size_t passes = for_rounds(seconds, 1, [&](std::size_t) {
    // sim-sweep: drive off / drive on / timed re-apply, per protocol.
    double traced = 0, untraced = 0;
    for (const auto& p : protos) {
      const std::string name = p->name();
      const SweepTrace t = sweep_trace(*p, seed, kSweepTxs);
      r.attempted += t.txs;
      r.failed += t.incomplete;
      if (!t.error.empty()) r.fail("sim-sweep " + name + ": " + t.error);
      const double n = double(t.txs);
      put("sim.steps_per_tx.", name, double(t.steps) / n);
      put("sim.deliveries_per_tx.", name, double(t.deliveries) / n);
      put("proto.msgs_per_tx.", name, double(t.messages) / n);
      put("sim.trace_record_us_per_tx.", name, t.record_s * 1e6 / n);
      put("sim.deliver_us_per_tx.", name, t.deliver_s * 1e6 / n);
      put("proto.server_step_us_per_tx.", name, t.server_step_s * 1e6 / n);
      put("proto.client_step_us_per_tx.", name, t.client_step_s * 1e6 / n);
      put("workload.sched_us_per_tx.", name, t.sched_s * 1e6 / n);
      traced += t.drive_on_s + t.reapply_s;
      untraced += t.drive_off_s;
    }
    m["trace.overhead_ratio.sim-sweep"].push_back(traced / untraced);

    // rt-serve: an untraced and a traced call, per protocol.
    traced = untraced = 0;
    for (const auto& p : protos) {
      const std::string name = p->name();
      const RtRun u = rt_run(*p, seed, kSweepTxs, /*traced=*/false);
      const RtRun t = rt_run(*p, seed, kSweepTxs, /*traced=*/true);
      untraced += u.call_s;
      traced += t.call_s;
      if (u.timed_out || t.timed_out)
        r.fail("rt-serve " + name + ": run exceeded its wall budget");
      r.attempted += t.completed + t.incomplete;
      r.failed += t.incomplete;
      const double done = double(std::max<std::size_t>(t.completed, 1));
      put("rt.steps_per_tx.", name, double(t.steps) / done);
      put("rt.deliveries_per_step.", name,
          double(t.deliveries) / double(std::max<std::uint64_t>(t.steps, 1)));
      put("rt.msgs_per_tx.", name, double(t.messages) / done);
      put("rt.cpu_us_per_tx.", name, t.cpu_s * 1e6 / done);
      put("rt.busy_ratio.", name, t.cpu_s / (t.wall_s * double(t.threads)));
      put("rt.tx_per_s.", name, double(t.completed) / t.wall_s);
      put("rt.p50_us.", name, interpolated_percentile(t.latency_us, 0.50));
      put("rt.p99_us.", name, interpolated_percentile(t.latency_us, 0.99));
    }
    m["trace.overhead_ratio.rt-serve"].push_back(traced / untraced);

    // audit: the same histories untraced, then stage by stage.
    traced = untraced = 0;
    for (const auto& p : protos) {
      const std::string name = p->name();
      std::vector<double> setup;
      Result scratch;  // the traced round below counts the attempts
      untraced +=
          audit_round(*p, seed, /*traced=*/false, scratch, setup).pipeline_s;
      std::vector<AuditRun> runs;
      traced += audit_round(*p, seed, /*traced=*/true, r, setup, &runs)
                    .pipeline_s;
      AuditRun sum;
      for (const auto& a : runs) {
        sum.txs += a.txs;
        sum.drive_s += a.drive_s;
        sum.doc_s += a.doc_s;
        sum.export_s += a.export_s;
        sum.import_s += a.import_s;
        sum.replay_s += a.replay_s;
        sum.check_s += a.check_s;
        sum.bytes += a.bytes;
        sum.events += a.events;
      }
      const double n = double(sum.txs);
      put("workload.drive_us_per_tx.", name, sum.drive_s * 1e6 / n);
      put("obs.doc_us_per_tx.", name, sum.doc_s * 1e6 / n);
      put("obs.export_us_per_tx.", name, sum.export_s * 1e6 / n);
      put("obs.import_us_per_tx.", name, sum.import_s * 1e6 / n);
      put("obs.replay_us_per_tx.", name, sum.replay_s * 1e6 / n);
      put("consistency.check_us_per_tx.", name, sum.check_s * 1e6 / n);
      put("obs.bytes_per_tx.", name, double(sum.bytes) / n);
      put("sim.events_per_tx.", name, double(sum.events) / n);
    }
    m["trace.overhead_ratio.audit"].push_back(traced / untraced);
  });

  log << "traced run: " << passes << " passes over sim-sweep, rt-serve and "
      << "audit\n";
  for (const auto& [name, v] : m) r.metrics[name] = median(v);
  for (const auto& w : workloads()) {
    const std::string key = "trace.overhead_ratio." + w;
    log << "  tracing overhead on " << w << ": " << r.metrics[key]
        << "x the untraced time of the same work\n";
  }
  return r;
}

}  // namespace perfbench
