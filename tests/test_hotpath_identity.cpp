// Byte-identity pins for the hot-path overhaul (PR 6).
//
// The arena allocator, coalesced delivery, flat-map store internals and
// memoized digests are pure implementation detail: they must not change a
// single byte of any observable artifact.  These tests pin that contract
// against golden files captured from the pre-overhaul ("seed") build:
//
//   tests/data/golden/<proto>.mixed.trace.jsonl   exported trace artifact
//   tests/data/golden/workload_digests.txt        final + per-process digests
//
// If an optimization ever reorders deliveries, changes digest bytes or
// perturbs trace serialization, these tests fail with a byte diff — before
// any checker or Table-1 number has a chance to drift silently.
//
// Regenerating (only legitimate when the *observable model* changes, e.g.
// a new protocol version — never for a performance PR):
//   DISCS_REGEN_GOLDEN=<repo>/tests/data/golden ./test_hotpath_identity
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.h"
#include "proto/registry.h"
#include "workload/workload.h"

namespace {

using namespace discs;

// Three registry protocols spanning the design space: the fast strawman,
// a causal two-round design and the clock-based serializable one.  wren is
// the slowest (two-round reads + gossip) and exercises BatchPayload and the
// dedup-free gossip path the hardest.
const std::vector<std::string> kPinnedProtocols = {"naivefast", "cops-snow",
                                                   "wren", "spanner"};

std::string golden_dir() {
#ifdef DISCS_TEST_DATA_DIR
  return std::string(DISCS_TEST_DATA_DIR) + "/golden";
#else
  return "tests/data/golden";
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with DISCS_REGEN_GOLDEN)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Set DISCS_REGEN_GOLDEN to a directory to (re)write goldens instead of
// comparing.  The CI never sets it; it exists so the files can be captured
// from a known-good build.
const char* regen_dir() { return std::getenv("DISCS_REGEN_GOLDEN"); }

void compare_or_regen(const std::string& name, const std::string& actual) {
  if (const char* dir = regen_dir()) {
    std::ofstream out(std::string(dir) + "/" + name, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write golden " << name;
    return;
  }
  std::string expected = read_file(golden_dir() + "/" + name);
  // EXPECT_EQ on multi-KB strings prints an unreadable blob; locate the
  // first differing line instead.
  if (actual != expected) {
    std::istringstream a(actual), e(expected);
    std::string la, le;
    std::size_t line = 1;
    while (std::getline(a, la) && std::getline(e, le)) {
      if (la != le) break;
      ++line;
    }
    FAIL() << name << " diverged from golden at line " << line
           << "\n  golden: " << le << "\n  actual: " << la;
  }
}

// The exported `mixed` scenario: interleaved writes and reads across three
// clients — covers batching, two-round reads and gossip for every pinned
// protocol.  The full JSONL artifact (header, events, history, footer
// digest) must match the seed build byte for byte.
TEST(HotpathIdentity, MixedScenarioTraceBytesMatchSeed) {
  for (const auto& name : kPinnedProtocols) {
    auto proto = proto::protocol_by_name(name);
    proto::ClusterConfig cfg;
    obs::TraceDoc doc = obs::capture_scenario(*proto, "mixed", cfg);
    compare_or_regen(name + ".mixed.trace.jsonl", obs::export_jsonl(doc));
  }
}

// A heavier sequential workload (more transactions, multi-writes, larger
// cluster): the final configuration digest and every per-process digest
// must match the seed build.  This is the strongest state check available —
// it covers the versioned store, dedup tables, client bookkeeping and
// network buffers of every process.
TEST(HotpathIdentity, WorkloadDigestsMatchSeed) {
  std::ostringstream os;
  for (const auto& name : kPinnedProtocols) {
    auto proto = proto::protocol_by_name(name);
    sim::Simulation sim;
    proto::ClusterConfig cfg;
    cfg.num_servers = 3;
    cfg.num_clients = 4;
    cfg.num_objects = 6;
    proto::IdSource ids;
    auto cluster = proto->build(sim, cfg, ids);

    wl::WorkloadConfig wcfg;
    wcfg.num_txs = 40;
    wcfg.write_fraction = 0.4;
    wcfg.seed = 2026;
    auto result = wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);
    EXPECT_EQ(result.incomplete, 0u) << name;

    os << "== " << name << " ==\n";
    os << "final: " << sim.digest() << "\n";
    for (std::size_t p = 0; p < sim.process_count(); ++p)
      os << "p" << p << ": " << sim.process_digest(ProcessId(p)) << "\n";
    os << "trace_events: " << sim.trace().size() << "\n";
  }
  compare_or_regen("workload_digests.txt", os.str());
}

// Replay closes the loop: the golden artifact, re-imported and re-executed
// on a fresh simulation, must re-export to its own bytes and reach the
// recorded final digest.  This runs the *deliver/step path of the current
// build* against the *event sequence of the seed build*, so any divergence
// in message ids, batching decisions or income-buffer order is caught even
// if both builds are self-consistent.
TEST(HotpathIdentity, GoldenTracesReplayByteExact) {
  if (regen_dir() != nullptr) GTEST_SKIP() << "regenerating goldens";
  for (const auto& name : kPinnedProtocols) {
    std::string bytes = read_file(golden_dir() + "/" + name +
                                  ".mixed.trace.jsonl");
    ASSERT_FALSE(bytes.empty()) << name;
    obs::TraceDoc doc = obs::import_jsonl(bytes);
    obs::DocReplay replay = obs::replay_doc(doc);
    EXPECT_TRUE(replay.ok) << name << ": " << replay.error;
    EXPECT_TRUE(replay.digest_match) << name;
    EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes) << name;
  }
}

// FNV-1a 64: pins a multi-megabyte digest as one constant.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

enum class LongRun { kSequential, kConcurrentZipf, kSequentialJournal };

// Final configuration digest of a long cops-snow run.  The 40-transaction
// pin above never builds large hidden sets; these runs do, so they pin the
// old-reader union, the store's per-version exclusions and (with the
// journal on) journal records and replay bases.
std::string cops_snow_long_run_digest(LongRun run) {
  auto proto = proto::protocol_by_name("cops-snow");
  sim::Simulation sim;
  sim.set_trace_retention(false);
  proto::ClusterConfig cfg;  // the perfbench sim-sweep cluster shape
  cfg.num_servers = 4;
  cfg.num_clients = run == LongRun::kConcurrentZipf ? 4 : 2;
  cfg.num_objects = 256;
  cfg.durable_journal = run == LongRun::kSequentialJournal;
  proto::IdSource ids;
  auto cluster = proto->build(sim, cfg, ids);

  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 2000;
  wcfg.write_fraction = 0.1;
  wcfg.seed = 7;
  wcfg.collect_history = false;
  wl::WorkloadResult result;
  if (run == LongRun::kConcurrentZipf) {
    wcfg.zipf_theta = 0.99;
    result = wl::run_workload_concurrent(sim, *proto, cluster, ids, wcfg);
  } else {
    result = wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);
  }
  EXPECT_EQ(result.incomplete, 0u);
  return sim.digest();
}

// Hash and length captured on the build before the old-reader union moved
// off std::set; any change to hidden-set contents or order shows here.
TEST(HotpathIdentity, CopsSnowLongRunDigestsMatchSeed) {
  struct Pin {
    LongRun run;
    const char* name;
    std::uint64_t fnv;
    std::size_t length;
  };
  const Pin pins[] = {
      {LongRun::kSequential, "sequential", 0x6e040d5d63cd24f0ull, 247061},
      {LongRun::kConcurrentZipf, "concurrent-zipf", 0x450f80c4048d9252ull,
       643703},
      {LongRun::kSequentialJournal, "sequential-journal",
       0xec76869cce2b4644ull, 256317},
  };
  for (const auto& pin : pins) {
    const std::string digest = cops_snow_long_run_digest(pin.run);
    EXPECT_EQ(fnv1a64(digest), pin.fnv)
        << pin.name << ": 0x" << std::hex << fnv1a64(digest) << std::dec
        << " length " << digest.size();
    EXPECT_EQ(digest.size(), pin.length) << pin.name;
  }
}

// Snapshot/branching still shares state after the overhaul: a snapshot taken
// mid-workload and branched differently must leave the original untouched
// (digest-identical to a straight-line run).
TEST(HotpathIdentity, SnapshotBranchingUnaffected) {
  auto proto = proto::protocol_by_name("cops-snow");
  sim::Simulation sim;
  proto::ClusterConfig cfg;
  proto::IdSource ids;
  auto cluster = proto->build(sim, cfg, ids);

  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 5;
  wl::run_workload_sequential(sim, *proto, cluster, ids, wcfg);

  sim::Simulation snap = sim;
  std::string digest_before = sim.digest();
  // Branch: run extra traffic on the snapshot only.
  sim::run_to_quiescence(snap, {}, 2000);
  EXPECT_EQ(sim.digest(), digest_before);
}

}  // namespace
