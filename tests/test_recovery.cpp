// Exactly-once session layer and journaled crash recovery: dedup-table and
// journal unit behavior, the crash-during-commit matrix across the
// protocol corpus, and the hardened stack (exactly_once + durable_journal)
// holding its consistency claims under lossy, duplicating and crashing
// plans that the unhardened build demonstrably fails.
#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "fault/plan.h"
#include "fault/session.h"
#include "obs/registry.h"
#include "proto/common/client.h"
#include "proto/common/exactly_once.h"
#include "proto/common/journal.h"
#include "proto/common/payloads.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "workload/workload.h"

namespace discs {
namespace {

using fault::FaultPlan;
using fault::FaultSession;
using proto::ClientBase;
using proto::Cluster;
using proto::ClusterConfig;
using proto::DedupTable;
using proto::IdSource;
using proto::Journal;
using proto::JournaledStore;
using proto::ReqId;
using proto::SessionEnvelope;
using proto::TxSpec;

ClusterConfig hardened_cluster() {
  ClusterConfig cfg;
  cfg.exactly_once = true;
  cfg.durable_journal = true;
  return cfg;
}

// --- dedup table -----------------------------------------------------------

std::shared_ptr<const proto::WriteRequest> write_req(std::uint64_t tx) {
  auto req = std::make_shared<proto::WriteRequest>();
  req->tx = TxId(tx);
  return req;
}

std::shared_ptr<const proto::WriteReply> write_reply(std::uint64_t tx) {
  auto rep = std::make_shared<proto::WriteReply>();
  rep->tx = TxId(tx);
  return rep;
}

TEST(DedupTableTest, FirstCopyExecutesAndDuplicateReplaysMemoizedReply) {
  DedupTable table;
  ProcessId client(7);
  SessionEnvelope env(ReqId{client, 0, 0}, 0, write_req(1));

  auto first = table.admit(env);
  EXPECT_EQ(first.verdict, DedupTable::Verdict::kExecute);
  EXPECT_EQ(table.size(), 1u);

  // A duplicate before the server answered is suppressed silently: the
  // original execution is still in flight and will produce the reply.
  auto early_dup = table.admit(env);
  EXPECT_EQ(early_dup.verdict, DedupTable::Verdict::kDuplicate);
  EXPECT_EQ(early_dup.replay, nullptr);

  // The server's reply to the client is attributed by (dst, tx_hint) and
  // memoized into the pending entry.
  std::vector<DedupTable::Send> outgoing{{client, write_reply(1)}};
  table.memoize_replies(outgoing, {});

  auto late_dup = table.admit(env);
  EXPECT_EQ(late_dup.verdict, DedupTable::Verdict::kDuplicate);
  ASSERT_NE(late_dup.replay, nullptr);
  ASSERT_EQ(late_dup.replay->size(), 1u);
  EXPECT_EQ(late_dup.replay->front().first, client);
  EXPECT_EQ(late_dup.replay->front().second->tx_hint(), TxId(1));
}

TEST(DedupTableTest, WatermarkPrunesAndOlderSessionsAreStale) {
  DedupTable table;
  ProcessId client(3);
  table.admit(SessionEnvelope(ReqId{client, 1, 0}, 0, write_req(1)));
  table.admit(SessionEnvelope(ReqId{client, 1, 1}, 0, write_req(2)));
  EXPECT_EQ(table.size(), 2u);

  // stable_before = 2 acknowledges both seqs: the entries are pruned, and
  // a replayed copy of an acknowledged seq is a no-op duplicate.
  auto acked = table.admit(SessionEnvelope(ReqId{client, 1, 0}, 2, write_req(1)));
  EXPECT_EQ(acked.verdict, DedupTable::Verdict::kDuplicate);
  EXPECT_EQ(acked.replay, nullptr);
  EXPECT_EQ(table.size(), 0u);

  // Envelopes from an older session incarnation are stale, never executed.
  auto stale = table.admit(SessionEnvelope(ReqId{client, 0, 9}, 0, write_req(3)));
  EXPECT_EQ(stale.verdict, DedupTable::Verdict::kStale);

  // A newer incarnation resets the sender's state and executes normally.
  auto fresh = table.admit(SessionEnvelope(ReqId{client, 2, 0}, 0, write_req(4)));
  EXPECT_EQ(fresh.verdict, DedupTable::Verdict::kExecute);
}

// --- journal ---------------------------------------------------------------

kv::Version version_of(std::uint64_t value, std::uint64_t physical = 0) {
  kv::Version v;
  v.value = ValueId(value);
  v.ts = clk::HlcTimestamp{physical, 0};
  return v;
}

TEST(JournalTest, ReplayRebuildsTheStoreAndCompactionBoundsRecords) {
  const ObjectId obj(0);
  const std::vector<std::pair<ObjectId, ValueId>> seeds{{obj, ValueId(100)}};

  Journal journal(/*compact_threshold=*/4);
  kv::VersionedStore store;
  store.put(obj, version_of(100));
  JournaledStore writer(store, &journal);

  for (std::uint64_t i = 1; i <= 10; ++i) writer.put(obj, version_of(100 + i, i));
  // Compaction kicked in: the journal snapshot absorbed the prefix, the
  // live record count stays below the threshold.
  EXPECT_TRUE(journal.compacted());
  EXPECT_LE(journal.size(), 4u);

  // Replaying (as a lossy crash does) reproduces the store exactly, even
  // though most records were truncated into the snapshot base.
  kv::VersionedStore recovered = journal.replay(seeds);
  EXPECT_EQ(recovered.digest(), store.digest());
  ASSERT_NE(recovered.latest_visible(obj), nullptr);
  EXPECT_EQ(recovered.latest_visible(obj)->value, ValueId(110));
}

TEST(JournalTest, UncompactedReplayStartsFromSeeds) {
  const ObjectId obj(2);
  Journal journal;  // default threshold, never reached here
  kv::VersionedStore store;
  store.put(obj, version_of(5));
  JournaledStore writer(store, &journal);
  writer.put(obj, version_of(6, 1));

  EXPECT_FALSE(journal.compacted());
  kv::VersionedStore recovered = journal.replay({{obj, ValueId(5)}});
  EXPECT_EQ(recovered.digest(), store.digest());
}

// --- crash-during-commit matrix --------------------------------------------

struct BuiltCluster {
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster;
  std::shared_ptr<proto::Protocol> protocol;
};

BuiltCluster build(const std::string& name, ClusterConfig cfg) {
  BuiltCluster b;
  b.protocol = proto::protocol_by_name(name);
  b.cluster = b.protocol->build(b.sim, cfg, b.ids);
  return b;
}

void drive_until(sim::Simulation& sim, ProcessId client, TxId tx,
                 std::size_t budget = 40000) {
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(client).has_completed(
                      tx);
                },
                budget);
}

TEST(JournaledRecovery, LossyCrashKeepsCommittedWritesAcrossProtocols) {
  obs::Registry::global().reset();
  for (const auto& p : proto::correct_protocols()) {
    BuiltCluster b = build(p->name(), hardened_cluster());
    ObjectId obj = b.cluster.view.objects.front();

    TxSpec w = b.ids.write_one(obj);
    ValueId written = w.write_set.front().second;
    ProcessId writer = b.cluster.clients[0];
    b.sim.process_as<ClientBase>(writer).invoke(w);
    drive_until(b.sim, writer, w.id);
    ASSERT_TRUE(
        b.sim.process_as<const ClientBase>(writer).has_completed(w.id))
        << p->name();

    // Power-cycle the primary with memory loss.  The journal survives the
    // crash; recovery replays it, so the committed write is still there.
    ProcessId primary = b.cluster.view.primary(obj);
    ASSERT_TRUE(b.sim.crash(primary, /*lossy=*/true)) << p->name();
    ASSERT_TRUE(b.sim.restart(primary)) << p->name();

    TxSpec r = b.ids.read_tx({obj});
    ProcessId reader = b.cluster.clients[1];
    b.sim.process_as<ClientBase>(reader).invoke(r);
    drive_until(b.sim, reader, r.id);
    auto got = b.sim.process_as<ClientBase>(reader).result_of(r.id);
    ASSERT_TRUE(got.count(obj)) << p->name();
    EXPECT_EQ(got.at(obj), written)
        << p->name() << ": post-recovery read must equal the pre-crash "
        << "committed state";
  }
  EXPECT_GT(obs::Registry::global().value("server.recovery.replayed"), 0u);
}

TEST(JournaledRecovery, WithoutJournalLossyCrashStillWipesToBaseline) {
  // The legacy semantics are preserved when the journal is off: a lossy
  // crash falls back to the seeded baseline (and says so in the counters).
  obs::Registry::global().reset();
  ClusterConfig cfg;
  cfg.exactly_once = true;  // journal off, session layer on
  BuiltCluster b = build("cops", cfg);
  ObjectId obj = b.cluster.view.objects.front();
  ValueId initial = b.cluster.initial_values.at(obj);

  TxSpec w = b.ids.write_one(obj);
  ProcessId writer = b.cluster.clients[0];
  b.sim.process_as<ClientBase>(writer).invoke(w);
  drive_until(b.sim, writer, w.id);

  ProcessId primary = b.cluster.view.primary(obj);
  ASSERT_TRUE(b.sim.crash(primary, /*lossy=*/true));
  ASSERT_TRUE(b.sim.restart(primary));

  TxSpec r = b.ids.read_tx({obj});
  ProcessId reader = b.cluster.clients[1];
  b.sim.process_as<ClientBase>(reader).invoke(r);
  drive_until(b.sim, reader, r.id);
  auto got = b.sim.process_as<ClientBase>(reader).result_of(r.id);
  ASSERT_TRUE(got.count(obj));
  EXPECT_EQ(got.at(obj), initial);
  EXPECT_GT(obs::Registry::global().value("server.crash.store_wiped"), 0u);
  EXPECT_EQ(obs::Registry::global().value("server.recovery.replayed"), 0u);
}

// --- the hardened stack under fault plans ----------------------------------

chaos::CampaignConfig hardened_campaign() {
  chaos::CampaignConfig cfg;
  cfg.cluster = hardened_cluster();
  cfg.cluster.client_retransmit_after = 8;  // the campaign default
  cfg.workload.num_txs = 12;
  cfg.workload.seed = 4;
  return cfg;
}

TEST(HardenedStack, ConsistencyAndProgressHoldUnderDropRetransmit) {
  // With the session layer on, client retransmits are unconditionally
  // safe: every protocol keeps its consistency claim and its progress
  // under a lossy network where both the engine and the clients resend.
  chaos::CampaignConfig cfg = hardened_campaign();
  FaultPlan plan = fault::drop_retransmit_plan(0.25, 5);
  for (const auto& p : proto::correct_protocols()) {
    auto out = chaos::run_once(*p, plan, cfg);
    EXPECT_EQ(out.violation, chaos::ViolationClass::kNone)
        << p->name() << ": " << out.detail;
  }
}

TEST(HardenedStack, ConsistencyAndProgressHoldUnderCrashAndRecover) {
  chaos::CampaignConfig cfg = hardened_campaign();
  FaultPlan plan;
  plan.name = "crash-recover";
  plan.seed = 11;
  plan.rules.push_back(
      fault::crash_rule(ProcessId(0), /*at=*/150, /*restart_at=*/400,
                        /*lossy=*/true));
  for (const auto& p : proto::correct_protocols()) {
    auto out = chaos::run_once(*p, plan, cfg);
    EXPECT_EQ(out.violation, chaos::ViolationClass::kNone)
        << p->name() << ": " << out.detail;
  }
}

TEST(HardenedStack, DuplicateDeliveryDoesNotDoubleApply) {
  obs::Registry::global().reset();
  chaos::CampaignConfig cfg = hardened_campaign();
  FaultPlan plan;
  plan.name = "duplicator";
  plan.seed = 5;
  plan.rules.push_back(fault::duplicate_rule(0.5));
  for (const auto& p : proto::correct_protocols()) {
    auto out = chaos::run_once(*p, plan, cfg);
    EXPECT_EQ(out.violation, chaos::ViolationClass::kNone)
        << p->name() << ": " << out.detail;
  }
  // The dedup table actually absorbed repeats — the run was not vacuous.
  EXPECT_GT(obs::Registry::global().value("server.dedup.hits"), 0u);
}

// --- retransmit backoff state ----------------------------------------------

TEST(RetransmitBackoff, StallStateResetsWhenTransactionCompletes) {
  // Regression pin: the backoff ladder (attempt count, recorded sends) must
  // be torn down in the completion path, so a transaction that needed
  // retransmissions cannot leak stall state into the next one.
  obs::Registry::global().reset();
  ClusterConfig cfg = hardened_cluster();
  cfg.client_retransmit_after = 4;
  BuiltCluster b = build("cops", cfg);

  // Drops with NO engine retransmission: only the client's own retransmit
  // path can recover, so the ladder is guaranteed to be exercised.
  FaultPlan plan;
  plan.name = "client-recovers";
  plan.seed = 9;
  plan.rules.push_back(fault::drop_rule(0.3, /*retransmit_after=*/0));
  FaultSession session(plan, {b.cluster.view.servers, b.cluster.clients});

  wl::WorkloadConfig wcfg;
  wcfg.num_txs = 10;
  wcfg.seed = 2;
  auto result = wl::run_workload_concurrent_faulted(
      b.sim, *b.protocol, b.cluster, b.ids, wcfg, session);
  ASSERT_EQ(result.incomplete, 0u);
  ASSERT_GT(obs::Registry::global().value("client.backoff.retransmits"), 0u)
      << "no client ever retransmitted; the pin is vacuous";

  // Every client is idle again: attempt counter back at 0, recorded sends
  // cleared (digest field is "rtx <after>/<stall>/<sends>/a<attempt>/t...").
  for (auto c : b.cluster.clients) {
    std::string digest = b.sim.process_as<const ClientBase>(c).state_digest();
    EXPECT_NE(digest.find("/a0/t"), std::string::npos) << digest;
  }
}

}  // namespace
}  // namespace discs
