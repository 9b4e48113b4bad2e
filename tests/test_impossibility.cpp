// Tests of the theorem machinery: property monitors, visibility oracle,
// constructions and the Lemma 3 induction driver.  These are the
// machine-checked counterparts of the paper's claims.
#include <gtest/gtest.h>

#include "consistency/checkers.h"
#include "impossibility/auditor.h"
#include "impossibility/constructions.h"
#include "impossibility/induction.h"
#include "impossibility/visibility.h"
#include "proto/common/client.h"
#include "proto/naivefast/naivefast.h"
#include "proto/registry.h"
#include "sim/schedule.h"

namespace discs {
namespace {

using imposs::InductionOptions;
using imposs::InductionReport;
using proto::ClientBase;
using proto::Cluster;
using proto::ClusterConfig;
using proto::IdSource;
using proto::TxSpec;

ClusterConfig paper_cluster() {
  // The theorem's minimal setting: two servers, two objects, >= 4 clients.
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 4;
  cfg.num_objects = 2;
  return cfg;
}

TEST(Visibility, InitialValuesVisibleAtQ0) {
  auto proto = proto::protocol_by_name("naivefast");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  auto probe = imposs::probe_visibility(sim, *proto, cluster,
                                        cluster.initial_values, ids);
  EXPECT_TRUE(probe.completed);
  EXPECT_TRUE(probe.visible);
}

TEST(Visibility, UnwrittenValuesNotVisible) {
  auto proto = proto::protocol_by_name("naivefast");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  std::map<ObjectId, ValueId> fake;
  fake[cluster.view.objects[0]] = ids.next_value();  // never written
  auto probe = imposs::probe_visibility(sim, *proto, cluster, fake, ids);
  EXPECT_TRUE(probe.completed);
  EXPECT_FALSE(probe.visible);
}

TEST(Visibility, StubbornWritesNeverBecomeVisible) {
  auto proto = proto::protocol_by_name("stubborn");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  ProcessId cw = cluster.clients[0];
  TxSpec tw = ids.write_tx(cluster.view.objects);
  sim.process_as<ClientBase>(cw).invoke(tw);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(cw).has_completed(
                      tw.id);
                },
                20000);
  EXPECT_TRUE(sim.process_as<ClientBase>(cw).has_completed(tw.id));
  std::map<ObjectId, ValueId> written;
  for (const auto& [obj, v] : tw.write_set) written[obj] = v;
  auto probe = imposs::probe_visibility(sim, *proto, cluster, written, ids);
  EXPECT_TRUE(probe.completed);
  EXPECT_FALSE(probe.visible);
}

TEST(Constructions, GammaOldReturnsInitialValues) {
  // Observation 1/5: a ROT scheduled by Construction 1 from C0 (no write
  // in progress) returns the initial values.
  auto proto = proto::protocol_by_name("naivefast");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  auto run = imposs::run_gamma_old(sim, *proto, cluster,
                                   cluster.view.servers[1], ids);
  ASSERT_TRUE(run.ok) << run.note;
  ASSERT_TRUE(run.completed);
  for (const auto& [obj, v] : cluster.initial_values)
    EXPECT_EQ(run.returned[obj], v);
}

TEST(Constructions, GammaNewReturnsNewValues) {
  // Observation 2/6: after Tw has fully executed and its values are
  // visible (configuration C_v), Construction 2 returns the new values.
  auto proto = proto::protocol_by_name("naivefast");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  ProcessId cw = cluster.clients[0];
  TxSpec tw = ids.write_tx(cluster.view.objects);
  sim.process_as<ClientBase>(cw).invoke(tw);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(cw).has_completed(
                      tw.id);
                },
                20000);
  ASSERT_TRUE(sim.process_as<ClientBase>(cw).has_completed(tw.id));

  auto run = imposs::run_gamma_new(sim, *proto, cluster,
                                   cluster.view.servers[1], ids);
  ASSERT_TRUE(run.ok) << run.note;
  ASSERT_TRUE(run.completed);
  for (const auto& [obj, v] : tw.write_set) EXPECT_EQ(run.returned[obj], v);
}

TEST(Constructions, MixExhibitProducesLemma1Contradiction) {
  // The heart of the theorem: against naivefast (which really is fast and
  // really supports W), the spliced gamma execution makes a reader return
  // a mix of old and new values, which the causal checker rejects exactly
  // as Lemma 1 dictates.
  auto proto = proto::protocol_by_name("naivefast");
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, paper_cluster(), ids);
  ProcessId cw = cluster.clients[0];

  // cw first reads the initial values (configuration C0 of Figure 1) so
  // its write is causally tied to them.
  TxSpec t_in_r = ids.read_tx(cluster.view.objects);
  sim.process_as<ClientBase>(cw).invoke(t_in_r);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(cw).has_completed(
                      t_in_r.id);
                },
                20000);
  ASSERT_TRUE(sim.process_as<ClientBase>(cw).has_completed(t_in_r.id));
  sim::run_to_quiescence(sim, {}, 5000);

  TxSpec tw = ids.write_tx(cluster.view.objects);
  sim.process_as<ClientBase>(cw).invoke(tw);

  auto ex = imposs::run_mix_exhibit(sim, *proto, cluster, cw, tw,
                                    cluster.view.servers[0],
                                    cluster.view.servers[1], ids);
  ASSERT_TRUE(ex.produced) << ex.note;

  // The reader must have observed the OLD value at server 0's object and
  // the NEW value at server 1's object.
  ObjectId x0 = cluster.view.objects[0];
  ObjectId x1 = cluster.view.objects[1];
  EXPECT_EQ(ex.returned[x0], cluster.initial_values[x0]);
  EXPECT_EQ(ex.returned[x1], tw.write_set[1].second);

  auto check = cons::check_causal_consistency(ex.history);
  EXPECT_FALSE(check.ok());
  bool has_intervening = false;
  for (const auto& v : check.violations)
    has_intervening |= (v.kind == "intervening-write");
  EXPECT_TRUE(has_intervening) << check.summary();
}

TEST(Monitors, GeneralOneValueUnderPartialReplication) {
  // Definition 5(2b): with replication > 1, still only one server per
  // object may answer a reader.  Our clients read from the primary only,
  // which the monitor verifies.
  auto proto = proto::protocol_by_name("naivefast");
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 4;
  cfg.num_objects = 3;
  cfg.replication = 2;
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = proto->build(sim, cfg, ids);

  TxSpec rot = ids.read_tx(cluster.view.objects);
  std::size_t begin = sim.trace().size();
  sim.process_as<ClientBase>(cluster.clients[0]).invoke(rot);
  sim::run_fair(sim, {},
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(cluster.clients[0])
                      .has_completed(rot.id);
                },
                20000);
  auto audit = imposs::audit_rot(sim.trace(), begin, sim.trace().size(),
                                 rot.id, cluster.clients[0], cluster.view);
  EXPECT_TRUE(audit.single_server_per_object) << audit.summary();
  EXPECT_TRUE(audit.fast()) << audit.summary();
}

TEST(Induction, NaiveFastYieldsCausalViolation) {
  auto proto = proto::protocol_by_name("naivefast");
  auto report = imposs::run_induction(*proto, paper_cluster());
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kCausalViolation)
      << report.summary();
}

// A protocol whose servers silently drop writes: fast reads, W accepted at
// the API, but the write-only transaction neither completes nor becomes
// visible and no server ever communicates — the driver must report the
// outright minimal-progress violation.
namespace blackhole {

class Server : public proto::ServerBase {
 public:
  using proto::ServerBase::ServerBase;
  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override {
    if (const auto* req = m.as<proto::RotRequest>()) {
      auto reply = std::make_shared<proto::RotReply>();
      reply->tx = req->tx;
      for (auto obj : req->objects) {
        const kv::Version* v = store().latest_visible(obj);
        if (v) reply->items.push_back({obj, v->value, v->ts, {}, {}});
      }
      ctx.send(m.src, reply);
    }
    // WriteRequests vanish.
  }
  std::string proto_digest() const override { return ""; }
};

class BlackHole : public proto::Protocol {
 public:
  std::string name() const override { return "blackhole"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override { return "causal (moot)"; }
  bool claims_fast_rot() const override { return true; }
  ProcessId add_client(sim::Simulation& sim,
                       const proto::ClusterView& view) const override {
    ProcessId id = sim.next_process_id();
    sim.add_process(
        std::make_unique<proto::naivefast::Client>(id, view));
    return id;
  }

 protected:
  std::unique_ptr<proto::ServerBase> make_server(
      ProcessId id, const proto::ClusterView& view) const override {
    return std::make_unique<Server>(id, view);
  }
};

}  // namespace blackhole

TEST(Induction, DroppedWritesYieldNoProgressNoCommunication) {
  blackhole::BlackHole proto;
  auto report = imposs::run_induction(proto, paper_cluster());
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kNoProgressNoComm)
      << report.summary();
}

TEST(Induction, StubbornYieldsTroublesomeExecution) {
  auto proto = proto::protocol_by_name("stubborn");
  InductionOptions opt;
  opt.max_steps = 5;
  auto report = imposs::run_induction(*proto, paper_cluster(), opt);
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kTroublesomeExecution)
      << report.summary();
  EXPECT_EQ(report.steps.size(), 5u);
  for (const auto& s : report.steps) EXPECT_FALSE(s.values_visible_after);
}

TEST(Induction, CopsSnowRejectsWriteTransactions) {
  auto proto = proto::protocol_by_name("cops-snow");
  auto report = imposs::run_induction(*proto, paper_cluster());
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kRejectsWriteTx)
      << report.summary();
  EXPECT_TRUE(report.probe_audit.fast()) << report.probe_audit.summary();
}

TEST(Induction, CopsRejectsWriteTransactions) {
  // Plain COPS passes the benign fast probe at C0 (its second round is
  // conditional), so the driver classifies it by its missing W property.
  auto proto = proto::protocol_by_name("cops");
  auto report = imposs::run_induction(*proto, paper_cluster());
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kRejectsWriteTx)
      << report.summary();
}

class NotFastProtocols : public ::testing::TestWithParam<std::string> {};

TEST_P(NotFastProtocols, InductionFlagsMissingFastProperty) {
  auto proto = proto::protocol_by_name(GetParam());
  auto report = imposs::run_induction(*proto, paper_cluster());
  EXPECT_EQ(report.outcome, InductionReport::Outcome::kNotFastRot)
      << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Registry, NotFastProtocols,
                         ::testing::Values("wren", "gentlerain", "eiger",
                                           "fatcops", "spanner", "ramp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace discs
