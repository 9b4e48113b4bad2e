// Eiger-style causal store with write transactions (Lloyd et al.,
// NSDI'13), adapted to the partitioned model.
//
// Table 1 row: R <= 3, V <= 2, nonblocking, multi-object write
// transactions, causal consistency.
//
// Writes run server-coordinated 2PC; prepared versions stay invisible until
// commit.  A read-only transaction is optimistic: round 1 reads committed
// versions plus dependency/sibling *references* (metadata, not values);
// if the reader caught a transaction half-committed (a sibling reference
// points past what it read elsewhere), round 2 re-fetches "at least" the
// needed version.  If that version is still mid-commit at its server, the
// round-2 reply discloses the pending value alongside the old one (the
// two-value reply) and round 3 asks the write's coordinator for its commit
// status — every reply is immediate, so reads never block.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::eiger {

class Client : public ClientBase {
 public:
  Client(ProcessId id, ClusterView view) : ClientBase(id, std::move(view)) {}

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Client>(*this);
  }

 protected:
  void start_tx(sim::StepContext& ctx, const TxSpec& spec) override;
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  std::string proto_digest() const override;

 private:
  void after_round1(sim::StepContext& ctx);
  void maybe_complete(sim::StepContext& ctx);

  clk::HybridLogicalClock hlc_;
  std::map<ObjectId, kv::Dep> context_;

  ShardRouter router_r1_;  ///< round-1 cross-shard fan-out/join
  ShardRouter router_r2_;  ///< round-2 re-fetch fan-out/join
  std::map<ObjectId, ReadItem> got_;
  std::map<ObjectId, clk::HlcTimestamp> need_;
  /// Pending candidates under round-3 status checks: object -> candidate.
  struct Candidate {
    TxId wtx;
    ValueId value;
    ProcessId coordinator;
  };
  std::map<ObjectId, Candidate> candidates_;
  std::size_t queries_outstanding_ = 0;
};

class Server : public ServerBase {
 public:
  using ServerBase::ServerBase;

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  std::string proto_digest() const override;

 private:
  struct PendingWrite {
    std::vector<std::pair<ObjectId, ValueId>> local_writes;
    std::vector<kv::Dep> deps;
    std::vector<kv::Sibling> all_writes;  ///< full write set as references
    clk::HlcTimestamp proposed;
    ProcessId coordinator;
  };
  struct CoordState {
    ProcessId client;
    std::set<std::uint64_t> participants;  ///< remote 2PC participants
    std::set<std::uint64_t> awaiting;      ///< acks still outstanding
    clk::HlcTimestamp max_proposed;
  };

  void apply_commit(TxId tx, clk::HlcTimestamp cts);

  clk::HybridLogicalClock hlc_;
  std::map<TxId, PendingWrite> pending_;
  std::map<TxId, CoordState> coordinating_;
  std::map<TxId, clk::HlcTimestamp> committed_;  ///< coordinator's record
};

class Eiger : public Protocol {
 public:
  std::string name() const override { return "eiger"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::eiger
