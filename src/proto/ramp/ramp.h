// RAMP-Fast (Bailis et al., SIGMOD'14): scalable atomic visibility.
//
// Table 1 row: R <= 2, V <= 2, nonblocking, multi-object write
// transactions, READ ATOMICITY (weaker than causal: no cross-transaction
// dependency tracking).
//
// Writes are client-coordinated two-phase: PREPARE places a version
// (tagged with the transaction's sibling keys) at each partition; COMMIT
// makes it visible.  Reads are optimistic: round 1 fetches the latest
// committed version of each object with its sibling metadata; if the
// metadata reveals that some other object in the read set must have a
// newer version from the same transaction, round 2 fetches it BY VERSION —
// prepared-but-uncommitted versions are served in this round, which is
// what makes the repair nonblocking.
//
// RAMP guarantees that no transaction observes half of another's write
// set, but nothing about causal chains ACROSS transactions: the anomaly
// tests demonstrate an execution that RAMP admits (and the read-atomicity
// checker accepts) while COPS-SNOW prevents it and the causal checker
// rejects it.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::ramp {

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

  clk::HybridLogicalClock hlc_;
  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
  int phase_ = 0;  // writes: 1 prepare, 2 commit; reads: 1, 2
  std::map<ObjectId, ReadItem> got_;
  clk::HlcTimestamp write_ts_{};
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
    std::vector<kv::Sibling> all_writes;
    clk::HlcTimestamp ts;
  };
  std::map<TxId, PendingWrite> pending_;
  clk::HybridLogicalClock hlc_;
};

class Ramp : public Protocol {
 public:
  std::string name() const override { return "ramp"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override { return "read-atomic"; }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::ramp
