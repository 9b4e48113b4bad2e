// Stubborn: the protocol that materializes the troublesome execution.
//
// Stubborn supports multi-object write transactions and genuinely fast
// (one-round, nonblocking, one-value) read-only transactions, and it is
// trivially causally consistent — because it *never makes written values
// visible*.  Writes are stored invisibly and acknowledged; servers gossip
// about their pending versions forever without ever exposing them.  Reads
// always return the initial values.
//
// Stubborn therefore violates exactly one premise of Theorem 1: minimal
// progress for write-only transactions (Definition 3).  Running the
// Lemma 3 induction driver against it yields the paper's infinite execution
// alpha: at every step k some server still has to send one more message and
// the written values are still not visible.
#pragma once

#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::stubborn {

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
  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
};

class Server : public ServerBase {
 public:
  using ServerBase::ServerBase;

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  void on_tick(sim::StepContext& ctx) override;
  std::string proto_digest() const override;

 private:
  clk::HybridLogicalClock hlc_;
  std::uint64_t gossip_round_ = 0;
};

class Stubborn : public Protocol {
 public:
  std::string name() const override { return "stubborn"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override {
    return "causal (vacuously: writes never become visible)";
  }
  bool claims_fast_rot() const override { return true; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::stubborn
