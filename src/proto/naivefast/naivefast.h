// NaiveFast: the strawman that "claims everything".
//
// Writes are applied immediately and visibly at each involved server; reads
// are answered locally in one computation step with one value.  NaiveFast
// therefore exhibits W + nonblocking + one-round + one-value — the exact
// combination Theorem 1 proves impossible — and consequently it is NOT
// causally consistent: the adversarial schedules built by
// src/impossibility produce executions in which a read-only transaction
// returns a mix of old and new values of a single write-only transaction,
// the machine-checked counterpart of the gamma/delta contradictions in the
// proof of Lemma 3.
#pragma once

#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::naivefast {

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
  clk::HybridLogicalClock hlc_;
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
  clk::HybridLogicalClock hlc_;
};

class NaiveFast : public Protocol {
 public:
  std::string name() const override { return "naivefast"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override {
    return "causal (falsely)";
  }
  bool claims_fast_rot() const override { return true; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::naivefast
