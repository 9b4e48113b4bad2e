// FatCOPS: the N+O+W design sketched in Section 3.4.
//
// "Each write operation within a transaction must carry a) the values of
// the other objects written in the same transaction and b) information
// about all objects on which the transaction causally depends (including
// their values)."  Read replies then embed those sibling/dependency VALUES,
// letting the client assemble a causally consistent result in one
// nonblocking round — at the cost of the one-value property (V) and of a
// "prohibitively big amount of data", which bench_metadata quantifies.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::fatcops {

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
  void observe_candidate(const ReadItem& item);

  clk::HybridLogicalClock hlc_;
  /// Everything this client causally depends on, WITH values (the fat part).
  std::map<ObjectId, ReadItem> context_;

  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
  /// Best candidate seen per read object this transaction (max timestamp).
  std::map<ObjectId, ReadItem> best_;
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
  /// Embedded metadata stored per (object, value): the sibling and
  /// dependency values carried by the write.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<ReadItem>>
      embedded_;
};

class FatCops : public Protocol {
 public:
  std::string name() const override { return "fatcops"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return false; }  // violates V
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::fatcops
