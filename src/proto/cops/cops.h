// COPS-style causal store (Lloyd et al., SOSP'11), adapted to the
// partitioned single-copy model of the paper.
//
// Table 1 row: R <= 2, V <= 2, nonblocking, NO multi-object write
// transactions, causal consistency.
//
// Writes are single-object and carry the client's causal context as
// dependency metadata.  Read-only transactions take one round
// optimistically; if the returned versions are mutually inconsistent (some
// returned version depends on a newer version of another returned object),
// the client issues a second round re-fetching the affected objects "at
// least as new as" the dependency — the get_trans algorithm of COPS-GT.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::cops {

class Client : public ClientBase {
 public:
  Client(ProcessId id, ClusterView view) : ClientBase(id, std::move(view)) {}

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Client>(*this);
  }

  bool supports_multi_write() const override { return false; }

 protected:
  void start_tx(sim::StepContext& ctx, const TxSpec& spec) override;
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  std::string proto_digest() const override;

 private:
  void maybe_finish_round1(sim::StepContext& ctx);

  /// Causal context: per object, the newest (value, ts) this client has
  /// observed or written.
  std::map<ObjectId, kv::Dep> context_;
  clk::HybridLogicalClock hlc_;

  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
  int round_ = 1;
  std::map<ObjectId, ReadItem> round1_;  ///< round-1 answers per object
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

class Cops : public Protocol {
 public:
  std::string name() const override { return "cops"; }
  bool supports_write_tx() const override { return false; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::cops
