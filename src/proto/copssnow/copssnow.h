// COPS-SNOW (Lu et al., OSDI'16): one-round, nonblocking, one-value
// read-only transactions under causal consistency — the N+O+V corner of
// Section 3.4.  The price, exactly as Theorem 1 dictates, is the W
// property: only single-object writes are supported.
//
// Mechanism: every read-only transaction has an id; servers log which ROTs
// were served which version of each object.  Before making a new version
// visible, its server queries the servers of the version's causal
// dependencies for the ROTs that read *older* versions of those
// dependencies ("old readers"); the new version is then made visible to
// everyone except those ROTs, so an old reader keeps observing the
// pre-write snapshot and causality is never violated in one round.
#pragma once

#include <map>
#include <vector>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::copssnow {

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
  std::map<ObjectId, kv::Dep> context_;
  clk::HybridLogicalClock hlc_;
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
  std::string proto_digest() const override;

 private:
  struct PendingWrite {
    ObjectId object;
    ValueId value;
    ProcessId client;
    std::size_t replies_outstanding = 0;
    /// Gathered unsorted, with duplicates; unioned at finalize_write.
    std::vector<TxId> old_readers;
    clk::HlcTimestamp ts;
  };

  /// Appends to `out` the ROTs that read versions of `object` older than
  /// `ts`, in log order.
  void old_readers_of(ObjectId object, clk::HlcTimestamp ts,
                      std::vector<TxId>& out) const;
  void finalize_write(sim::StepContext& ctx, TxId wtx);

  clk::HybridLogicalClock hlc_;
  /// Per object: log of (reader ROT, version timestamp served).
  std::map<ObjectId, std::vector<std::pair<TxId, clk::HlcTimestamp>>> served_;
  std::map<TxId, PendingWrite> pending_;
};

class CopsSnow : public Protocol {
 public:
  std::string name() const override { return "cops-snow"; }
  bool supports_write_tx() const override { return false; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return true; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view, std::vector<ObjectId> stored,
      const ClusterConfig& cfg) const override;
};

}  // namespace discs::proto::copssnow
