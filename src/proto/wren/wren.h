// Wren (Spirovska et al., DSN'18): the N+V+W corner of Section 3.4.
//
// Multi-object write transactions commit through client-coordinated 2PC
// with HLC timestamps.  Servers continuously exchange their "local stable
// time" (just below the earliest pending prepare); the minimum across
// servers is the Global Stable Time (GST): every version with ts <= GST is
// final at every partition.
//
// A read-only transaction takes TWO rounds — the relinquished property is
// one-roundtrip (O): round 1 fetches a stable snapshot timestamp from one
// server (a message carrying no values), round 2 reads each object at that
// snapshot.  Both rounds are nonblocking and one-value.  Clients cache
// their own not-yet-stable writes to preserve read-your-writes.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::wren {

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
  void finish_reads(sim::StepContext& ctx);

  clk::HybridLogicalClock hlc_;
  /// Own writes not yet known stable: object -> (value, commit ts).
  std::map<ObjectId, std::pair<ValueId, clk::HlcTimestamp>> own_cache_;
  clk::HlcTimestamp last_snapshot_{};

  // Per-transaction scratch state.
  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
  int phase_ = 0;  ///< reads: 1=snapshot,2=read; writes: 1=prepare,2=commit
  clk::HlcTimestamp snapshot_{};
  std::map<ObjectId, ReadItem> got_;
  clk::HlcTimestamp max_proposed_{};
};

class Server : public ServerBase {
 public:
  Server(ProcessId id, ClusterView view);

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

  /// This server's view of the Global Stable Time (min over all servers'
  /// last known local stable times).
  clk::HlcTimestamp gst_view() const;

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  void on_tick(sim::StepContext& ctx) override;
  std::string proto_digest() const override;

 private:
  struct PendingTx {
    std::vector<std::pair<ObjectId, ValueId>> writes;  ///< stored here
    clk::HlcTimestamp proposed;
  };

  clk::HlcTimestamp local_stable() const;

  clk::HybridLogicalClock hlc_;
  std::map<TxId, PendingTx> pending_;
  std::vector<clk::HlcTimestamp> stables_;  ///< last heard per server index
  std::size_t gossip_interval_;
  std::uint64_t ticks_ = 0;
  std::uint64_t gossip_round_ = 0;
  /// Stable time last broadcast; gossip is sent only once the local stable
  /// has advanced materially past it, bounding background traffic.
  clk::HlcTimestamp last_gossiped_{};
};

class Wren : public Protocol {
 public:
  std::string name() const override { return "wren"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::wren
