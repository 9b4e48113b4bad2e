// GentleRain-style causal store (Du et al., SOCC'14), adapted to the
// partitioned model.
//
// Table 1 row: R = 2, V = 1, BLOCKING, no multi-object write transactions,
// causal consistency.
//
// Single-object writes are timestamped with the server clock.  Servers
// gossip their clocks; the minimum is the Global Stable Time (GST).  A
// read-only transaction fetches a snapshot in round 1 and reads at it in
// round 2.  Because there is no client-side write cache, read-your-writes
// forces the snapshot up to the client's own last write timestamp, which
// may be AHEAD of a server's GST view — in that case the server holds the
// reply until its GST catches up.  That deferred reply is the relinquished
// property: nonblocking (N).
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::gentlerain {

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
  clk::HybridLogicalClock hlc_;
  clk::HlcTimestamp dep_ts_{};  ///< max timestamp observed or written
  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
  int phase_ = 0;
  clk::HlcTimestamp snapshot_{};
  std::map<ObjectId, ReadItem> got_;
};

class Server : public ServerBase {
 public:
  Server(ProcessId id, ClusterView view);

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

  clk::HlcTimestamp gst_view() const;
  /// Read requests currently held back waiting for GST (blocking monitor
  /// probes this too).
  std::size_t deferred_count() const { return deferred_.size(); }

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  void on_tick(sim::StepContext& ctx) override;
  std::string proto_digest() const override;

 private:
  struct DeferredRead {
    ProcessId client;
    TxId tx;
    int round;
    std::vector<ObjectId> objects;
    clk::HlcTimestamp snapshot;
  };

  void serve_read(sim::StepContext& ctx, const DeferredRead& r);

  clk::HybridLogicalClock hlc_;
  std::vector<clk::HlcTimestamp> stables_;
  std::vector<DeferredRead> deferred_;
  std::size_t gossip_interval_;
  std::uint64_t ticks_ = 0;
  clk::HlcTimestamp last_gossiped_{};
};

class GentleRain : public Protocol {
 public:
  std::string name() const override { return "gentlerain"; }
  bool supports_write_tx() const override { return false; }
  std::string consistency_claim() const override { return "causal"; }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::gentlerain
