// Spanner-style strictly serializable store (Corbett et al., OSDI'12) on
// the simulated TrueTime substrate — the O+V+W corner of Section 3.4.
//
// Table 1 row: R = 1, V = 1, BLOCKING, multi-object write transactions,
// strict serializability.
//
// Write transactions run server-coordinated 2PC; the coordinator picks a
// commit timestamp above every proposal and above TT.now().latest, then
// commit-waits until TT.now().earliest passes it.  A read-only transaction
// picks its own read timestamp s_read = TT.now().latest at the client and
// reads every partition at s_read in a single round (O); a server whose
// safe time lags s_read HOLDS the reply — the relinquished property is
// nonblocking (N).
//
// Substitution note (DESIGN.md §2): TrueTime is simulated from virtual
// time with bounded per-process skew; Paxos replication within a partition
// is out of scope (single replica per partition), which does not affect
// the read/write round structure the paper characterizes.
#pragma once

#include <map>
#include <set>

#include "clock/clocks.h"
#include "proto/common/client.h"
#include "proto/common/server.h"

namespace discs::proto::spanner {

/// Deterministic per-process TrueTime skew within [-epsilon, +epsilon].
clk::TrueTimeSim make_truetime(ProcessId id, std::uint64_t epsilon);

class Client : public ClientBase {
 public:
  Client(ProcessId id, ClusterView view)
      : ClientBase(id, std::move(view)),
        tt_(make_truetime(id, this->view().config.tt_epsilon)) {}

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Client>(*this);
  }

 protected:
  void start_tx(sim::StepContext& ctx, const TxSpec& spec) override;
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  std::string proto_digest() const override;

 private:
  clk::TrueTimeSim tt_;
  ShardRouter router_;  ///< per-round cross-shard fan-out/join state
};

class Server : public ServerBase {
 public:
  Server(ProcessId id, ClusterView view)
      : ServerBase(id, std::move(view)),
        tt_(make_truetime(id, this->view().config.tt_epsilon)) {}

  std::unique_ptr<sim::Process> clone() const override {
    return std::make_unique<Server>(*this);
  }

  std::size_t deferred_count() const { return deferred_.size(); }

 protected:
  void on_message(sim::StepContext& ctx, const sim::Message& m) override;
  void on_tick(sim::StepContext& ctx) override;
  std::string proto_digest() const override;

 private:
  struct PendingWrite {
    std::vector<std::pair<ObjectId, ValueId>> local_writes;
    std::uint64_t proposed = 0;
  };
  struct CoordState {
    ProcessId client;
    std::set<std::uint64_t> participants;
    std::set<std::uint64_t> awaiting;
    std::uint64_t max_proposed = 0;
    bool deciding = false;      ///< all acks in, commit-waiting
    std::uint64_t commit_ts = 0;
  };
  struct DeferredRead {
    ProcessId client;
    TxId tx;
    std::vector<ObjectId> objects;
    std::uint64_t s_read = 0;
  };

  std::uint64_t safe_time(std::uint64_t now) const;
  void serve_read(sim::StepContext& ctx, const DeferredRead& r);
  void apply_commit(TxId tx, std::uint64_t ts);
  void try_finish_commits(sim::StepContext& ctx);

  clk::TrueTimeSim tt_;
  std::map<TxId, PendingWrite> pending_;
  std::map<TxId, CoordState> coordinating_;
  std::vector<DeferredRead> deferred_;
};

class Spanner : public Protocol {
 public:
  explicit Spanner() = default;

  std::string name() const override { return "spanner"; }
  bool supports_write_tx() const override { return true; }
  std::string consistency_claim() const override {
    return "strict-serializable";
  }
  bool claims_fast_rot() const override { return false; }
  ProcessId add_client(sim::Simulation& sim,
                       const ClusterView& view) const override;

 protected:
  std::unique_ptr<ServerBase> make_server(
      ProcessId id, const ClusterView& view) const override;
};

}  // namespace discs::proto::spanner
