// Client base class.
//
// The harness invokes transactions via invoke(); the client starts executing
// the transaction at its next computation step (the paper's client
// "initiates" the transaction by taking steps).  Protocol subclasses
// implement start_tx / on_message; the base class records the operation
// history (invocations, returned values, completion) used by the
// consistency checkers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "history/history.h"
#include "proto/common/backoff.h"
#include "proto/common/cluster.h"
#include "proto/common/exactly_once.h"
#include "proto/common/payloads.h"
#include "sim/process.h"

namespace discs::proto {

/// Cross-shard fan-out/join bookkeeping for one round of a transaction.
///
/// Every protocol client runs the same loop: group the round's objects by
/// routing server (the shard primary), send one request per server, then
/// hold the transaction open until each of those servers has replied.
/// ShardRouter owns that loop's state; protocols keep only the round
/// *payloads* and *semantics*.  The awaited set renders exactly like the
/// per-protocol `awaiting_` sets it replaced (join of sorted raw ids), so
/// protocol digests are byte-identical to pre-router builds.
class ShardRouter {
 public:
  /// Routes `objects` through group_by_primary and sends
  /// `make(server, objs)` to each involved server, marking it awaited.
  /// One message per shard-group primary, objects in request order.
  template <class MakeReq>
  void fan_out(sim::StepContext& ctx, const ClusterView& view,
               const std::vector<ObjectId>& objects, MakeReq&& make) {
    for (auto& [server, objs] : group_by_primary(view, objects)) {
      ctx.send(server, make(server, std::move(objs)));
      expect(server);
    }
  }

  /// Sends one request outside the grouped pattern (single-primary writes,
  /// status probes) and awaits its sender.
  void send(sim::StepContext& ctx, ProcessId server,
            std::shared_ptr<const sim::Payload> payload) {
    ctx.send(server, std::move(payload));
    expect(server);
  }

  /// Marks `server` as owing a reply for the current round.
  void expect(ProcessId server) { awaiting_.insert(server.value()); }

  /// Records `src`'s reply; true when the round has joined (every awaited
  /// server has answered).
  bool ack(ProcessId src) {
    awaiting_.erase(src.value());
    return awaiting_.empty();
  }

  bool joined() const { return awaiting_.empty(); }
  std::size_t pending() const { return awaiting_.size(); }
  void reset() { awaiting_.clear(); }

  /// The awaited raw ids, for protocol digests (sorted, as the replaced
  /// per-protocol sets were).
  const std::set<std::uint64_t>& awaiting() const { return awaiting_; }

 private:
  std::set<std::uint64_t> awaiting_;
};

class ClientBase : public sim::Process {
 public:
  /// Arms the timeout/retransmit hook for lossy networks (src/fault) with
  /// base `steps` = the view's ClusterConfig::client_retransmit_after:
  /// when an active transaction has neither received nor sent anything for
  /// long enough, the client re-sends every message it has sent for that
  /// transaction so far.  The stall threshold starts at `steps` and backs
  /// off exponentially per consecutive retransmit (doubling, capped at
  /// 64x) plus deterministic jitter derived from digest-visible state
  /// (exactly_once.h's eo_jitter) — no RNG state, so the digest contract
  /// holds.  Any traffic resets the ladder.  0 (the default) disables the
  /// hook and leaves behavior and digests byte-identical to a client
  /// without it.
  ///
  /// With ClusterConfig::exactly_once, re-sent requests carry the same
  /// SessionEnvelope identity and servers suppress re-execution, making
  /// this hook unconditionally safe for every protocol.  Without the
  /// session layer, duplicates reach protocol handlers and the old caveat
  /// applies: enable only for duplicate-tolerant protocols (the
  /// engine-level Simulation::retransmit is exactly-once and always safe).
  /// The tick domain is the caller's: the simulator counts stalled steps,
  /// the rt backend fires one empty step per wall-clock retransmit period —
  /// both drive the same BackoffLadder (proto/common/backoff.h).
  ClientBase(ProcessId id, ClusterView view);

  /// Harness API: schedules `spec` to start at this client's next step.
  /// A client executes one transaction at a time.  Throws CheckFailure if
  /// the spec is a multi-object write transaction and the protocol does not
  /// support those (the W property).
  void invoke(const TxSpec& spec);

  /// The W property: whether this protocol's transactions may write more
  /// than one object.
  virtual bool supports_multi_write() const { return true; }

  bool idle() const { return !active_.has_value(); }
  bool has_completed(TxId tx) const { return completed_.count(tx) > 0; }
  /// Values returned for the reads of a completed transaction.
  std::map<ObjectId, ValueId> result_of(TxId tx) const;

  const hist::History& local_history() const { return history_; }

  // --- sim::Process ---
  void on_step(sim::StepContext& ctx,
               const sim::MessageVec& inbox) final;
  std::string state_digest() const final;
  /// Lossy crash: the session identity is volatile, so start a new
  /// incarnation — servers then treat the old incarnation's envelopes as
  /// stale instead of confusing them with post-crash requests.
  void on_crash() override;

 protected:
  /// Begin executing the active transaction: typically fan out requests.
  virtual void start_tx(sim::StepContext& ctx, const TxSpec& spec) = 0;
  /// Handle one incoming message.
  virtual void on_message(sim::StepContext& ctx, const sim::Message& m) = 0;
  /// Called on steps with no pending invocation (for retries/timers).
  virtual void on_idle_step(sim::StepContext&) {}
  /// Protocol-specific part of the state digest.
  virtual std::string proto_digest() const = 0;

  // --- helpers for subclasses ---
  const ClusterView& view() const { return view_; }
  bool has_active() const { return active_.has_value() && started_; }
  const TxSpec& active_spec() const;
  /// Records the value returned for one read of the active transaction.
  void deliver_read(ObjectId obj, ValueId value);
  bool all_reads_delivered() const;
  /// Completes the active transaction and records it in the history.
  void complete_active(sim::StepContext& ctx);

 private:
  ClusterView view_;
  std::optional<TxSpec> active_;
  bool started_ = false;
  std::uint64_t invoke_seq_ = 0;
  int max_rot_round_ = 0;  ///< highest RotRequest round sent for active tx
  /// Request waves noted for the active transaction (record_spans only).
  /// Not part of state_digest: span recording must not perturb digests.
  std::size_t span_waves_ = 0;
  std::map<ObjectId, ValueId> read_results_;
  std::map<TxId, std::map<ObjectId, ValueId>> completed_;
  hist::History history_;
  /// Retransmit hook state (inert while the ladder's base is 0).  The
  /// arithmetic lives in BackoffLadder, shared with the rt backend's
  /// wall-clock timers; the digest renders the ladder fields byte-for-byte
  /// as before the factoring (pinned by test_hotpath_identity).
  BackoffLadder ladder_;
  std::vector<std::pair<ProcessId, std::shared_ptr<const sim::Payload>>>
      tx_sends_;  ///< every send of the active transaction, for re-sending
  /// Exactly-once sender state (inert unless view_.config.exactly_once).
  SessionStamper stamper_;
};

/// Merges the local histories of the given clients with the initial-value
/// declarations into one checkable history.
hist::History collect_history(const sim::Simulation& sim,
                              const std::vector<ProcessId>& clients,
                              const std::map<ObjectId, ValueId>& initial);

}  // namespace discs::proto
