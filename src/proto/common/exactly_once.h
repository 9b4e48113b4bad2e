// Exactly-once session layer.
//
// The retransmit hook (ClusterConfig::client_retransmit_after) and the fault
// layer's `duplicate` rules both deliver the same protocol request to a
// server more than once.  Most protocol handlers are not idempotent: a
// repeated WriteRequest re-runs a 2PC, a repeated PrepareAck double-
// decrements a pending count.  This layer makes duplicates harmless without
// touching any protocol handler:
//
//  * Senders (clients always; servers for their server->server traffic)
//    wrap every non-idempotent payload in a SessionEnvelope carrying a
//    ReqId = (sender, session, seq).  Wrapping happens in a post-pass over
//    StepContext::outgoing_mut() after the protocol handler ran, so
//    protocol code is unaware of the layer.
//  * Receivers (ServerBase) keep a DedupTable.  The first copy of an
//    envelope executes normally and opens a pending entry; the reply the
//    server later sends is attributed to that entry by matching
//    (destination, Payload::tx_hint) and memoized.  Further copies are
//    never re-executed: if the reply is memoized it is re-sent verbatim
//    (same ReqIds, since memoization runs after the server's own wrap
//    pass), otherwise the duplicate is dropped because the original
//    execution is still in flight and will answer.
//  * `stable_before` on each envelope is the sender's acknowledgement
//    watermark: every seq below it is fully answered, so the receiver
//    prunes those entries.  A bounded eviction window caps the table even
//    for senders that never advance their watermark.
//
// Everything here is deterministic and part of the process state digest
// when enabled; with ClusterConfig::exactly_once == false (the default) no
// envelope is ever created and digests stay byte-identical to builds
// without the layer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proto/common/cluster.h"
#include "proto/common/payloads.h"
#include "util/flat_map.h"

namespace discs::proto {

/// Stateless deterministic jitter: a splitmix64-style mix of four words.
/// Used for retransmit backoff so that clients desynchronize without
/// carrying RNG state (which would break the "equal digests => identical
/// future behavior" contract: every input below is digest-visible).
std::uint64_t eo_jitter(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                        std::uint64_t d);

/// Sender half: mints ReqIds and wraps queued sends.
class SessionStamper {
 public:
  std::uint64_t session() const { return session_; }
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t stable_before() const { return stable_before_; }

  /// Declares every seq issued so far fully answered; receivers may prune.
  /// Clients call this when a transaction completes (one transaction at a
  /// time, so all outstanding requests belong to the completed one).
  void mark_all_stable() { stable_before_ = next_seq_; }

  /// Volatile-state loss: start a fresh session incarnation.  Receivers
  /// treat envelopes from older incarnations as stale duplicates.
  void new_incarnation() {
    ++session_;
    next_seq_ = 0;
    stable_before_ = 0;
  }

  /// Wraps, in place, every entry of `outgoing` that is destined to a
  /// server of `view`, is not idempotent and is not already an envelope.
  void wrap_outgoing(
      ProcessId self, const ClusterView& view,
      std::vector<std::pair<ProcessId, std::shared_ptr<const sim::Payload>>>&
          outgoing);

  std::string digest() const;

 private:
  std::uint64_t session_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t stable_before_ = 0;
};

/// Receiver half: per-sender dedup with memoized-reply replay.
class DedupTable {
 public:
  using Send = std::pair<ProcessId, std::shared_ptr<const sim::Payload>>;

  enum class Verdict {
    kExecute,    ///< first copy: dispatch the inner payload
    kDuplicate,  ///< repeat of a known (or pruned) request
    kStale,      ///< from a session incarnation older than the latest seen
  };

  struct Admission {
    Verdict verdict = Verdict::kExecute;
    /// For kDuplicate: the memoized reply sends to replay.  Null when the
    /// original execution has not answered yet (it will) or the entry was
    /// already pruned (the sender acknowledged the answer).
    const std::vector<Send>* replay = nullptr;
  };

  /// Classifies one envelope.  Also applies the envelope's stable_before
  /// watermark (pruning answered entries below it) and, on kExecute,
  /// records the pending entry the eventual reply will be memoized into.
  Admission admit(const SessionEnvelope& env);

  /// Attributes this step's outgoing sends to pending entries: a
  /// non-idempotent send to process P with a valid tx_hint answers the
  /// oldest unanswered entry from P with the same transaction.  Indices
  /// listed in `skip` (replayed sends) are ignored.  Call after the
  /// server's own wrap pass so memoized envelopes re-send identical seqs.
  void memoize_replies(const std::vector<Send>& outgoing,
                       const std::vector<std::size_t>& skip);

  /// Total entries across all senders (the server.dedup.table_size gauge).
  std::size_t size() const;

  /// Drops all state (volatile loss on a lossy crash without a journal).
  void clear() { senders_.clear(); }

  /// Drops the *unanswered* entries only.  Called on a journaled crash:
  /// answered entries (memoized replies) are durable, but a pending entry
  /// stands for an in-flight execution that died with the process — keeping
  /// it would suppress the sender's retransmit forever.  Forgetting it lets
  /// the retransmit re-execute after restart.
  void forget_unanswered();

  std::string digest() const;

 private:
  struct Entry {
    std::uint64_t seq = 0;
    TxId tx = TxId::invalid();  ///< tx_hint of the inner request
    bool answered = false;
    std::vector<Send> sends;  ///< memoized reply, post-wrap
  };
  struct SenderRec {
    std::uint64_t session = 0;
    std::uint64_t stable_before = 0;
    std::deque<Entry> entries;  ///< ascending seq
  };

  /// Entries kept per sender even when the watermark never advances
  /// (server->server sessions acknowledge implicitly); oldest *answered*
  /// entries beyond this are evicted.
  static constexpr std::size_t kEvictionWindow = 512;

  void prune(SenderRec& rec);

  /// Flat map: senders are few and looked up per envelope; iteration stays
  /// id-ordered so digest() bytes match the std::map it replaced.
  util::FlatMap<ProcessId, SenderRec> senders_;
};

}  // namespace discs::proto
