// Server base class: owns the versioned store for its object set.
//
// Two optional robustness layers hang off the cluster view:
//  * exactly_once — incoming SessionEnvelopes are deduplicated (repeats
//    replay the memoized reply instead of re-executing) and the server's
//    own server->server sends are wrapped with its session identity.
//  * durable_journal — every store mutation is journaled; a lossy crash
//    replays the journal instead of wiping to the seeded baseline.
// Both are invisible to protocol subclasses: on_message always sees the
// inner payload, and store_mut() hands out a proxy with the same put /
// make_visible surface the store has.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kv/store.h"
#include "proto/common/cluster.h"
#include "proto/common/exactly_once.h"
#include "proto/common/journal.h"
#include "sim/process.h"

namespace discs::proto {

class ServerBase : public sim::Process {
 public:
  ServerBase(ProcessId id, ClusterView view);

  /// Seeds an initial value (visible, timestamp {0,0}, the paper's x_in).
  /// Called by Protocol::build before any client runs.  Seeds are the
  /// journal's replay floor, not journal records.
  void seed(ObjectId obj, ValueId value);

  const kv::VersionedStore& store() const { return store_; }
  bool stores(ObjectId obj) const;

  // --- sim::Process ---
  void on_step(sim::StepContext& ctx,
               const sim::MessageVec& inbox) final;
  std::string state_digest() const final;

  /// Lossy crash (src/fault).  Without a journal the store falls back to
  /// the seeded initial values — every write accepted since build is lost,
  /// as if the machine lost its disk — and the dedup/session state is lost
  /// with it.  With ClusterConfig::durable_journal the store is rebuilt by
  /// replaying the journal, and the dedup table and session counters ride
  /// in the same durability domain (so recovery cannot double-apply a
  /// request the pre-crash server already executed).  A recovering
  /// (non-lossy) crash never calls this: the whole process state is the
  /// durable state it restarts from.
  void on_crash() override;

 protected:
  virtual void on_message(sim::StepContext& ctx, const sim::Message& m) = 0;
  /// Called once per step after message processing (gossip, deferred work).
  virtual void on_tick(sim::StepContext&) {}
  virtual std::string proto_digest() const = 0;

  const ClusterView& view() const { return view_; }
  /// Mutation handle: journals each put/make_visible when the journal
  /// layer is on, plain pass-through otherwise.
  JournaledStore store_mut() {
    return JournaledStore(store_,
                          view_.config.durable_journal ? &journal_ : nullptr);
  }
  std::size_t my_index() const { return view_.shards.server_index(id()); }

 private:
  ClusterView view_;
  kv::VersionedStore store_;
  /// The seed() calls made at build time, replayed by a lossy on_crash.
  std::vector<std::pair<ObjectId, ValueId>> seeded_;
  /// Exactly-once layer (inert unless view_.config.exactly_once).
  DedupTable dedup_;
  SessionStamper stamper_;
  /// Write-ahead journal (inert unless view_.config.durable_journal).
  Journal journal_;
};

}  // namespace discs::proto
