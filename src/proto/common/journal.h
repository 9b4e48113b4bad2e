// Deterministic write-ahead journal for server crash recovery.
//
// Without a journal, a *lossy* crash (fault::CrashMode::kLossy) wipes a
// server's store back to its seeded baseline: every write accepted since
// build is lost.  With ClusterConfig::durable_journal on, ServerBase
// appends every store mutation here before applying it (see JournaledStore)
// and a lossy crash instead rebuilds the store by replaying the journal —
// the journal models the durable log that survives the machine losing its
// memory.
//
// The journal compacts itself: once it holds more than
// `compact_threshold` records, it snapshots the current store as its new
// replay base and drops the records (they are stable — already reflected
// in the snapshot).  Replay is then snapshot + suffix, keeping recovery
// O(threshold) instead of O(history).
//
// Everything is a deterministic value type (copyable with the process, COW
// via VersionedStore), so journaled runs keep the simulation's digest and
// trace-replay contracts.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kv/store.h"

namespace discs::proto {

struct JournalRecord {
  enum class Kind { kPut, kMakeVisible };
  Kind kind = Kind::kPut;
  ObjectId obj;
  kv::Version version;            ///< kPut: the version appended
  ValueId value;                  ///< kMakeVisible: the value revealed
  kv::ReaderSet invisible_to;     ///< kMakeVisible: reader exclusions

  std::string describe() const;
};

class Journal {
 public:
  explicit Journal(std::size_t compact_threshold = 256)
      : compact_threshold_(compact_threshold) {}

  void record_put(ObjectId obj, const kv::Version& v);
  void record_make_visible(ObjectId obj, ValueId value,
                           const kv::ReaderSet& invisible_to);

  /// Compacts when over threshold: `current` becomes the replay base and
  /// the records are truncated (counted as server.recovery.truncated).
  void maybe_compact(const kv::VersionedStore& current);

  /// Rebuilds the store: replay base (the last compaction snapshot, or a
  /// store seeded from `seeds` if never compacted) plus the journaled
  /// suffix.  Bumps server.recovery.replayed by the records replayed.
  kv::VersionedStore replay(
      const std::vector<std::pair<ObjectId, ValueId>>& seeds) const;

  std::size_t size() const { return records_.size(); }
  bool compacted() const { return has_base_; }

  std::string digest() const;

 private:
  std::size_t compact_threshold_;
  std::vector<JournalRecord> records_;
  bool has_base_ = false;
  kv::VersionedStore base_;  ///< replay base once compacted
};

/// Mutation proxy returned by ServerBase::store_mut(): exposes exactly the
/// store's two mutators, journaling each call first when a journal is
/// attached (null = journaling off, plain pass-through).  Returned by
/// value; it only borrows the store and journal.
class JournaledStore {
 public:
  JournaledStore(kv::VersionedStore& store, Journal* journal)
      : store_(store), journal_(journal) {}

  void put(ObjectId obj, kv::Version v) {
    if (journal_) journal_->record_put(obj, v);
    store_.put(obj, std::move(v));
    if (journal_) journal_->maybe_compact(store_);
  }

  bool make_visible(ObjectId obj, ValueId value,
                    kv::ReaderSet invisible_to = {}) {
    if (journal_) journal_->record_make_visible(obj, value, invisible_to);
    bool ok = store_.make_visible(obj, value, std::move(invisible_to));
    if (journal_) journal_->maybe_compact(store_);
    return ok;
  }

 private:
  kv::VersionedStore& store_;
  Journal* journal_;
};

}  // namespace discs::proto
