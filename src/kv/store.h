// Multi-version object store used by the server implementations.
//
// Each server keeps, per object, an append-ordered chain of versions.
// Versions carry protocol metadata: an HLC timestamp, the writing
// transaction, causal dependencies, visibility state (some protocols stage
// versions invisibly until commit or old-reader checks complete) and a
// per-reader exclusion set (COPS-SNOW).
//
// The store is a value type with two-level copy-on-write, so server
// processes stay cheap to clone for configuration snapshots: copying a
// store shares the whole object map (O(1)); the first write after a copy
// clones the map but shares the individual chains (O(objects) pointer
// copies); only the chain actually written to is deep-copied.  Version
// pointers returned by the read API follow the same invalidation rule as
// before (valid until the next mutation of THIS store), and additionally
// stay valid across mutations of other stores sharing the storage.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clock/clocks.h"
#include "util/flat_map.h"
#include "util/ids.h"
#include "util/small_vec.h"

namespace discs::kv {

using discs::ObjectId;
using discs::TxId;
using discs::ValueId;
using discs::clk::HlcTimestamp;

/// Sorts `ids` ascending and drops duplicates, in place: the union of
/// reader lists gathered in any order.  TxIds come from IdSource and are
/// dense, so a bitmap over [min, max] does it in O(n + span/64); when the
/// span is much wider than the entry count it falls back to sort + unique.
void sort_unique(std::vector<TxId>& ids);

/// Ordered set of reader exclusions, stored inline for the common cases
/// (empty, one or two readers) instead of as ordered-tree heap nodes —
/// version chains are COW-cloned wholesale, so per-version node allocations
/// were a dominant clone cost.  Iteration is ascending and unique, as in an
/// ordered set, which keeps store digests byte-identical.
class ReaderSet {
 public:
  ReaderSet() = default;
  ReaderSet(std::initializer_list<TxId> ids) {
    for (TxId t : ids) insert(t);
  }
  /// The union of `ids`, given in any order and with duplicates.
  explicit ReaderSet(std::vector<TxId> ids) {
    sort_unique(ids);
    v_.assign(ids.begin(), ids.end());
  }

  void insert(TxId t) { v_.insert_sorted_unique(t); }
  std::size_t count(TxId t) const { return v_.contains_sorted(t) ? 1 : 0; }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const TxId* begin() const { return v_.begin(); }
  const TxId* end() const { return v_.end(); }

  friend bool operator==(const ReaderSet&, const ReaderSet&) = default;

 private:
  util::SmallVec<TxId, 2> v_;
};

/// A causal dependency: "this version depends on `value` of `object`,
/// written at `ts`".
struct Dep {
  ObjectId object;
  ValueId value;
  HlcTimestamp ts;

  friend bool operator==(const Dep&, const Dep&) = default;
};

/// A sibling write: another (object, value) written by the same transaction.
/// Fat-metadata protocols embed these in read replies.
struct Sibling {
  ObjectId object;
  ValueId value;

  friend bool operator==(const Sibling&, const Sibling&) = default;
};

struct Version {
  ValueId value;
  TxId tx = TxId::invalid();
  HlcTimestamp ts;
  std::vector<Dep> deps;
  std::vector<Sibling> siblings;
  bool visible = true;
  /// ROTs to which this version must never be served (COPS-SNOW old
  /// readers).
  ReaderSet invisible_to;

  std::string describe() const;
};

class VersionedStore {
 public:
  /// Appends a version to `obj`'s chain.  Chains are kept sorted by (ts,
  /// insertion order); timestamps need not be distinct across objects.
  void put(ObjectId obj, Version v);

  /// Latest visible version, skipping versions excluded for `reader`
  /// (pass TxId::invalid() for no exclusion).  Null if none.
  const Version* latest_visible(ObjectId obj,
                                TxId reader = TxId::invalid()) const;

  /// Latest visible version with ts <= `at`, honoring exclusions.  Binary
  /// search on the ts-sorted chain, then a newest-first scan over the
  /// (usually empty) unservable suffix.
  const Version* latest_visible_at(ObjectId obj, HlcTimestamp at,
                                   TxId reader = TxId::invalid()) const;

  /// Earliest visible version with ts >= `at` (dependency re-fetch: "give
  /// me something at least as new as this dependency").
  const Version* earliest_visible_from(ObjectId obj, HlcTimestamp at,
                                       TxId reader = TxId::invalid()) const;

  /// Finds the version holding `value`, visible or not.
  const Version* find_value(ObjectId obj, ValueId value) const;

  /// Marks the version holding `value` visible, moving in the readers it
  /// must stay hidden from.
  bool make_visible(ObjectId obj, ValueId value, ReaderSet invisible_to = {});

  const std::vector<Version>& chain(ObjectId obj) const;
  std::vector<ObjectId> objects() const;
  bool stores(ObjectId obj) const {
    return chains_ && chains_->count(obj) > 0;
  }

  /// True if any version of any object is still invisible (pending).
  bool has_pending() const;

  std::string digest() const;

 private:
  using Chain = std::vector<Version>;
  /// Sorted flat map: same iteration order as the std::map it replaced
  /// (digest bytes unchanged), contiguous storage so the O(objects) COW map
  /// clone is one vector copy instead of a node-tree rebuild.
  using ChainMap = util::FlatMap<ObjectId, std::shared_ptr<Chain>>;

  /// COW gates: un-share the map / one chain before mutating.  Both also
  /// invalidate the digest memo.
  ChainMap& mutable_map();
  Chain& mutable_chain(ObjectId obj);

  /// Null means empty; copies share the map until one of them writes.
  std::shared_ptr<ChainMap> chains_;
  /// Memoized digest(): shared between copies (they describe the same
  /// state), reset by the COW gates.  Unchanged stores — the common case,
  /// since every process step re-digests under the simulation's memo —
  /// skip re-serializing every chain.
  mutable std::shared_ptr<const std::string> digest_memo_;
  static const std::vector<Version> kEmpty;
};

}  // namespace discs::kv
