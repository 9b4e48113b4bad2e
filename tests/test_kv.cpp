#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kv/store.h"
#include "proto/common/journal.h"

namespace discs::kv {
namespace {

Version v(std::uint64_t value, std::uint64_t phys, bool visible = true) {
  Version out;
  out.value = ValueId(value);
  out.ts = {phys, 0};
  out.visible = visible;
  return out;
}

TEST(Store, LatestVisibleSkipsPendingAndHidden) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 2, /*visible=*/false));
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(1));

  Version hidden = v(3, 3);
  hidden.invisible_to.insert(TxId(7));
  s.put(x, hidden);
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(3));
  EXPECT_EQ(s.latest_visible(x, TxId(7))->value, ValueId(1));
  EXPECT_EQ(s.latest_visible(x, TxId(8))->value, ValueId(3));
}

TEST(Store, SnapshotReads) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 5));
  s.put(x, v(3, 9));
  EXPECT_EQ(s.latest_visible_at(x, {5, 0})->value, ValueId(2));
  EXPECT_EQ(s.latest_visible_at(x, {4, 99})->value, ValueId(1));
  EXPECT_EQ(s.latest_visible_at(x, {100, 0})->value, ValueId(3));
  EXPECT_EQ(s.latest_visible_at(x, {0, 0}), nullptr);
}

TEST(Store, EarliestFrom) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 5));
  EXPECT_EQ(s.earliest_visible_from(x, {2, 0})->value, ValueId(2));
  EXPECT_EQ(s.earliest_visible_from(x, {1, 0})->value, ValueId(1));
  EXPECT_EQ(s.earliest_visible_from(x, {6, 0}), nullptr);
}

TEST(Store, OutOfOrderInsertKeepsTsOrder) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(2, 5));
  s.put(x, v(1, 1));  // arrives late
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(2));
  EXPECT_EQ(s.chain(x).front().value, ValueId(1));
}

TEST(Store, MakeVisibleWithExclusions) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 2, /*visible=*/false));
  EXPECT_TRUE(s.has_pending());
  EXPECT_TRUE(s.make_visible(x, ValueId(2), {TxId(5)}));
  EXPECT_FALSE(s.has_pending());
  EXPECT_EQ(s.latest_visible(x, TxId(5))->value, ValueId(1));
  EXPECT_EQ(s.latest_visible(x)->value, ValueId(2));
  EXPECT_FALSE(s.make_visible(x, ValueId(99)));
  EXPECT_FALSE(s.make_visible(ObjectId(42), ValueId(1)));
}

TEST(Store, FindValueAndObjects) {
  VersionedStore s;
  s.put(ObjectId(0), v(1, 1));
  s.put(ObjectId(1), v(2, 1));
  EXPECT_NE(s.find_value(ObjectId(0), ValueId(1)), nullptr);
  EXPECT_EQ(s.find_value(ObjectId(0), ValueId(2)), nullptr);
  EXPECT_EQ(s.objects().size(), 2u);
  EXPECT_TRUE(s.stores(ObjectId(1)));
  EXPECT_FALSE(s.stores(ObjectId(9)));
}

std::vector<TxId> ids(std::initializer_list<std::uint64_t> raw) {
  std::vector<TxId> out;
  for (auto r : raw) out.emplace_back(r);
  return out;
}

std::vector<TxId> contents(const ReaderSet& r) {
  return {r.begin(), r.end()};
}

// What sort_unique must produce: the ascending, duplicate-free union.
std::vector<TxId> reference_union(std::vector<TxId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

TEST(SortUnique, EmptyAndSingle) {
  std::vector<TxId> empty;
  sort_unique(empty);
  EXPECT_TRUE(empty.empty());

  auto one = ids({42});
  sort_unique(one);
  EXPECT_EQ(one, ids({42}));
}

TEST(SortUnique, HeavyDuplicates) {
  std::vector<TxId> v;
  for (int round = 0; round < 50; ++round)
    for (std::uint64_t t : {9, 3, 7, 3, 5}) v.emplace_back(t);
  sort_unique(v);
  EXPECT_EQ(v, ids({3, 5, 7, 9}));
}

TEST(SortUnique, AlreadySortedUnchanged) {
  auto v = ids({1, 2, 4, 8, 16, 17, 18, 100});
  const auto before = v;
  sort_unique(v);
  EXPECT_EQ(v, before);
}

// Dense ids (the bitmap branch) and ids spread far wider than their count
// (the sort fallback) must both give the reference union.
TEST(SortUnique, DenseAndSparseBranchesAgree) {
  std::vector<TxId> dense, sparse;
  for (std::uint64_t i = 0; i < 500; ++i) {
    dense.emplace_back(1000 + (i * 37) % 300);
    sparse.emplace_back(1000 + ((i * 37) % 300) * 1'000'000'007ull);
  }
  for (auto* v : {&dense, &sparse}) {
    const auto expected = reference_union(*v);
    sort_unique(*v);
    EXPECT_EQ(*v, expected);
    EXPECT_EQ(v->size(), 300u);
  }

  // Same set of ids either way: the branch must not change the sequence.
  std::vector<TxId> wide = ids({5, 3, 5, 1});
  wide.emplace_back(TxId::kInvalid - 1);
  std::vector<TxId> expected = ids({1, 3, 5});
  expected.emplace_back(TxId::kInvalid - 1);
  sort_unique(wide);
  EXPECT_EQ(wide, expected);
}

TEST(ReaderSet, BracedListAndVectorConstructorsSortAndDedup) {
  ReaderSet braced{TxId(9), TxId(2), TxId(9)};
  EXPECT_EQ(contents(braced), ids({2, 9}));
  ReaderSet from_vec(ids({9, 2, 9, 2}));
  EXPECT_EQ(braced, from_vec);
  EXPECT_EQ(from_vec.count(TxId(2)), 1u);
  EXPECT_EQ(from_vec.count(TxId(3)), 0u);
}

TEST(Store, MakeVisibleMovesReaderSet) {
  VersionedStore s;
  ObjectId x(0);
  s.put(x, v(1, 1));
  s.put(x, v(2, 2, /*visible=*/false));
  ReaderSet hidden(ids({8, 6, 4, 6}));
  EXPECT_TRUE(s.make_visible(x, ValueId(2), std::move(hidden)));
  EXPECT_EQ(contents(s.chain(x).back().invisible_to), ids({4, 6, 8}));
  for (std::uint64_t r : {4, 6, 8})
    EXPECT_EQ(s.latest_visible(x, TxId(r))->value, ValueId(1));
  EXPECT_EQ(s.latest_visible(x, TxId(5))->value, ValueId(2));
}

TEST(Journal, ReplayReproducesHiddenSets) {
  VersionedStore live;
  proto::Journal journal(/*compact_threshold=*/1000);
  proto::JournaledStore mut(live, &journal);
  const std::vector<std::pair<ObjectId, ValueId>> seeds = {
      {ObjectId(0), ValueId(100)}};
  for (const auto& [obj, value] : seeds) live.put(obj, v(value.value(), 0));

  mut.put(ObjectId(0), v(1, 1, /*visible=*/false));
  mut.put(ObjectId(0), v(2, 2, /*visible=*/false));
  EXPECT_TRUE(mut.make_visible(ObjectId(0), ValueId(1), {TxId(3)}));
  EXPECT_TRUE(mut.make_visible(ObjectId(0), ValueId(2),
                               ReaderSet(ids({7, 5, 7, 3}))));

  const VersionedStore replayed = journal.replay(seeds);
  EXPECT_EQ(replayed.digest(), live.digest());
  EXPECT_EQ(contents(replayed.chain(ObjectId(0)).back().invisible_to),
            ids({3, 5, 7}));
}

}  // namespace
}  // namespace discs::kv
