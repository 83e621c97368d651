#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "ordb/bptree.h"
#include "ordb/buffer_pool.h"
#include "ordb/pager.h"

namespace xorator::ordb {
namespace {

class BPlusTreeTest : public ::testing::Test {
 protected:
  BPlusTreeTest() : pool_(&pager_, 4096) {}

  MemoryPager pager_;
  BufferPool pool_;
};

TEST_F(BPlusTreeTest, EmptyTree) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->entry_count(), 0u);
  auto found = tree->Find(42);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->empty());
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(BPlusTreeTest, InsertAndFind) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k, k * 10).ok());
  }
  EXPECT_EQ(tree->entry_count(), 100u);
  auto found = tree->Find(37);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0], 370u);
  EXPECT_TRUE(tree->Find(1000)->empty());
}

TEST_F(BPlusTreeTest, DuplicateKeys) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint64_t rid = 0; rid < 50; ++rid) {
    ASSERT_TRUE(tree->Insert(7, rid).ok());
  }
  auto found = tree->Find(7);
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found->size(), 50u);
  // Rids come back sorted (entries are ordered by (key, rid)).
  for (uint64_t rid = 0; rid < 50; ++rid) EXPECT_EQ((*found)[rid], rid);
}

TEST_F(BPlusTreeTest, RangeScan) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 1000; k += 2) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  auto range = tree->FindRange(100, 110);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, (std::vector<uint64_t>{100, 102, 104, 106, 108, 110}));
}

TEST_F(BPlusTreeTest, DeleteEntries) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  ASSERT_TRUE(tree->Delete(50, 50).ok());
  EXPECT_TRUE(tree->Find(50)->empty());
  EXPECT_FALSE(tree->Delete(50, 50).ok());
  EXPECT_EQ(tree->entry_count(), 99u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
}

// Entries per leaf: the node header and 16-byte (key, rid) entries after
// the page header.
constexpr uint64_t kLeafCapacity = (kPageSize - kPageHeaderBytes - 8) / 16;

TEST_F(BPlusTreeTest, AscendingInsertsFillLeaves) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 10 * kLeafCapacity; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  // Ten full leaves (an eleventh for the split that filled the tenth) and
  // one root; 50/50 splits would leave ~20 half-empty leaves.
  EXPECT_LE(tree->page_count(), 12u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto all = tree->FindRange(0, UINT64_MAX);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 10 * kLeafCapacity);
  for (uint64_t k = 0; k < all->size(); ++k) EXPECT_EQ((*all)[k], k);
}

TEST_F(BPlusTreeTest, DuplicateRunsAcrossFilledLeafBoundaries) {
  // An index backfill: (key, rid) ascending, each key a run of duplicates
  // that crosses leaf boundaries.
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  const uint64_t kRun = 300;
  const uint64_t kN = 4 * kLeafCapacity;
  for (uint64_t rid = 0; rid < kN; ++rid) {
    ASSERT_TRUE(tree->Insert(rid / kRun, rid).ok());
  }
  EXPECT_LE(tree->page_count(), 6u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (uint64_t key = 0; key * kRun < kN; ++key) {
    auto found = tree->Find(key);
    ASSERT_TRUE(found.ok());
    const uint64_t end = std::min(kN, (key + 1) * kRun);
    ASSERT_EQ(found->size(), end - key * kRun) << key;
    for (uint64_t i = 0; i < found->size(); ++i) {
      EXPECT_EQ((*found)[i], key * kRun + i);
    }
  }
  // Delete the entries on both sides of the first leaf boundary, then put
  // one back into the middle of a full leaf (a 50/50 split).
  const uint64_t boundary = kLeafCapacity;
  for (uint64_t rid = boundary - 2; rid < boundary + 2; ++rid) {
    ASSERT_TRUE(tree->Delete(rid / kRun, rid).ok()) << rid;
  }
  ASSERT_TRUE(tree->Insert(boundary / kRun, boundary).ok());
  ASSERT_TRUE(tree->Insert(0, kN + 1).ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto run = tree->Find(boundary / kRun);
  ASSERT_TRUE(run.ok());
  std::set<uint64_t> got(run->begin(), run->end());
  EXPECT_EQ(got.count(boundary), 1u);
  EXPECT_EQ(got.count(boundary - 1), 0u);
  EXPECT_EQ(got.count(boundary + 1), 0u);
  EXPECT_TRUE(std::is_sorted(run->begin(), run->end()));
  auto first = tree->Find(0);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), kRun + 1);
  EXPECT_EQ(first->back(), kN + 1);
  EXPECT_EQ(tree->entry_count(), kN - 4 + 2);
}

TEST_F(BPlusTreeTest, LastKeyReadsTheRightmostLeaf) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  auto last = tree->LastKey();
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->has_value());
  // Enough ascending keys for several leaves under an internal root.
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(tree->Insert(IntIndexKey(static_cast<int64_t>(k)), k).ok());
  }
  last = tree->LastKey();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, std::optional<uint64_t>(IntIndexKey(kKeys)));
  ASSERT_TRUE(tree->Delete(IntIndexKey(kKeys), kKeys).ok());
  last = tree->LastKey();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, std::optional<uint64_t>(IntIndexKey(kKeys - 1)));
  // Deletes do not merge nodes: the emptied rightmost leaf stays, and
  // LastKey reports it empty though other leaves hold entries.
  for (uint64_t k = 1200; k < kKeys; ++k) {
    ASSERT_TRUE(tree->Delete(IntIndexKey(static_cast<int64_t>(k)), k).ok());
  }
  last = tree->LastKey();
  ASSERT_TRUE(last.ok());
  EXPECT_FALSE(last->has_value());
  EXPECT_EQ(tree->entry_count(), 1199u);
}

TEST_F(BPlusTreeTest, IntKeyOrderPreserving) {
  EXPECT_LT(IntIndexKey(-5), IntIndexKey(-1));
  EXPECT_LT(IntIndexKey(-1), IntIndexKey(0));
  EXPECT_LT(IntIndexKey(0), IntIndexKey(1));
  EXPECT_LT(IntIndexKey(1), IntIndexKey(INT64_MAX));
  EXPECT_LT(IntIndexKey(INT64_MIN), IntIndexKey(-1));
}

struct ModelParams {
  int n;
  uint64_t seed;
  uint64_t key_range;
};

class BPlusTreeModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(BPlusTreeModelTest, AgreesWithMultimap) {
  const ModelParams& p = GetParam();
  MemoryPager pager;
  BufferPool pool(&pager, 8192);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  std::multimap<uint64_t, uint64_t> model;
  std::mt19937_64 rng(p.seed);
  for (int i = 0; i < p.n; ++i) {
    uint64_t key = rng() % p.key_range;
    uint64_t rid = i;
    ASSERT_TRUE(tree->Insert(key, rid).ok());
    model.emplace(key, rid);
    if (i % 7 == 0 && !model.empty()) {
      // Delete a random existing entry.
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      ASSERT_TRUE(tree->Delete(it->first, it->second).ok());
      model.erase(it);
    }
  }
  ASSERT_TRUE(tree->CheckInvariants().ok()) << "n=" << p.n;
  EXPECT_EQ(tree->entry_count(), model.size());
  // Point lookups across the key space.
  for (uint64_t key = 0; key < p.key_range; key += p.key_range / 50 + 1) {
    auto got = tree->Find(key);
    ASSERT_TRUE(got.ok());
    auto [lo, hi] = model.equal_range(key);
    std::multiset<uint64_t> expected;
    for (auto it = lo; it != hi; ++it) expected.insert(it->second);
    std::multiset<uint64_t> actual(got->begin(), got->end());
    EXPECT_EQ(actual, expected) << "key " << key;
  }
  // A full-range scan returns everything in key order.
  auto all = tree->FindRange(0, UINT64_MAX);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeModelTest,
    ::testing::Values(ModelParams{100, 1, 50}, ModelParams{1000, 2, 100},
                      ModelParams{5000, 3, 1u << 30},
                      ModelParams{20000, 4, 500},
                      ModelParams{50000, 5, 1u << 20}));

TEST_F(BPlusTreeTest, ManySequentialInsertsSplitInternalNodes) {
  auto tree = BPlusTree::Create(&pool_);
  ASSERT_TRUE(tree.ok());
  const uint64_t kN = 300000;
  for (uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree->Insert(k, k).ok());
  }
  EXPECT_GT(tree->page_count(), 500u);  // multiple levels
  ASSERT_TRUE(tree->CheckInvariants().ok());
  for (uint64_t k = 0; k < kN; k += 12345) {
    auto found = tree->Find(k);
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(found->size(), 1u) << k;
    EXPECT_EQ((*found)[0], k);
  }
}

}  // namespace
}  // namespace xorator::ordb
