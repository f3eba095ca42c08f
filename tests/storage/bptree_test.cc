#include "storage/bptree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/random.h"

namespace ruidx {
namespace storage {
namespace {

BPlusTree::Key MakeKey(uint64_t v) {
  BPlusTree::Key key{};
  for (int i = 0; i < 8; ++i) {
    key[31 - i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return key;
}

class BPlusTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pager = Pager::Open("");
    ASSERT_TRUE(pager.ok());
    pager_ = pager.MoveValueUnsafe();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 32);
    auto tree = BPlusTree::Create(pool_.get());
    ASSERT_TRUE(tree.ok());
    tree_ = std::make_unique<BPlusTree>(tree.MoveValueUnsafe());
  }

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BPlusTree> tree_;
};

TEST_F(BPlusTreeTest, InsertAndGet) {
  ASSERT_TRUE(tree_->Insert(MakeKey(5), 500).ok());
  ASSERT_TRUE(tree_->Insert(MakeKey(3), 300).ok());
  ASSERT_TRUE(tree_->Insert(MakeKey(9), 900).ok());
  auto v = tree_->Get(MakeKey(3));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 300u);
  EXPECT_TRUE(tree_->Get(MakeKey(4)).status().IsNotFound());
  EXPECT_EQ(tree_->entry_count(), 3u);
}

TEST_F(BPlusTreeTest, InsertOverwrites) {
  ASSERT_TRUE(tree_->Insert(MakeKey(7), 1).ok());
  ASSERT_TRUE(tree_->Insert(MakeKey(7), 2).ok());
  auto v = tree_->Get(MakeKey(7));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
  EXPECT_EQ(tree_->entry_count(), 1u);
}

TEST_F(BPlusTreeTest, SequentialInsertSplitsLeaves) {
  // Well past one leaf's capacity (~99 entries).
  const uint64_t n = 2000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i * 10).ok()) << i;
  }
  EXPECT_EQ(tree_->entry_count(), n);
  EXPECT_TRUE(tree_->Validate().ok());
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);
  for (uint64_t i = 0; i < n; i += 7) {
    auto v = tree_->Get(MakeKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i * 10);
  }
}

TEST_F(BPlusTreeTest, RandomInsertLookup) {
  Rng rng(77);
  std::map<uint64_t, uint64_t> shadow;
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.NextBounded(100000);
    uint64_t v = rng.Next();
    shadow[k] = v;
    ASSERT_TRUE(tree_->Insert(MakeKey(k), v).ok());
  }
  EXPECT_EQ(tree_->entry_count(), shadow.size());
  ASSERT_TRUE(tree_->Validate().ok());
  for (const auto& [k, v] : shadow) {
    auto got = tree_->Get(MakeKey(k));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(BPlusTreeTest, ScanInOrder) {
  Rng rng(9);
  std::map<uint64_t, uint64_t> shadow;
  for (int i = 0; i < 3000; ++i) {
    uint64_t k = rng.NextBounded(1000000);
    shadow[k] = k + 1;
    ASSERT_TRUE(tree_->Insert(MakeKey(k), k + 1).ok());
  }
  // Full scan reproduces the sorted shadow map.
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_
                  ->Scan(MakeKey(0), MakeKey(~0ULL),
                         [&](const BPlusTree::Key&, uint64_t v) {
                           seen.push_back(v - 1);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), shadow.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));

  // Bounded scan.
  std::vector<uint64_t> bounded;
  ASSERT_TRUE(tree_
                  ->Scan(MakeKey(1000), MakeKey(5000),
                         [&](const BPlusTree::Key&, uint64_t v) {
                           bounded.push_back(v - 1);
                           return true;
                         })
                  .ok());
  size_t expected = 0;
  for (const auto& [k, v] : shadow) {
    if (k >= 1000 && k <= 5000) ++expected;
  }
  EXPECT_EQ(bounded.size(), expected);
}

TEST_F(BPlusTreeTest, ScanEarlyStop) {
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_
                  ->Scan(MakeKey(0), MakeKey(499),
                         [&](const BPlusTree::Key&, uint64_t) {
                           return ++count < 10;
                         })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST_F(BPlusTreeTest, EraseRemoves) {
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  for (uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(tree_->Erase(MakeKey(i)).ok()) << i;
  }
  EXPECT_EQ(tree_->entry_count(), 150u);
  EXPECT_TRUE(tree_->Validate().ok());
  for (uint64_t i = 0; i < 300; ++i) {
    auto v = tree_->Get(MakeKey(i));
    EXPECT_EQ(v.ok(), i % 2 == 1) << i;
  }
  EXPECT_TRUE(tree_->Erase(MakeKey(1000)).IsNotFound());
}

TEST_F(BPlusTreeTest, ReverseSequentialInsert) {
  for (uint64_t i = 3000; i-- > 0;) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  for (uint64_t i = 0; i < 3000; i += 11) {
    auto v = tree_->Get(MakeKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST_F(BPlusTreeTest, EraseReclaimsEmptyLeaves) {
  // Regression: Erase used to be leaf-local — a delete storm left every
  // emptied leaf allocated and chained, so the file never shrank and scans
  // waded through ghosts. Emptied leaves must now land on the free list.
  const uint64_t n = 2000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  const uint32_t pages_grown = pager_->page_count();
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Erase(MakeKey(i)).ok()) << i;
  }
  EXPECT_EQ(tree_->entry_count(), 0u);
  EXPECT_GT(pool_->free_page_count(), 0u);
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_EQ(*height, 1);  // collapsed back to a single empty leaf
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_TRUE(tree_->Get(MakeKey(0)).status().IsNotFound());

  // Reinsertion must reuse the freed pages instead of growing the file.
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i + 1).ok());
  }
  EXPECT_EQ(pager_->page_count(), pages_grown);
  ASSERT_TRUE(tree_->Validate().ok());
  for (uint64_t i = 0; i < n; i += 37) {
    auto v = tree_->Get(MakeKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i + 1);
  }
}

TEST_F(BPlusTreeTest, ScansSkipReclaimedLeaves) {
  // Carve holes that empty interior leaves, then prove a full scan sees
  // exactly the survivors, in order, without stumbling over freed pages.
  const uint64_t n = 1500;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  for (uint64_t i = 200; i < 800; ++i) {
    ASSERT_TRUE(tree_->Erase(MakeKey(i)).ok()) << i;
  }
  ASSERT_TRUE(tree_->Validate().ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_
                  ->Scan(MakeKey(0), MakeKey(n),
                         [&](const BPlusTree::Key&, uint64_t v) {
                           seen.push_back(v);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), n - 600);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen.back(), n - 1);
  EXPECT_EQ(std::count_if(seen.begin(), seen.end(),
                          [](uint64_t v) { return v >= 200 && v < 800; }),
            0);
}

TEST_F(BPlusTreeTest, RandomChurnKeepsStructureValid) {
  Rng rng(77);
  std::map<uint64_t, uint64_t> oracle;
  for (int round = 0; round < 4000; ++round) {
    uint64_t k = rng.NextBounded(600);
    if (rng.NextBounded(3) == 0 && oracle.count(k) != 0) {
      ASSERT_TRUE(tree_->Erase(MakeKey(k)).ok());
      oracle.erase(k);
    } else {
      ASSERT_TRUE(tree_->Insert(MakeKey(k), round).ok());
      oracle[k] = static_cast<uint64_t>(round);
    }
  }
  ASSERT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->entry_count(), oracle.size());
  for (const auto& [k, v] : oracle) {
    auto got = tree_->Get(MakeKey(k));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(BPlusTreeTest, DescendsThroughMultipleLevels) {
  // Force height >= 3: more than ~110 leaves even at the compressed
  // format's higher fan-out (several hundred entries per leaf).
  const uint64_t n = 60000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i * 3), i).ok());
  }
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 3);
  ASSERT_TRUE(tree_->Validate().ok());
  for (uint64_t i = 0; i < n; i += 97) {
    auto v = tree_->Get(MakeKey(i * 3));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i);
    EXPECT_TRUE(tree_->Get(MakeKey(i * 3 + 1)).status().IsNotFound());
  }
}

TEST_F(BPlusTreeTest, BulkLoadSortedBuildsValidTree) {
  const uint64_t n = 5000;
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t i = 0; i < n; ++i) entries.push_back({MakeKey(i), i * 10});
  ASSERT_TRUE(tree_->BulkLoadSorted(entries).ok());
  EXPECT_EQ(tree_->entry_count(), n);
  EXPECT_TRUE(tree_->Validate().ok());
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);
  for (uint64_t i = 0; i < n; i += 13) {
    auto v = tree_->Get(MakeKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i * 10);
  }
  // The stitched leaf chain scans in order, end to end.
  uint64_t expect = 0;
  ASSERT_TRUE(tree_
                  ->Scan(MakeKey(0), MakeKey(n),
                         [&](const BPlusTree::Key& key, uint64_t value) {
                           EXPECT_EQ(key, MakeKey(expect));
                           EXPECT_EQ(value, expect * 10);
                           ++expect;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(expect, n);
}

TEST_F(BPlusTreeTest, BulkLoadSortedRejectsBadInput) {
  // Unsorted (and duplicate) input is refused before any page is touched.
  std::vector<BPlusTree::Entry> unsorted = {
      {MakeKey(2), 1}, {MakeKey(1), 2}};
  EXPECT_TRUE(tree_->BulkLoadSorted(unsorted).IsInvalidArgument());
  std::vector<BPlusTree::Entry> dup = {{MakeKey(3), 1},
                                                          {MakeKey(3), 2}};
  EXPECT_TRUE(tree_->BulkLoadSorted(dup).IsInvalidArgument());
  EXPECT_EQ(tree_->entry_count(), 0u);
  // A non-empty tree is refused too: the batch path only builds from
  // scratch.
  ASSERT_TRUE(tree_->Insert(MakeKey(1), 1).ok());
  std::vector<BPlusTree::Entry> more = {{MakeKey(5), 5}};
  EXPECT_TRUE(tree_->BulkLoadSorted(more).IsInvalidArgument());
  EXPECT_EQ(tree_->entry_count(), 1u);
}

TEST_F(BPlusTreeTest, BulkLoadSortedSupportsLaterUpdates) {
  const uint64_t n = 1500;
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t i = 0; i < n; ++i) {
    entries.push_back({MakeKey(i * 2), i});  // even keys only
  }
  ASSERT_TRUE(tree_->BulkLoadSorted(entries).ok());
  // Ordinary inserts (odd keys, forcing splits of the packed leaves),
  // overwrites, and erases all work on the bulk-built structure.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i * 2 + 1), 1000000 + i).ok()) << i;
  }
  ASSERT_TRUE(tree_->Insert(MakeKey(0), 42).ok());
  for (uint64_t i = 300; i < 400; ++i) {
    ASSERT_TRUE(tree_->Erase(MakeKey(i * 2)).ok()) << i;
  }
  EXPECT_TRUE(tree_->Validate().ok());
  EXPECT_EQ(tree_->entry_count(), n + 200 - 100);
  auto v = tree_->Get(MakeKey(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42u);
  EXPECT_TRUE(tree_->Get(MakeKey(600)).status().IsNotFound());
  auto odd = tree_->Get(MakeKey(199));
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(*odd, 1000099u);
}

TEST_F(BPlusTreeTest, EveryReadRejectsLeafWithoutV2Format) {
  // Every leaf the tree writes is format v2. A leaf whose format byte says
  // anything else is a page the tree never wrote: each call that reads it
  // must report Corruption instead of decoding it under another layout.
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(tree_->Insert(MakeKey(i), i).ok());
  }
  auto height = tree_->Height();
  ASSERT_TRUE(height.ok());
  ASSERT_EQ(*height, 1);  // the root is the only leaf
  const uint32_t leaf = tree_->root_page();
  auto page = pool_->Fetch(leaf);
  ASSERT_TRUE(page.ok());
  (*page)[1] = 0;
  pool_->Unpin(leaf, /*dirty=*/true);

  EXPECT_TRUE(tree_->Get(MakeKey(3)).status().IsCorruption());
  EXPECT_TRUE(tree_
                  ->Scan(MakeKey(0), MakeKey(100),
                         [](const BPlusTree::Key&, uint64_t) { return true; })
                  .IsCorruption());
  EXPECT_TRUE(tree_->Insert(MakeKey(100), 100).IsCorruption());
  EXPECT_TRUE(tree_->Erase(MakeKey(3)).IsCorruption());
  EXPECT_TRUE(tree_->Validate().IsCorruption());
  BPlusTree::LeafStats stats;
  EXPECT_TRUE(tree_->ComputeLeafStats(&stats).IsCorruption());
  EXPECT_EQ(tree_->entry_count(), 40u);
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
