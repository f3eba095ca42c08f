// Compressed leaf codec (page format v2): randomized key-corpus round
// trips, boundary fuzz (empty suffixes, full-prefix collisions, restart
// edges), run-local insert/erase churn against a reference map, and
// read-back of stores written in the legacy (uncompressed) format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/element_store.h"
#include "storage/leaf_codec.h"
#include "storage/pager.h"
#include "testutil.h"
#include "xml/generator.h"

namespace ruidx {
namespace storage {
namespace {

using leaf::Entry;
using leaf::Key;

// Restores the process-wide compression toggle on scope exit so a failing
// test cannot leak a flipped toggle into the rest of the binary.
class ScopedLeafCompression {
 public:
  explicit ScopedLeafCompression(bool enabled)
      : saved_(LeafCompressionEnabled()) {
    SetLeafCompressionEnabled(enabled);
  }
  ~ScopedLeafCompression() { SetLeafCompressionEnabled(saved_); }

 private:
  bool saved_;
};

Key MakeKey(uint64_t hi, uint64_t lo, uint8_t tail = 0) {
  Key key{};
  for (int i = 0; i < 8; ++i) {
    key[15 - i] = static_cast<uint8_t>(hi >> (8 * i));
    key[31 - i] = static_cast<uint8_t>(lo >> (8 * i));
  }
  key[32] = tail;
  return key;
}

// Sorted, deduplicated corpus shaped like real identifier keys: a few
// shared "global" halves, clustered "local" values, occasional tail-byte
// variants — long common prefixes with bursts of near-identical keys.
std::vector<Entry> RandomCorpus(std::mt19937_64* rng, size_t n) {
  std::vector<Entry> entries;
  std::uniform_int_distribution<uint64_t> global_pick(0, 3);
  std::uniform_int_distribution<uint64_t> step(1, 1 << 20);
  uint64_t local = 0;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    local += step(*rng);
    e.key = MakeKey(global_pick(*rng), local,
                    static_cast<uint8_t>((*rng)() & 1));
    e.value = (*rng)();
    entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  return entries;
}

void ExpectPageMatches(const uint8_t* page, const std::vector<Entry>& want) {
  Status st = leaf::ValidateLeaf(page);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<Entry> got;
  leaf::DecodeAll(page, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "slot " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "slot " << i;
  }
}

TEST(LeafCodecTest, RandomCorpusRoundTripsAndSearches) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    std::vector<Entry> entries = RandomCorpus(&rng, 1 + round * 9);
    size_t take = leaf::MaxLeafTake(entries.data(), 0, entries.size(),
                                   kPageUsableSize);
    entries.resize(take);
    std::vector<uint8_t> page(kPageUsableSize, 0);
    ASSERT_TRUE(
        leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 7, 9));
    ExpectPageMatches(page.data(), entries);
    // Random access agrees with sequential decode.
    for (size_t i = 0; i < entries.size(); i += 1 + i / 7) {
      Key key;
      leaf::KeyAt(page.data(), i, &key);
      EXPECT_EQ(key, entries[i].key);
      EXPECT_EQ(leaf::ValueAt(page.data(), i), entries[i].value);
    }
    // LowerBound agrees with the linear reference for present keys,
    // their neighbors, and probes past both ends.
    for (size_t i = 0; i < entries.size(); ++i) {
      bool exact = false;
      EXPECT_EQ(leaf::LowerBound(page.data(), entries[i].key, &exact), i);
      EXPECT_TRUE(exact);
      Key miss = entries[i].key;
      if (miss[32] == 0) {
        miss[32] = 1;  // just above, unless the variant is also stored
        size_t ref = std::lower_bound(
                         entries.begin(), entries.end(), miss,
                         [](const Entry& e, const Key& k) { return e.key < k; }) -
                     entries.begin();
        bool miss_exact = false;
        EXPECT_EQ(leaf::LowerBound(page.data(), miss, &miss_exact), ref);
        EXPECT_EQ(miss_exact, ref < entries.size() && entries[ref].key == miss);
      }
    }
    Key below{};
    bool exact = true;
    EXPECT_EQ(leaf::LowerBound(page.data(), below, &exact), 0u);
    EXPECT_EQ(exact, entries[0].key == below);
    Key above;
    above.fill(0xff);
    EXPECT_EQ(leaf::LowerBound(page.data(), above, &exact), entries.size());
  }
}

TEST(LeafCodecTest, SingleEntryPageHasEmptySuffix) {
  // One entry: the page prefix covers the whole key, the slot stores an
  // empty suffix. The degenerate encoding must still validate and decode.
  std::vector<uint8_t> page(kPageUsableSize, 0);
  Entry only{MakeKey(42, 1, 3), 77};
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), &only, 1, kInvalidPage,
                              kInvalidPage));
  ExpectPageMatches(page.data(), {only});
  bool exact = false;
  EXPECT_EQ(leaf::LowerBound(page.data(), only.key, &exact), 0u);
  EXPECT_TRUE(exact);
}

TEST(LeafCodecTest, FullPrefixCollisionKeys) {
  // Keys identical except the last byte: the page prefix absorbs 32 of 33
  // bytes and every non-head slot stores a one-byte (or empty-shared)
  // suffix. This is the densest page the format can produce.
  std::vector<Entry> entries;
  for (int t = 0; t < 200; ++t) {
    entries.push_back({MakeKey(5, 123, static_cast<uint8_t>(t)), 1000u + t});
  }
  size_t take = leaf::MaxLeafTake(entries.data(), 0, entries.size(),
                                   kPageUsableSize);
  ASSERT_EQ(take, entries.size()) << "200 one-byte suffixes must fit";
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0,
                              0));
  ExpectPageMatches(page.data(), entries);
  leaf::PageStats stats;
  leaf::AccumulateStats(page.data(), &stats);
  EXPECT_EQ(stats.entries, entries.size());
  // Stored key bytes: 32-byte page prefix + 2-byte slot headers + <=1-byte
  // suffixes — far below the raw 33 bytes/key.
  EXPECT_LT(stats.key_bytes_stored, stats.key_bytes_raw / 5);
}

/// Bytes a compressed leaf's encoding occupies, read from its documented
/// layout: entries end at data_end ([14..16)); the restart directory, four
/// bytes a run, and its u16 count sit at the page tail.
size_t EncodedBytes(const uint8_t* page) {
  uint16_t data_end = 0;
  uint16_t runs = 0;
  std::memcpy(&data_end, page + 14, 2);
  std::memcpy(&runs, page + kPageUsableSize - 2, 2);
  return data_end + 2 + 4 * static_cast<size_t>(runs);
}

TEST(LeafCodecTest, MaxLeafTakeIsExact) {
  std::mt19937_64 rng(99);
  std::vector<Entry> entries = RandomCorpus(&rng, 2000);
  const size_t n = entries.size();
  size_t take = leaf::MaxLeafTake(entries.data(), 0, n, kPageUsableSize);
  ASSERT_LT(take, n) << "need an overfull corpus for this test";
  std::vector<uint8_t> page(kPageUsableSize, 0);
  EXPECT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), take, 0, 0));
  EXPECT_FALSE(leaf::BuildLeaf(page.data(), entries.data(), take + 1, 0, 0))
      << "MaxLeafTake must be the largest fitting count";
  // Against byte budgets below a page, from starts on and off restart
  // boundaries: the count returned encodes within the budget, and one entry
  // more does not (or does not fit a page at all).
  for (size_t budget : {size_t{kPageUsableSize} * 7 / 8, size_t{1024},
                        size_t{200}}) {
    for (size_t start : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                         size_t{17}, size_t{999}}) {
      size_t k = leaf::MaxLeafTake(entries.data(), start, n, budget);
      ASSERT_LT(start + k, n);
      ASSERT_TRUE(
          leaf::BuildLeaf(page.data(), entries.data() + start, k, 0, 0));
      EXPECT_LE(EncodedBytes(page.data()), budget)
          << "budget " << budget << " start " << start;
      if (leaf::BuildLeaf(page.data(), entries.data() + start, k + 1, 0, 0)) {
        EXPECT_GT(EncodedBytes(page.data()), budget)
            << "budget " << budget << " start " << start << " took " << k;
      }
    }
  }
  // Fewer entries left than fit: all of them. A budget below a single
  // entry's encoding still takes one.
  EXPECT_EQ(leaf::MaxLeafTake(entries.data(), n - 3, n, kPageUsableSize), 3u);
  EXPECT_EQ(leaf::MaxLeafTake(entries.data(), n - 1, n, kPageUsableSize), 1u);
  EXPECT_EQ(leaf::MaxLeafTake(entries.data(), 0, n, 10), 1u);
}

TEST(LeafCodecTest, InsertEraseAtRestartEdges) {
  // Build a page whose slots land exactly on restart boundaries, then
  // exercise the run-local edit paths at every edge: slot 0, run heads,
  // run tails, and the last slot. Validate after every single edit.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 64; ++i) {
    entries.push_back({MakeKey(1, 10 * i), i});
  }
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(
      leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0, 0));

  auto insert = [&](uint64_t local, uint64_t value) {
    Entry e{MakeKey(1, local), value};
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), e.key, &exact);
    ASSERT_FALSE(exact);
    leaf::InsertOutcome out = leaf::InsertAt(page.data(), idx, e.key, e.value);
    ASSERT_EQ(out, leaf::InsertOutcome::kDone);
    entries.insert(entries.begin() + idx, e);
    ExpectPageMatches(page.data(), entries);
  };
  auto erase = [&](size_t idx) {
    leaf::EraseAt(page.data(), idx);
    entries.erase(entries.begin() + idx);
    ExpectPageMatches(page.data(), entries);
  };

  insert(5, 100);            // before slot 0 — new first key of run 0
  insert(165, 101);          // right at the old run-0/run-1 boundary
  insert(635, 102);          // tail of the last run
  erase(0);                  // run head of run 0
  erase(leaf::kRestartInterval);  // a later run's head
  erase(entries.size() - 1);      // very last slot
  // Erasing a whole run must drop its restart directory slot cleanly.
  while (entries.size() > leaf::kRestartInterval) {
    erase(entries.size() - 1);
  }
  while (!entries.empty()) {
    erase(0);
  }
  EXPECT_EQ(leaf::ValidateLeaf(page.data()).ok(), true);
}

TEST(LeafCodecTest, InsertReportsRebuildWhenRunOverflows) {
  // Stuff one run past kMaxRunLength: the codec must hand back kRebuild
  // rather than produce an over-long run.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back({MakeKey(1, 1000 * (i + 1)), i});
  }
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(
      leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0, 0));
  bool saw_rebuild = false;
  for (uint64_t i = 0; i < leaf::kMaxRunLength + 4; ++i) {
    Key key = MakeKey(1, 1001 + i);
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), key, &exact);
    ASSERT_FALSE(exact);
    leaf::InsertOutcome out = leaf::InsertAt(page.data(), idx, key, i);
    if (out == leaf::InsertOutcome::kRebuild) {
      saw_rebuild = true;
      break;
    }
    ASSERT_EQ(out, leaf::InsertOutcome::kDone);
    Status st = leaf::ValidateLeaf(page.data());
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(saw_rebuild);
}

TEST(LeafCodecTest, InsertOutsidePagePrefixReportsRebuild) {
  // A key that breaks the page-wide common prefix can never be spliced in
  // place — the prefix bytes are stored once for the whole page.
  std::vector<Entry> entries = {{MakeKey(7, 100), 1}, {MakeKey(7, 200), 2}};
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), 2, 0, 0));
  Key outside = MakeKey(9, 150);
  bool exact = false;
  size_t idx = leaf::LowerBound(page.data(), outside, &exact);
  EXPECT_EQ(leaf::InsertAt(page.data(), idx, outside, 3),
            leaf::InsertOutcome::kRebuild);
  // The failed insert must not have disturbed the page.
  ExpectPageMatches(page.data(), entries);
}

TEST(LeafCodecTest, RandomChurnMatchesReferenceMap) {
  // Mixed insert/erase/overwrite storm against std::map, with a full
  // structural validation after every mutation. kRebuild/kNoRoom fall back
  // to the same decode-all + BuildLeaf path the tree uses.
  std::mt19937_64 rng(4242);
  std::map<Key, uint64_t> reference;
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), nullptr, 0, 0, 0));
  std::uniform_int_distribution<uint64_t> local_pick(0, 400);
  for (int op = 0; op < 3000; ++op) {
    Key key = MakeKey(3, local_pick(rng) * 3,
                      static_cast<uint8_t>(rng() & 1));
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), key, &exact);
    uint64_t roll = rng() % 100;
    if (roll < 60) {  // upsert
      uint64_t value = rng();
      if (exact) {
        leaf::SetValueAt(page.data(), idx, value);
      } else {
        leaf::InsertOutcome out =
            leaf::InsertAt(page.data(), idx, key, value);
        if (out != leaf::InsertOutcome::kDone) {
          std::vector<Entry> all;
          leaf::DecodeAll(page.data(), &all);
          all.insert(all.begin() + idx, Entry{key, value});
          if (!leaf::BuildLeaf(page.data(), all.data(), all.size(), 0, 0)) {
            continue;  // a real tree would split; key not stored
          }
        }
      }
      reference[key] = value;
    } else if (exact) {  // erase
      leaf::EraseAt(page.data(), idx);
      reference.erase(key);
    }
    Status st = leaf::ValidateLeaf(page.data());
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
  }
  std::vector<Entry> want(reference.size());
  std::transform(reference.begin(), reference.end(), want.begin(),
                 [](const auto& kv) { return Entry{kv.first, kv.second}; });
  ExpectPageMatches(page.data(), want);
}

BPlusTree::Key TreeKey(uint64_t v) {
  BPlusTree::Key key{};
  for (int i = 0; i < 8; ++i) {
    key[31 - i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return key;
}

TEST(LeafCodecTest, TreeMixesLegacyAndCompressedPages) {
  // Start a tree with compression off (legacy leaves), flip it on, and
  // keep inserting: legacy pages stay legacy until they split, new pages
  // come out compressed, and Validate covers both formats at once.
  auto pager = Pager::Open("");
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 32);
  uint32_t root;
  {
    ScopedLeafCompression off(false);
    auto created = BPlusTree::Create(&pool);
    ASSERT_TRUE(created.ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(created->Insert(TreeKey(i * 4), i).ok());
    }
    ASSERT_TRUE(created->Validate().ok());
    root = created->root_page();
  }
  {
    ScopedLeafCompression on(true);
    BPlusTree tree = BPlusTree::Attach(&pool, root, 2000);
    // Only the low quarter of the key space takes new inserts: those
    // legacy leaves overflow and split into compressed pages while the
    // untouched upper leaves stay legacy.
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(tree.Insert(TreeKey(i * 4 + 1), i).ok());
    }
    Status st = tree.Validate();
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (uint64_t i = 0; i < 2000; i += 97) {
      auto even = tree.Get(TreeKey(i * 4));
      ASSERT_TRUE(even.ok());
      EXPECT_EQ(*even, i);
    }
    for (uint64_t i = 0; i < 500; i += 41) {
      auto odd = tree.Get(TreeKey(i * 4 + 1));
      ASSERT_TRUE(odd.ok());
      EXPECT_EQ(*odd, i);
    }
    // Erases must work on both formats too.
    for (uint64_t i = 0; i < 2000; i += 3) {
      ASSERT_TRUE(tree.Erase(TreeKey(i * 4)).ok());
    }
    ASSERT_TRUE(tree.Validate().ok());
    // Stats see both formats.
    BPlusTree::LeafStats stats;
    ASSERT_TRUE(tree.ComputeLeafStats(&stats).ok());
    EXPECT_GT(stats.leaf_pages, stats.compressed_pages);
    EXPECT_GT(stats.compressed_pages, 0u);
  }
}

TEST(LeafCodecTest, LegacyStoreReadsBackUnderCompression) {
  // A store written entirely in the legacy format (pre-v2 binary) must
  // open, verify, and accept new writes with compression enabled — the
  // transparent-migration guarantee of the meta version bump.
  std::string path = ::testing::TempDir() + "/ruidx_legacy_readback.db";
  std::remove(path.c_str());
  auto doc = xml::GenerateDblpLike(60);
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  uint64_t expected_count = 0;
  {
    ScopedLeafCompression off(false);
    auto store = ElementStore::Create(path, 16);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
    expected_count = (*store)->record_count();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    ScopedLeafCompression on(true);
    auto store = ElementStore::Open(path, 16);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->record_count(), expected_count);
    Status verify = (*store)->VerifyOnDisk();
    EXPECT_TRUE(verify.ok()) << verify.ToString();
    // Old records read back...
    auto nodes = ruidx::testing::AllNodes(doc->root());
    for (size_t i = 0; i < nodes.size(); i += 217) {
      auto record = (*store)->Get(scheme.label(nodes[i]));
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      EXPECT_EQ(record->name, nodes[i]->name());
    }
    // ...and new writes (which may split legacy pages into compressed
    // ones) keep the store consistent.
    for (uint64_t i = 0; i < 500; ++i) {
      ElementRecord extra;
      extra.id = core::Ruid2Id{BigUint(7777777 + i), BigUint(2), false};
      extra.parent_id = extra.id;
      extra.name = "extra";
      ASSERT_TRUE((*store)->Put(extra).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    verify = (*store)->VerifyOnDisk();
    EXPECT_TRUE(verify.ok()) << verify.ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
